package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
)

// WriteCSV emits rows as comma-separated values with full float64
// round-trip precision, one row per line, no header.
func WriteCSV(w io.Writer, rows [][]float64) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 32)
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvLineLimit bounds a CSV line, any '\r' included: a line this long
// or longer fails with bufio.ErrTooLong, as it does from a
// bufio.Scanner whose buffer is capped at the same size.
const csvLineLimit = 1 << 24

// ReadCSV reads r to the end and parses it with ParseCSV across
// GOMAXPROCS goroutines. The rows are views into one flat buffer,
// capped so that appending to one cannot overwrite the next.
func ReadCSV(r io.Reader) ([][]float64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	flat, n, dim, err := ParseCSV(b, nil, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows, nil
}

// ParseCSV parses comma-separated numeric rows from b into flat
// row-major form, appending them to dst, and returns the grown buffer
// with the row count and width. Lines split on '\n'. Each line and each
// field is trimmed of Unicode white space, so CRLF line ends are fine,
// and every field must parse with strconv.ParseFloat. Blank lines are
// skipped but counted in the line numbers that errors report. A
// non-numeric first line is a header and is skipped. All data rows must
// have the same number of columns, and a line of csvLineLimit bytes or
// more fails with bufio.ErrTooLong. On error dst comes back at its
// input length.
//
// A body of at least parseBlockBytes per goroutine past the first is
// cut at line ends into blocks that up to min(workers, GOMAXPROCS)
// goroutines parse at once (see parseBlocks). Rows, acceptance and
// error text do not depend on workers. Clean input allocates nothing
// beyond dst's growth when it parses serially, and a few values per
// goroutine when it parses in blocks.
func ParseCSV(b []byte, dst []float64, workers int) (flat []float64, n, dim int, err error) {
	if g := min(workers, runtime.GOMAXPROCS(0), 1+len(b)/parseBlockBytes); g >= 2 {
		if flat, n, dim, ok := parseBlocks(b, dst, g); ok {
			return flat, n, dim, nil
		}
	}
	mark := len(dst)
	flat, n, dim, err = parseLines(b, dst, true)
	if err == nil && n == 0 {
		err = fmt.Errorf("dataset: no data rows")
	}
	if err != nil {
		return dst[:mark], 0, 0, err
	}
	return flat, n, dim, nil
}

// parseBlockBytes is the body size each goroutine past the first needs
// before ParseCSV splits a body: the serial parse takes about 0.6 ms
// over 64 KiB (about 100 MB/s), far more than a goroutine's start-up
// and its block's copy into dst.
const parseBlockBytes = 64 << 10

// blockPool holds the scratch that parseBlocks' later blocks parse
// into. Scratch past maxPooledBlockLen values is dropped rather than
// pooled, so one huge body does not pin its blocks' memory.
var blockPool = sync.Pool{New: func() any { return new([]float64) }}

const maxPooledBlockLen = 1 << 17

// csvBlock is one line-aligned slice of a body and what parsing it
// gave.
type csvBlock struct {
	body    []byte
	scratch *[]float64 // from blockPool; nil for the first block
	n, dim  int
	err     error
}

// parseBlocks parses b as g blocks cut just after a '\n': the first
// into dst on the calling goroutine, with the header rule, and each
// later one into pooled scratch on its own goroutine, without it. The
// scratch blocks are then appended to dst in order. ok is false when a
// block fails, two blocks disagree on the width or no block holds a
// row; dst then comes back at its input length, and the caller reruns
// the serial parse, which finds the body's first error and numbers its
// line.
func parseBlocks(b []byte, dst []float64, g int) (flat []float64, n, dim int, ok bool) {
	blocks := make([]csvBlock, 0, g)
	for start, i := 0, 1; start < len(b); i++ {
		end := len(b)
		if from := max(start, i*(len(b)/g)); i < g && from < len(b) {
			if k := bytes.IndexByte(b[from:], '\n'); k >= 0 {
				end = from + k + 1
			}
		}
		blocks = append(blocks, csvBlock{body: b[start:end]})
		start = end
	}
	var wg sync.WaitGroup
	wg.Add(len(blocks) - 1)
	for i := 1; i < len(blocks); i++ {
		go func(bl *csvBlock) {
			defer wg.Done()
			bl.scratch = blockPool.Get().(*[]float64)
			*bl.scratch, bl.n, bl.dim, bl.err = parseLines(bl.body, (*bl.scratch)[:0], false)
		}(&blocks[i])
	}
	mark := len(dst)
	first := &blocks[0]
	dst, first.n, first.dim, first.err = parseLines(first.body, dst, true)
	wg.Wait()

	ok = true
	for i := range blocks {
		bl := &blocks[i]
		if bl.err != nil || (n > 0 && bl.n > 0 && bl.dim != dim) {
			ok = false
		}
		if ok && bl.n > 0 {
			n, dim = n+bl.n, bl.dim
			if i > 0 {
				dst = append(dst, *bl.scratch...)
			}
		}
		if bl.scratch != nil && cap(*bl.scratch) <= maxPooledBlockLen {
			blockPool.Put(bl.scratch)
		}
	}
	if !ok || n == 0 {
		return dst[:mark], 0, 0, false
	}
	return dst, n, dim, true
}

// parseLines is ParseCSV's grammar over b's lines, numbered from 1,
// appending to dst. With header set, a non-numeric line 1 is skipped. A
// body without data rows returns n = 0 and no error. On error the
// returned buffer may hold part of b's rows.
func parseLines(b []byte, dst []float64, header bool) (flat []float64, n, dim int, err error) {
	for lineNo := 1; len(b) > 0; lineNo++ {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		if len(line) >= csvLineLimit {
			return dst, 0, 0, bufio.ErrTooLong
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		rowStart := len(dst)
		numeric := true
		// A trailing comma leaves an empty last field, which is not
		// numeric.
		for rest, more := line, true; more; {
			var field []byte
			field, rest, more = bytes.Cut(rest, []byte{','})
			v, perr := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
			if perr != nil {
				numeric = false
				break
			}
			dst = append(dst, v)
		}
		if !numeric {
			if header && lineNo == 1 {
				dst = dst[:rowStart] // header
				continue
			}
			return dst, 0, 0, fmt.Errorf("dataset: line %d is not numeric", lineNo)
		}
		cols := len(dst) - rowStart
		if n > 0 && cols != dim {
			return dst, 0, 0, fmt.Errorf("dataset: line %d has %d columns, want %d", lineNo, cols, dim)
		}
		dim = cols
		n++
	}
	return dst, n, dim, nil
}
