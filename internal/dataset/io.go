package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
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

// ReadCSV reads r to the end and parses it with ParseCSV. The rows are
// views into one flat buffer, capped so that appending to one cannot
// overwrite the next.
func ReadCSV(r io.Reader) ([][]float64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	flat, n, dim, err := ParseCSV(b, nil)
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
// more fails with bufio.ErrTooLong. Clean input allocates nothing
// beyond dst's growth. On error dst comes back at its input length.
func ParseCSV(b []byte, dst []float64) (flat []float64, n, dim int, err error) {
	mark := len(dst)
	for lineNo := 1; len(b) > 0; lineNo++ {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		if len(line) >= csvLineLimit {
			return dst[:mark], 0, 0, bufio.ErrTooLong
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
			if lineNo == 1 {
				dst = dst[:rowStart] // header
				continue
			}
			return dst[:mark], 0, 0, fmt.Errorf("dataset: line %d is not numeric", lineNo)
		}
		cols := len(dst) - rowStart
		if n > 0 && cols != dim {
			return dst[:mark], 0, 0, fmt.Errorf("dataset: line %d has %d columns, want %d", lineNo, cols, dim)
		}
		dim = cols
		n++
	}
	if n == 0 {
		return dst[:mark], 0, 0, fmt.Errorf("dataset: no data rows")
	}
	return dst, n, dim, nil
}
