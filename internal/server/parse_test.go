package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tkdc/internal/dataset"
)

// parsePoints is the reference parser: the rows-of-slices parser the
// flat path replaced, kept verbatim so that the equivalence table and
// FuzzParseRowsFlat can hold parseRowsFlat to its acceptance, rows and
// error text. Its request type keeps the name classifyRequest so that
// encoding/json names the same struct in its errors.
func parsePoints(contentType string, body []byte) ([][]float64, error) {
	type classifyRequest struct {
		Points [][]float64 `json:"points"`
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, errors.New("empty request body")
	}
	isJSON := strings.Contains(contentType, "json") ||
		(len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '['))
	if isJSON {
		if trimmed[0] == '[' {
			var rows [][]float64
			if err := json.Unmarshal(trimmed, &rows); err != nil {
				return nil, fmt.Errorf("parse JSON rows: %w", err)
			}
			return rows, nil
		}
		var req classifyRequest
		if err := json.Unmarshal(trimmed, &req); err != nil {
			return nil, fmt.Errorf("parse JSON body: %w", err)
		}
		return req.Points, nil
	}
	rows, err := readCSV(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parse CSV body: %w", err)
	}
	return rows, nil
}

// readCSV is the reference CSV grammar: the bufio.Scanner loop that
// dataset.ParseCSV replaced, verbatim.
func readCSV(r io.Reader) ([][]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, len(fields))
		ok := true
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				ok = false
				break
			}
			row[j] = v
		}
		if !ok {
			if len(rows) == 0 && lineNo == 1 {
				continue // header
			}
			return nil, fmt.Errorf("dataset: line %d is not numeric", lineNo)
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, fmt.Errorf("dataset: line %d has %d columns, want %d", lineNo, len(row), len(rows[0]))
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: no data rows")
	}
	return rows, nil
}

// parseCases are the equivalence table's bodies and FuzzParseRowsFlat's
// seeds: clean inputs beside every tricky shape of either format.
var parseCases = []struct {
	name, contentType, body string
}{
	{"csv simple", "text/csv", "1,2\n3,4\n"},
	{"csv no trailing newline", "text/csv", "1,2\n3,4"},
	{"csv negatives and exponents", "text/csv", "-1.5,2e3\n+0.25,-4E-2\n"},
	{"csv blank lines", "text/csv", "\n1,2\n\n3,4\n\n"},
	{"csv spaces around fields", "text/csv", " 1 , 2 \n 3 , 4 \n"},
	{"csv crlf", "text/csv", "1,2\r\n3,4\r\n"},
	{"csv header", "text/csv", "x,y\n1,2\n3,4\n"},
	{"csv header then bad row", "text/csv", "x,y\n1,2\nfoo,4\n"},
	{"csv header after blank line", "text/csv", "\nx,y\n1,2\n"},
	{"csv bad row after blank lines", "text/csv", "1,2\n\n\nfoo,4\n"},
	{"csv trailing comma", "text/csv", "1,2,\n3,4,\n"},
	{"csv ragged", "text/csv", "1,2\n3,4,5\n"},
	{"csv inf", "text/csv", "Inf,2\n3,4\n"},
	{"csv nan", "text/csv", "NaN,2\n"},
	{"csv hex float", "text/csv", "0x1p3,2\n"},
	{"csv unicode space", "text/csv", " 1,2\n"},
	{"csv single column", "text/csv", "1\n2\n3\n"},
	{"csv empty", "text/csv", ""},
	{"csv only blank lines", "text/csv", "\n\n"},
	{"csv garbage", "text/csv", "hello world\nnot,numbers\n"},
	{"json bare array", "application/json", `[[1,2],[3,4]]`},
	{"json points object", "application/json", `{"points":[[1,2],[3,4]]}`},
	{"json whitespace", "application/json", " {\n\t\"points\": [ [1, 2] , [3, 4] ] }\n"},
	{"json exponents", "application/json", `[[1e-3,2.5E2],[-0.125,3]]`},
	{"json empty outer", "application/json", `[]`},
	{"json empty points", "application/json", `{"points":[]}`},
	{"json empty row", "application/json", `[[]]`},
	{"json ragged", "application/json", `[[1,2],[3]]`},
	{"json extra key", "application/json", `{"points":[[1,2]],"mode":"fast"}`},
	{"json trailing garbage", "application/json", `[[1,2]] extra`},
	{"json string element", "application/json", `[["1",2]]`},
	{"json nested too deep", "application/json", `[[[1]]]`},
	{"json null", "application/json", `null`},
	{"json not rows", "application/json", `{"points":"nope"}`},
	{"json plus sign", "application/json", `[[+1,2]]`},
	{"json null coordinate", "application/json", `[[1,null]]`},
	{"json points null coordinate", "application/json", `{"points":[[null,2]]}`},
	{"json null row", "application/json", `[[1,2],null]`},
	{"json row not array", "application/json", `[[1,2],3]`},
	{"json sniffed from csv content type", "text/csv", `{"points":[[1,2]]}`},
	{"default content type csv", "", "1,2\n3,4\n"},
	{"empty body json", "application/json", ""},
}

// parseWorkers is the worker budget the parse tests pass: with
// GOMAXPROCS of 2 or more, a body past the block minimum takes
// dataset.ParseCSV's block path.
const parseWorkers = 8

// bigBodyBytes is dataset.ParseCSV's block minimum for two goroutines:
// 64 KiB for each goroutine past the first.
const bigBodyBytes = 64 << 10

// repeatBody repeats body, newline-terminated, until it is at least
// bigBodyBytes long, so that a CSV body parses in blocks. Each
// repetition's rows and faults recur, and so reach later blocks.
func repeatBody(body []byte) []byte {
	if len(body) == 0 {
		return nil
	}
	unit := body
	if unit[len(unit)-1] != '\n' {
		unit = append(slices.Clip(unit), '\n')
	}
	return bytes.Repeat(unit, bigBodyBytes/len(unit)+1)
}

// cleanRows is n newline-terminated rows of dim columns, first at
// line one.
func cleanRows(n, dim int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fixedLine pads a row to a 55-byte line plus its '\n'.
func fixedLine(row string) string { return fmt.Sprintf("%-55s\n", row) }

// fixedRows is n rows of dim columns in fixed-width lines; at dim 4
// each row fills its line exactly.
func fixedRows(n, dim int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		cols := make([]string, dim)
		for j := range cols {
			cols[j] = fmt.Sprintf("%+.6e", rng.NormFloat64())
		}
		b.WriteString(fixedLine(strings.Join(cols, ",")))
	}
	return b.String()
}

// blockStartLine is the 0-based index of the line that opens the second
// of two blocks, and the third of four, in a body of 10 000 56-byte
// lines: the cut falls after the line holding byte L/2.
const blockStartLine = 5001

// bigCSVCases are bodies past the block minimum with a fault or a
// tricky shape planted past the first block: after about three
// quarters of the body, as its last line, or as the first line of a
// later block.
func bigCSVCases() []struct{ name, body string } {
	head, tail := cleanRows(9000, 4, 1), cleanRows(3000, 4, 2)
	plants := []struct{ name, line string }{
		{"clean", ""},
		{"header", "x,y,z,w\n"},
		{"blank-only block", strings.Repeat(" \r\n\n", 40000)},
		{"crlf rows", strings.ReplaceAll(cleanRows(500, 4, 3), "\n", "\r\n")},
		{"bad row", "1,foo,3,4\n"},
		{"ragged row", "1,2,3\n"},
		{"wide row", "1,2,3,4,5\n"},
		{"trailing comma", "1,2,3,4,\n"},
	}
	var cases []struct{ name, body string }
	for _, p := range plants {
		cases = append(cases,
			struct{ name, body string }{"big " + p.name + " inside", head + p.line + tail},
			struct{ name, body string }{"big " + p.name + " last", head + tail + strings.TrimSuffix(p.line, "\n")})
	}
	before, after := fixedRows(blockStartLine, 4, 5), fixedRows(10000-blockStartLine-1, 4, 6)
	for _, p := range []struct{ name, line string }{
		{"header", "x,y,z,w"},
		{"bad row", "1,foo,3,4"},
		{"ragged row", "1,2,3"},
		{"blank line", ""},
	} {
		cases = append(cases, struct{ name, body string }{"big " + p.name + " at a block start", before + fixedLine(p.line) + after})
	}
	return append(cases,
		struct{ name, body string }{"big width changes at a block start", before + fixedRows(10000-blockStartLine, 3, 6)},
		struct{ name, body string }{"big width differs by block", head + cleanRows(9000, 3, 4)},
		struct{ name, body string }{"big only blank lines", strings.Repeat("\n", bigBodyBytes)})
}

// checkParseRowsFlat holds parseRowsFlat to the reference parsePoints:
// both must accept or reject the body, return the same rows (NaN equal
// to NaN) and give the same error text. Three differences are intended.
// Ragged JSON rows and null JSON coordinates, which the reference
// accepts (reading a null as 0), are rejected. And encoding/json names
// the row types []*float64 where the reference's errors say []float64.
// parseRowsFlat appends after a dst prefix and leaves it intact.
func checkParseRowsFlat(t *testing.T, contentType string, body []byte) {
	t.Helper()
	want, wantErr := parsePoints(contentType, body)
	const prefix = -7.0
	flat, n, dim, err := parseRowsFlat(contentType, body, []float64{prefix}, parseWorkers)
	if len(flat) == 0 || flat[0] != prefix {
		t.Fatalf("dst prefix lost: flat = %v", flat)
	}
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("accepted (n=%d dim=%d), reference rejects: %v", n, dim, wantErr)
	case wantErr != nil:
		if got := strings.ReplaceAll(err.Error(), "*float64", "float64"); got != wantErr.Error() {
			t.Fatalf("error text %q, reference %q", err, wantErr)
		}
	case err != nil:
		if !intendedRejection(want, body, err) {
			t.Fatalf("rejected (%v), reference accepts %v", err, want)
		}
	}
	if err != nil {
		if len(flat) != 1 {
			t.Fatalf("error left %d values after the dst prefix", len(flat)-1)
		}
		return
	}
	if n != len(want) || (n > 0 && dim != len(want[0])) || len(flat) != 1+n*dim {
		t.Fatalf("n=%d dim=%d len(flat)=%d, reference has %d rows", n, dim, len(flat), len(want))
	}
	for i, row := range want {
		for j, v := range row {
			if got := flat[1+i*dim+j]; got != v && !(got != got && v != v) {
				t.Fatalf("row %d col %d: %v, reference %v", i, j, got, v)
			}
		}
	}
}

// intendedRejection reports whether err rejects a body the reference
// parsed into rows for one of the intended reasons: the first ragged
// row, or a null coordinate (which the reference read as 0) before it.
func intendedRejection(rows [][]float64, body []byte, err error) bool {
	ragged := len(rows)
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			ragged = i
			break
		}
	}
	if ragged < len(rows) && err.Error() == fmt.Sprintf("row %d has %d values, want %d", ragged, len(rows[ragged]), len(rows[0])) {
		return true
	}
	var i, j int
	if _, serr := fmt.Sscanf(err.Error(), "row %d coordinate %d is null", &i, &j); serr != nil {
		return false
	}
	return err.Error() == fmt.Sprintf("row %d coordinate %d is null", i, j) &&
		i < ragged && j < len(rows[i]) && rows[i][j] == 0 && bytes.Contains(body, []byte("null"))
}

// TestParseRowsFlatEquivalence runs the shared comparison over the
// table of bodies, over each body repeated past the block minimum, and
// over the large bodies with a fault planted past the first block.
// With GOMAXPROCS of 2 or more, the large bodies take the block path.
func TestParseRowsFlatEquivalence(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			checkParseRowsFlat(t, tc.contentType, []byte(tc.body))
			checkParseRowsFlat(t, tc.contentType, repeatBody([]byte(tc.body)))
		})
	}
	for _, tc := range bigCSVCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkParseRowsFlat(t, "text/csv", []byte(tc.body))
		})
	}
	t.Run("big line too long", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a 16 MiB line")
		}
		long := bytes.Repeat([]byte{'1'}, 1<<24)
		checkParseRowsFlat(t, "text/csv", []byte(cleanRows(9000, 4, 1)+string(long)+"\n1,2,3,4\n"))
	})
}

// FuzzParseRowsFlat runs the same comparison on generated bodies; a
// body that parses as CSV also runs repeated past the block minimum.
// The table's bodies are its seeds, so they also run under plain go
// test.
func FuzzParseRowsFlat(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.contentType, []byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		checkParseRowsFlat(t, contentType, body)
		if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 && !strings.Contains(contentType, "json") && trimmed[0] != '{' && trimmed[0] != '[' {
			checkParseRowsFlat(t, contentType, repeatBody(body))
		}
	})
}

// TestParseRowsFlatReusesDst pins the pooling contract on a warmed
// buffer: a small CSV body parses in place into dst without allocating,
// whatever its line ends, blank lines or Unicode spaces. Skipping a
// header allocates only the strconv.NumError that rejects its field. A
// body past the block minimum parses into dst too, and its blocks'
// scratch comes from a pool: a few allocations per goroutine (the block
// list, the wait group, one closure each), never one per row.
func TestParseRowsFlatReusesDst(t *testing.T) {
	big := cleanRows(4096, 8, 6)
	for _, tc := range []struct {
		name, body string
		n, dim     int
		maxAllocs  float64
	}{
		{"plain", "1,2\n3,4\n", 2, 2, 0},
		{"crlf", "1,2\r\n3,4\r\n", 2, 2, 0},
		{"blank lines", "\n1,2\n\n3,4\n\n", 2, 2, 0},
		{"non-ascii space", "\u00a01,2\n3,\u20034\n", 2, 2, 0},
		{"header", "x,y\n1,2\n3,4\n", 2, 2, 2},
		{"blocks", big, 4096, 8, 2 + 2*parseWorkers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			dst := make([]float64, 0, max(64, tc.n*tc.dim))
			flat, n, dim, err := parseRowsFlat("text/csv", body, dst, parseWorkers)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.n || dim != tc.dim {
				t.Fatalf("n=%d dim=%d, want %d,%d", n, dim, tc.n, tc.dim)
			}
			if &flat[0] != &dst[:1][0] {
				t.Fatal("flat does not alias dst: the parse allocated a new buffer")
			}
			allocs := testing.AllocsPerRun(100, func() {
				_, _, _, _ = parseRowsFlat("text/csv", body, dst, parseWorkers)
			})
			if allocs > tc.maxAllocs {
				t.Fatalf("%v allocations per parse, want at most %v", allocs, tc.maxAllocs)
			}
		})
	}
}

func benchBody(rows int) (csv, jsonBody string) {
	rng := rand.New(rand.NewSource(5))
	var c, j strings.Builder
	j.WriteString(`{"points":[`)
	for i := 0; i < rows; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		fmt.Fprintf(&c, "%.6f,%.6f\n", x, y)
		if i > 0 {
			j.WriteByte(',')
		}
		fmt.Fprintf(&j, "[%.6f,%.6f]", x, y)
	}
	j.WriteString(`]}`)
	return c.String(), j.String()
}

// bulkBody is a CSV body of n rows of a dataset generator's data,
// written in the shortest round-trip form a bulk client posts.
func bulkBody(b *testing.B, name string, n, dim int) string {
	rows, err := dataset.Generate(name, n, dim, 9)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, rows); err != nil {
		b.Fatal(err)
	}
	return buf.String()
}

// BenchmarkParse times parseRowsFlat into a warmed dst across
// GOMAXPROCS workers: 256-row 2-d bodies in either format, and the
// bulk-sized CSV bodies of a 1 024×27 hep and a 4 096×8 tmy3 request
// (about 0.5 MB each). Run with -benchmem and -cpu 1,2: a small CSV
// body and any body at -cpu 1 parse serially without allocating, while
// a bulk body at -cpu 2 parses in blocks on both cores. The JSON leg
// pays encoding/json's per-row and per-coordinate allocations.
func BenchmarkParse(b *testing.B) {
	csvBody, jsonBody := benchBody(256)
	legs := []struct {
		name, contentType, body string
	}{
		{"csv", "text/csv", csvBody},
		{"json", "application/json", jsonBody},
		{"csv-hep-1024x27", "text/csv", bulkBody(b, "hep", 1024, 27)},
		{"csv-tmy3-4096x8", "text/csv", bulkBody(b, "tmy3", 4096, 8)},
	}
	for _, leg := range legs {
		body := []byte(leg.body)
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			dst := make([]float64, 0, 1<<15)
			workers := runtime.GOMAXPROCS(0)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := parseRowsFlat(leg.contentType, body, dst, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
