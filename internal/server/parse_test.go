package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
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
	flat, n, dim, err := parseRowsFlat(contentType, body, []float64{prefix})
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
// table of bodies.
func TestParseRowsFlatEquivalence(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			checkParseRowsFlat(t, tc.contentType, []byte(tc.body))
		})
	}
}

// FuzzParseRowsFlat runs the same comparison on generated bodies; the
// table's bodies are its seeds, so they also run under plain go test.
func FuzzParseRowsFlat(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.contentType, []byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		checkParseRowsFlat(t, contentType, body)
	})
}

// TestParseRowsFlatReusesDst pins the pooling contract on a warmed
// buffer: a CSV body parses in place into dst without allocating,
// whatever its line ends, blank lines or Unicode spaces. Skipping a
// header allocates only the strconv.NumError that rejects its field.
func TestParseRowsFlatReusesDst(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		maxAllocs  float64
	}{
		{"plain", "1,2\n3,4\n", 0},
		{"crlf", "1,2\r\n3,4\r\n", 0},
		{"blank lines", "\n1,2\n\n3,4\n\n", 0},
		{"non-ascii space", "\u00a01,2\n3,\u20034\n", 0},
		{"header", "x,y\n1,2\n3,4\n", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			dst := make([]float64, 0, 64)
			flat, n, dim, err := parseRowsFlat("text/csv", body, dst)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 || dim != 2 {
				t.Fatalf("n=%d dim=%d, want 2,2", n, dim)
			}
			if &flat[0] != &dst[:1][0] {
				t.Fatal("flat does not alias dst: the parse allocated a new buffer")
			}
			allocs := testing.AllocsPerRun(100, func() {
				_, _, _, _ = parseRowsFlat("text/csv", body, dst)
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

// BenchmarkParse times parseRowsFlat on 256-row bodies into a warmed
// dst. Run with -benchmem: the CSV leg allocates nothing, while the
// JSON leg pays encoding/json's per-row and per-coordinate allocations.
func BenchmarkParse(b *testing.B) {
	csvBody, jsonBody := benchBody(256)
	legs := []struct {
		name, contentType, body string
	}{
		{"csv", "text/csv", csvBody},
		{"json", "application/json", jsonBody},
	}
	for _, leg := range legs {
		body := []byte(leg.body)
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]float64, 0, 1024)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := parseRowsFlat(leg.contentType, body, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
