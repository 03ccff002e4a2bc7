package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"tkdc/internal/stats"
)

// TestTable3DatasetShapes pins the native shapes of every generator to
// the dimensionalities of Table 3.
func TestTable3DatasetShapes(t *testing.T) {
	cases := []struct {
		name string
		dim  int
	}{
		{"shuttle", 9},
		{"tmy3", 8},
		{"home", 10},
		{"hep", 27},
		{"sift", 128},
		{"mnist", 784},
	}
	for _, c := range cases {
		rows, err := Generate(c.name, 200, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != 200 {
			t.Errorf("%s: n = %d, want 200", c.name, len(rows))
		}
		if len(rows[0]) != c.dim {
			t.Errorf("%s: d = %d, want %d", c.name, len(rows[0]), c.dim)
		}
	}
	rows, err := Generate("gauss", 100, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 5 {
		t.Errorf("gauss d = %d, want 5", len(rows[0]))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("gauss", 0, 2, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Generate("gauss", 10, 0, 1); err == nil {
		t.Error("gauss d=0 should error")
	}
	if _, err := Generate("nope", 10, 2, 1); err == nil {
		t.Error("unknown name should error")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, info := range Catalog() {
		d := info.Dim
		if d == 0 {
			d = 3
		}
		a, err := Generate(info.Name, 50, d, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(info.Name, 50, d, 99)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: not deterministic at [%d][%d]", info.Name, i, j)
				}
			}
		}
		c, err := Generate(info.Name, 50, d, 100)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			for j := range a[i] {
				if a[i][j] != c[i][j] {
					same = false
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical data", info.Name)
		}
	}
}

func TestGeneratorsFinite(t *testing.T) {
	for _, info := range Catalog() {
		d := info.Dim
		if d == 0 {
			d = 4
		}
		rows, err := Generate(info.Name, 300, d, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: row %d col %d = %v", info.Name, i, j, v)
				}
			}
		}
	}
}

func TestGaussMomentsMatchStandardNormal(t *testing.T) {
	rows := Gauss(20000, 2, 3)
	for j := 0; j < 2; j++ {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r[j]
		}
		if m := stats.Mean(col); math.Abs(m) > 0.05 {
			t.Errorf("col %d mean = %v, want ≈0", j, m)
		}
		if s := stats.StdDev(col); math.Abs(s-1) > 0.05 {
			t.Errorf("col %d std = %v, want ≈1", j, s)
		}
	}
}

func TestShuttleIsMultiModal(t *testing.T) {
	rows := Shuttle(20000, 4)
	// Column 0 mixes clusters centered near 0, 40, -35, 10: variance far
	// exceeds any single cluster's scale (≤ 4).
	col := make([]float64, len(rows))
	for i, r := range rows {
		col[i] = r[0]
	}
	if s := stats.StdDev(col); s < 10 {
		t.Fatalf("shuttle col 0 std = %v; clusters not separated", s)
	}
}

func TestHEPHasHeavyTails(t *testing.T) {
	rows := HEP(30000, 5)
	col := make([]float64, len(rows))
	for i, r := range rows {
		col[i] = r[0]
	}
	// Excess kurtosis of a Student-t(5) mixture is clearly positive;
	// compute kurtosis = E[(x-μ)⁴]/σ⁴ and require > 3.5 (normal = 3).
	m := stats.Mean(col)
	s := stats.StdDev(col)
	sum4 := 0.0
	for _, v := range col {
		d := (v - m) / s
		sum4 += d * d * d * d
	}
	kurt := sum4 / float64(len(col))
	if kurt < 3.5 {
		t.Fatalf("hep kurtosis = %v, want heavy-tailed (> 3.5)", kurt)
	}
}

func TestSIFTNonNegative(t *testing.T) {
	rows := SIFT(500, 6)
	for i, r := range rows {
		for j, v := range r {
			if v < 0 {
				t.Fatalf("sift[%d][%d] = %v, want ≥ 0", i, j, v)
			}
		}
	}
}

func TestMNISTPixelRange(t *testing.T) {
	rows := MNIST(100, 7)
	nonzero := 0
	for i, r := range rows {
		for j, v := range r {
			if v < 0 || v > 255 {
				t.Fatalf("mnist[%d][%d] = %v outside [0, 255]", i, j, v)
			}
			if v > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("mnist images are all-black")
	}
}

func TestIris2DAndGalaxy2DShapes(t *testing.T) {
	iris := Iris2D(1000, 8)
	if len(iris) != 1000 || len(iris[0]) != 2 {
		t.Fatal("iris shape wrong")
	}
	gal := Galaxy2D(1000, 9)
	if len(gal) != 1000 || len(gal[0]) != 2 {
		t.Fatal("galaxy shape wrong")
	}
	for _, r := range gal {
		if r[0] < -10 || r[0] > 110 || r[1] < -10 || r[1] > 110 {
			t.Fatalf("galaxy point %v far outside the survey window", r)
		}
	}
}

func TestTakeColumns(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	got, err := TakeColumns(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 2 || got[1][1] != 5 {
		t.Fatalf("TakeColumns = %v", got)
	}
	if _, err := TakeColumns(rows, 0); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := TakeColumns(rows, 4); err == nil {
		t.Error("d>width should error")
	}
	if _, err := TakeColumns(nil, 1); err == nil {
		t.Error("empty should error")
	}
}

func TestPCAReduce(t *testing.T) {
	rows := MNIST(300, 11)
	red, err := PCAReduce(rows, 16, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 300 || len(red[0]) != 16 {
		t.Fatalf("PCAReduce shape = %dx%d, want 300x16", len(red), len(red[0]))
	}
	// Variance should concentrate in the leading component.
	lead := make([]float64, len(red))
	tail := make([]float64, len(red))
	for i, r := range red {
		lead[i] = r[0]
		tail[i] = r[15]
	}
	if stats.Variance(lead) <= stats.Variance(tail) {
		t.Fatal("leading PCA component does not dominate")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rows := [][]float64{{1.5, -2.25, 3e-10}, {0, 42, -1e6}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip rows = %d", len(got))
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("round trip [%d][%d] = %v, want %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

func TestReadCSVHeaderAndErrors(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("a,b\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][0] != 3 {
		t.Fatalf("header handling wrong: %v", got)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\nx,y\n")); err == nil {
		t.Error("non-numeric mid-file should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged rows should error")
	}
	// Blank lines are fine.
	got, err = ReadCSV(strings.NewReader("1,2\n\n3,4\n"))
	if err != nil || len(got) != 2 {
		t.Errorf("blank lines: got %v, %v", got, err)
	}
}

// TestParseCSVContract pins what ParseCSV promises its callers: rows
// append after whatever dst already holds, an error hands dst back at
// its input length, and line numbers count blank lines.
func TestParseCSVContract(t *testing.T) {
	dst := []float64{-1, -2}
	flat, n, dim, err := ParseCSV([]byte("x,y\n1,2\n\n3,4\n"), dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dim != 2 || len(flat) != 6 {
		t.Fatalf("n=%d dim=%d len=%d, want 2, 2, 6", n, dim, len(flat))
	}
	for i, want := range []float64{-1, -2, 1, 2, 3, 4} {
		if flat[i] != want {
			t.Fatalf("flat = %v, want the prefix then the rows", flat)
		}
	}

	for _, tc := range []struct{ body, err string }{
		{"1,2\n\n\nfoo,4\n", "dataset: line 4 is not numeric"},
		{"\nx,y\n1,2\n", "dataset: line 2 is not numeric"},
		{"1,2\r\n\r\n3,4,5\r\n", "dataset: line 3 has 3 columns, want 2"},
		{"x,y\n\n", "dataset: no data rows"},
	} {
		flat, n, dim, err := ParseCSV([]byte(tc.body), dst, 1)
		if err == nil || err.Error() != tc.err {
			t.Errorf("%q: err = %v, want %q", tc.body, err, tc.err)
		}
		if len(flat) != len(dst) || n != 0 || dim != 0 {
			t.Errorf("%q: error returned len=%d n=%d dim=%d, want the %d-value dst back", tc.body, len(flat), n, dim, len(dst))
		}
	}

	long := bytes.Repeat([]byte{' '}, csvLineLimit)
	long[0] = '7'
	if _, n, _, err := ParseCSV(long[:csvLineLimit-1], nil, 1); err != nil || n != 1 {
		t.Errorf("line one byte under the limit: n=%d err=%v, want one row", n, err)
	}
	if _, _, _, err := ParseCSV(long, nil, 1); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line at the limit: err = %v, want bufio.ErrTooLong", err)
	}
}

// TestParseCSVBlocks holds the block path to the serial parse at every
// block count from 2 to 6, whatever GOMAXPROCS is: a body that parses
// serially gives the same rows in blocks, and a body the serial parse
// rejects makes parseBlocks give up with dst at its input length, so
// that ParseCSV reports the serial error. Each fault, and a change of
// width, is planted at every line of a small body, so every block cut
// at every count falls right before and right after one: a later block
// that applied the header rule, or blocks of different widths that
// were joined, would show.
func TestParseCSVBlocks(t *testing.T) {
	const lines = 120
	rows := make([]string, lines)
	narrow := make([]string, lines)
	for i := range rows {
		rows[i] = fmt.Sprintf("%d,%g,-%d.5\n", i, float64(i)/7, i%13)
		narrow[i] = fmt.Sprintf("%d,%d\n", i, i%7)
	}
	var bodies []string
	for at := 0; at <= lines; at++ {
		head, tail := strings.Join(rows[:at], ""), strings.Join(rows[at:], "")
		for _, plant := range []string{
			"x,y,z\n", "\n\n \r\n", "1,2,3\r\n", "1,foo,3\n", "1,2\n", "1,2,3,4\n", "1,2,3,\n",
		} {
			bodies = append(bodies, head+plant+tail)
		}
		bodies = append(bodies, head+strings.Join(narrow[at:], ""))
	}
	clean := strings.Join(rows, "")
	bodies = append(bodies, clean+"1,2,3", clean+"1,2", strings.Repeat("\n", 500), clean+strings.Repeat(" \n", 300))
	prefix := []float64{-1}
	for bi, body := range bodies {
		want, wn, wdim, werr := ParseCSV([]byte(body), slices.Clone(prefix), 1)
		for g := 2; g <= 6; g++ {
			flat, n, dim, ok := parseBlocks([]byte(body), slices.Clone(prefix), g)
			if ok != (werr == nil) {
				t.Fatalf("body %d, %d blocks: ok=%v, serial error %v", bi, g, ok, werr)
			}
			if !ok {
				if len(flat) != 1 || flat[0] != -1 {
					t.Fatalf("body %d, %d blocks: gave up with %d values, want the dst prefix", bi, g, len(flat))
				}
				continue
			}
			if n != wn || dim != wdim || !slices.Equal(flat, want) {
				t.Fatalf("body %d, %d blocks: n=%d dim=%d, serial n=%d dim=%d, rows equal %v", bi, g, n, dim, wn, wdim, slices.Equal(flat, want))
			}
		}
	}
}

// TestParseCSVConcurrentBlocks runs block parses from several
// goroutines at once, so that -race sees the pooled block scratch that
// concurrent calls share: every call must return the serial parse's
// rows.
func TestParseCSVConcurrentBlocks(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&rows, "%d,%g\n", i, float64(i)/3)
	}
	body := []byte(rows.String())
	want, _, _, err := ParseCSV(body, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, _, ok := parseBlocks(body, nil, g)
				if !ok || !slices.Equal(got, want) {
					t.Errorf("%d blocks: ok=%v, rows equal %v", g, ok, slices.Equal(got, want))
					return
				}
			}
		}(2 + w)
	}
	wg.Wait()
}

func TestCatalogComplete(t *testing.T) {
	names := map[string]bool{}
	for _, info := range Catalog() {
		names[info.Name] = true
		if info.Description == "" || info.DefaultN == 0 {
			t.Errorf("%s: incomplete catalog entry", info.Name)
		}
	}
	for _, want := range []string{"gauss", "shuttle", "tmy3", "home", "hep", "sift", "mnist"} {
		if !names[want] {
			t.Errorf("catalog missing %s", want)
		}
	}
}
