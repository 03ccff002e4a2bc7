package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllFigureRunnersTinyScale exercises every experiment runner end to
// end at the smallest sizes their floors allow, verifying row counts and
// that every measured throughput cell parses as a positive number. The
// full-scale record runs live in cmd/tkdc-bench.
func TestAllFigureRunnersTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests skipped in -short mode")
	}
	opts := Options{Scale: 0.0001, MaxQueries: 100, Seed: 7}

	cases := []struct {
		id      string
		run     func(Options) ([]Table, error)
		minRows int
	}{
		{"fig9", Figure9, 2},
		{"fig11", Figure11, 6},
		{"fig13", Figure13, 7},
		{"fig15", Figure15, 7},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			tables, err := c.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", c.id)
			}
			rows := 0
			for _, tbl := range tables {
				rows += len(tbl.Rows)
				for _, row := range tbl.Rows {
					for ci, cell := range row {
						if ci == 0 || cell == "-" {
							continue
						}
						if v := parseRate(cell); v <= 0 {
							t.Fatalf("%s: non-positive cell %q in row %v", c.id, cell, row)
						}
					}
				}
			}
			if rows < c.minRows {
				t.Fatalf("%s: %d rows across %d tables, want ≥ %d", c.id, rows, len(tables), c.minRows)
			}
		})
	}
}

// parseRate reverses fmtRate's compaction.
func parseRate(s string) float64 {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, strings.TrimSuffix(s, "k")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return -1
	}
	return v * mult
}

func TestFmtRate(t *testing.T) {
	cases := map[float64]string{
		6_360_000: "6.36M",
		55_200:    "55.2k",
		86.34:     "86.3",
		2.64:      "2.64",
		0.12:      "0.12",
	}
	for v, want := range cases {
		if got := fmtRate(v); got != want {
			t.Errorf("fmtRate(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestParseRateRoundTrip(t *testing.T) {
	for _, v := range []float64{1, 55.2, 1234, 55_200, 6_360_000} {
		got := parseRate(fmtRate(v))
		if got < v*0.95 || got > v*1.05 {
			t.Errorf("round trip %v -> %q -> %v", v, fmtRate(v), got)
		}
	}
}
