package baseline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"tkdc/internal/dataset"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// TestNoCutPinnedBits pins nocut's answers bit for bit: an FNV-1a digest
// of every query's Bounds (fl, fu) and the Kernels() count they cost, on
// gauss d=2, tmy3 d=8 and hep d=27 at eps 0 (exact), 0.01 (the paper's
// setting) and 0.5. The queries are 100 training rows and 100 held-out
// rows from the same generator. A change to the traversal nocut runs must
// leave every constant here untouched or own the diff.
func TestNoCutPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64; other architectures may fuse multiply-adds and round differently")
	}
	sets := []struct {
		name string
		rows func(n int, seed int64) [][]float64
	}{
		{"gauss2", func(n int, seed int64) [][]float64 { return dataset.Gauss(n, 2, seed) }},
		{"tmy3", dataset.TMY3},
		{"hep27", dataset.HEP},
	}
	want := map[string]struct {
		digest  uint64
		kernels int64
	}{
		"gauss2/eps=0":    {0x8169b3386a89d771, 473200},
		"gauss2/eps=0.01": {0x580716c2425772a5, 133530},
		"gauss2/eps=0.5":  {0x1e688fa9f7b29a1c, 62397},
		"tmy3/eps=0":      {0xdedbb071762a795d, 477200},
		"tmy3/eps=0.01":   {0xf1f19796b78492f8, 167515},
		"tmy3/eps=0.5":    {0xc75923a01e665ab9, 103120},
		"hep27/eps=0":     {0x22b332a88109cbfd, 474000},
		"hep27/eps=0.01":  {0x52494a864b94880d, 346693},
		"hep27/eps=0.5":   {0x80f776f1fac2dff9, 298979},
	}
	for _, set := range sets {
		pts, err := points.FromRows(set.rows(2000, 1))
		if err != nil {
			t.Fatal(err)
		}
		queries := append(pts.Rows()[:100:100], set.rows(100, 2)...)
		h, err := kernel.ScottBandwidths(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := kernel.NewGaussian(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.01, 0.5} {
			name := fmt.Sprintf("%s/eps=%g", set.name, eps)
			nc, err := NewNoCut(pts, kern, eps)
			if err != nil {
				t.Fatal(err)
			}
			d := fnv.New64a()
			var buf [8]byte
			for _, q := range queries {
				fl, fu := nc.Bounds(q)
				for _, v := range []float64{fl, fu} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					d.Write(buf[:])
				}
			}
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: no pin; got digest %#x, kernels %d", name, d.Sum64(), nc.Kernels())
				continue
			}
			if d.Sum64() != w.digest || nc.Kernels() != w.kernels {
				t.Errorf("%s: digest %#x, kernels %d; want %#x, %d", name, d.Sum64(), nc.Kernels(), w.digest, w.kernels)
			}
		}
	}
}
