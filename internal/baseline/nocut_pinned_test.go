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
		"gauss2/eps=0":    {0x4d54f7ebbbbb2718, 473200},
		"gauss2/eps=0.01": {0x14fb0afd088c92fb, 133530},
		"gauss2/eps=0.5":  {0xdb36a82233c0f3f0, 62397},
		"tmy3/eps=0":      {0x8d4fcd212a629480, 477200},
		"tmy3/eps=0.01":   {0x0ed4d491f27dcd93, 167515},
		"tmy3/eps=0.5":    {0x52849bd4389bfedb, 103120},
		"hep27/eps=0":     {0x91d64e04f6a20acd, 474000},
		"hep27/eps=0.01":  {0x1be07fc97d4594f8, 340311},
		"hep27/eps=0.5":   {0x2502b5f9de9d315c, 292505},
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
