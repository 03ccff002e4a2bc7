// Package core implements tKDC, thresholded kernel density classification
// (Gan & Bailis, SIGMOD 2017): Algorithm 1 (training and classification),
// Algorithm 2 (BoundDensity with the threshold and tolerance pruning
// rules), and Algorithm 3 (the bootstrapped quantile-threshold bound),
// plus the grid and equi-width-tree optimizations of Section 3.7.
package core

import (
	"fmt"
	"math"

	"tkdc/internal/kdtree"
	"tkdc/internal/telemetry"
)

// KernelFamily names the kernel of the density estimate. Every snapshot
// records it in Config.Kernel; KernelGaussian is the only valid value.
type KernelFamily int

// KernelGaussian is the paper's Gaussian product kernel (Equation 2).
const KernelGaussian KernelFamily = 0

// Config carries the density-classification task parameters of Table 1
// together with the implementation knobs of Sections 3.5 and 3.7. The
// zero value is not valid; start from DefaultConfig.
type Config struct {
	// P is the quantile classification rate p: the threshold t(p) is the
	// p-quantile of the (self-contribution-corrected) training densities.
	P float64
	// Epsilon is the multiplicative classification error ε: behaviour is
	// undefined only for densities within ±ε·t of the threshold.
	Epsilon float64
	// Delta is the acceptable failure probability δ of the sampled
	// threshold bound.
	Delta float64
	// BandwidthFactor is the scale factor b applied to Scott's rule.
	BandwidthFactor float64
	// Kernel names the kernel family. KernelGaussian, the zero value, is
	// the only one; validate rejects any other, so a snapshot recording
	// a family this release cannot evaluate fails to load.
	Kernel KernelFamily

	// Backend selects where Algorithm 2's refinement loop starts:
	// BackendAuto (pick by dimension — tree for d ≤ AutoTreeMaxDim,
	// sampling above), BackendTree (at the k-d tree's root), or
	// BackendSampling (the near-first start: at the frontier a
	// DEANN-style near phase leaves; the tag predates it, and nothing is
	// sampled). Both certify every answer. Empty means BackendAuto.
	Backend string

	// LeafSize caps k-d tree leaf occupancy (kdtree.DefaultLeafSize if 0).
	LeafSize int
	// Split selects the k-d tree split rule. The paper's tKDC default is
	// the trimmed-midpoint "equi-width" rule.
	Split kdtree.SplitRule

	// DisableThresholdRule turns off the threshold pruning rule
	// (Equation 9) — the heart of tKDC — for factor/lesion analysis.
	DisableThresholdRule bool
	// DisableToleranceRule turns off the tolerance pruning rule
	// (Equation 8) for factor/lesion analysis.
	DisableToleranceRule bool
	// DisableGrid turns off the hypergrid inlier cache.
	DisableGrid bool
	// MaxGridDim is the largest dimensionality at which the grid is kept
	// (the paper disables it above 4). Defaults to 4 if 0.
	MaxGridDim int

	// Bootstrap parameters of Algorithm 3. Zero values take the paper's
	// defaults: R0 = 200, S0 = 20000, HBackoff = 4, HBuffer = 1.5,
	// HGrowth = 4.
	R0       int
	S0       int
	HBackoff float64
	HBuffer  float64
	HGrowth  float64

	// Seed drives the sampling in threshold bootstrapping; training is
	// fully deterministic for a fixed seed.
	Seed int64

	// Workers sets the goroutine budget for every fan-out in the stack:
	// the batch APIs on the serving side (ClassifyAll, ClassifyFlat and
	// ScoreFlat, which answer /classify), and the whole training
	// pipeline — k-d tree construction, bootstrap scoring (Algorithm 3),
	// the hypergrid fill, and the threshold-refinement density pass.
	// Trained models are bit-identical at any worker count. Values below
	// 2 mean single-threaded, matching the paper's prototype; the count
	// is clamped to a small multiple of GOMAXPROCS.
	Workers int

	// Recorder receives per-query telemetry samples (latency, kernel
	// evaluations, nodes visited), per-query traces and training phase
	// spans. Nil, or a nil *telemetry.Registry, means telemetry is off:
	// the query path performs no timing calls. Point it at a
	// *telemetry.Registry to collect latency and work histograms, and
	// attach a flight recorder to that registry for traces. The
	// recorder is runtime wiring, not model state — Save does not
	// persist it, and Load starts with telemetry off (see
	// Classifier.SetRecorder).
	Recorder telemetry.Recorder
}

// DefaultConfig returns the parameter defaults of Table 1: p = 0.01,
// ε = 0.01, δ = 0.01, b = 1, Gaussian kernel, equi-width tree, grid
// enabled up to 4 dimensions.
func DefaultConfig() Config {
	return Config{
		P:               0.01,
		Epsilon:         0.01,
		Delta:           0.01,
		BandwidthFactor: 1,
		Kernel:          KernelGaussian,
		Backend:         BackendAuto,
		Split:           kdtree.SplitEquiWidth,
		MaxGridDim:      4,
		R0:              200,
		S0:              20000,
		HBackoff:        4,
		HBuffer:         1.5,
		HGrowth:         4,
	}
}

// normalized returns a copy with zero-valued knobs replaced by defaults.
func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.Backend == "" {
		c.Backend = BackendAuto
	}
	if c.MaxGridDim == 0 {
		c.MaxGridDim = d.MaxGridDim
	}
	if c.R0 == 0 {
		c.R0 = d.R0
	}
	if c.S0 == 0 {
		c.S0 = d.S0
	}
	if c.HBackoff == 0 {
		c.HBackoff = d.HBackoff
	}
	if c.HBuffer == 0 {
		c.HBuffer = d.HBuffer
	}
	if c.HGrowth == 0 {
		c.HGrowth = d.HGrowth
	}
	return c
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// validate rejects out-of-range parameters.
func (c Config) validate() error {
	switch {
	case math.IsNaN(c.P) || c.P <= 0 || c.P >= 1:
		return fmt.Errorf("core: quantile P = %v must be in (0, 1)", c.P)
	case !finite(c.Epsilon) || c.Epsilon <= 0:
		return fmt.Errorf("core: Epsilon = %v must be positive and finite", c.Epsilon)
	case math.IsNaN(c.Delta) || c.Delta <= 0 || c.Delta >= 1:
		return fmt.Errorf("core: Delta = %v must be in (0, 1)", c.Delta)
	case math.IsNaN(c.BandwidthFactor) || c.BandwidthFactor <= 0:
		return fmt.Errorf("core: BandwidthFactor = %v must be positive", c.BandwidthFactor)
	case c.R0 < 1:
		return fmt.Errorf("core: R0 = %d must be at least 1", c.R0)
	case c.S0 < 1:
		return fmt.Errorf("core: S0 = %d must be at least 1", c.S0)
	case !finite(c.HBackoff) || c.HBackoff <= 1:
		return fmt.Errorf("core: HBackoff = %v must be finite and exceed 1", c.HBackoff)
	case !finite(c.HBuffer) || c.HBuffer < 1:
		return fmt.Errorf("core: HBuffer = %v must be finite and at least 1", c.HBuffer)
	case !finite(c.HGrowth) || c.HGrowth <= 1:
		return fmt.Errorf("core: HGrowth = %v must be finite and exceed 1", c.HGrowth)
	case c.Kernel != KernelGaussian:
		return fmt.Errorf("core: unknown kernel family %d", c.Kernel)
	}
	if !validBackend(c.Backend) {
		return backendError(c.Backend)
	}
	return nil
}
