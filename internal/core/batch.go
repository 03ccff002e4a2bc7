package core

import (
	"fmt"
	"sync"
)

// DualTreeMinBatch is the batch size at which ClassifyFlatAuto switches
// from the per-query sweep to the dual-tree pass. Below it the grouping
// machinery (query boxes, group heap resets, recursive splits) costs
// more than the tree-walk overhead it amortizes; at and above it the
// batch carries enough spatial redundancy for group certification to
// win. The perfbench bulk-tmy3 workload (4096-row requests) is the one
// that runs the dual-tree pass.
const DualTreeMinBatch = 256

// ValidateFlat checks a flat row-major batch of n queries: the buffer
// must hold exactly n·dim coordinates and every row must pass the same
// per-query validation Score applies. Error text mirrors ClassifyAll's
// per-index wrapping so callers can surface the offending row.
func (c *Classifier) ValidateFlat(flat []float64, n int) error {
	if n < 0 {
		return fmt.Errorf("core: negative batch size %d", n)
	}
	if len(flat) != n*c.dim {
		return fmt.Errorf("core: flat batch has %d coordinates, want %d (%d rows of dimension %d)", len(flat), n*c.dim, n, c.dim)
	}
	for i := 0; i < n; i++ {
		if err := c.checkQuery(flat[i*c.dim : (i+1)*c.dim]); err != nil {
			return fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	return nil
}

// forEachRowChunk runs body over [0, n) in index chunks, fanning out
// across the classifier's effective worker budget: single-threaded below
// two workers or when the batch is too small to amortize goroutine
// startup. Every batch entry point (ClassifyAll, ClassifyFlat,
// ScoreFlat) shares this policy.
func (c *Classifier) forEachRowChunk(n int, body func(lo, hi int)) {
	workers := c.effectiveWorkers()
	if workers < 2 || n < 2*workers {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ClassifyFlat labels a batch of n queries stored in flat row-major
// form (query i at flat[i*dim : (i+1)*dim]) with the per-query sweep,
// chunked across Config.Workers goroutines. Each row goes through
// exactly the decision procedure Score applies, so results are
// bit-identical to per-row Score calls at every worker count and batch
// composition — under both density backends (the sampling backend
// derives its randomness per query point, not per goroutine).
func (c *Classifier) ClassifyFlat(flat []float64, n int) ([]Label, error) {
	if err := c.ValidateFlat(flat, n); err != nil {
		return nil, err
	}
	return c.classifyFlatChecked(flat, n), nil
}

func (c *Classifier) classifyFlatChecked(flat []float64, n int) []Label {
	out := make([]Label, n)
	c.forEachRowChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.scoreChecked(flat[i*c.dim : (i+1)*c.dim]).Label
		}
	})
	return out
}

// ScoreFlat scores a flat row-major batch of n queries, returning the
// full per-query results (labels plus the density bounds behind them).
// Like ClassifyFlat it is a chunked parallel sweep over scoreChecked,
// bit-identical to per-row Score calls.
func (c *Classifier) ScoreFlat(flat []float64, n int) ([]Result, error) {
	if err := c.ValidateFlat(flat, n); err != nil {
		return nil, err
	}
	out := make([]Result, n)
	c.forEachRowChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.scoreChecked(flat[i*c.dim : (i+1)*c.dim])
		}
	})
	return out, nil
}

// ClassifyFlatAuto labels a flat batch, selecting the execution
// strategy by batch size: batches of at least DualTreeMinBatch rows on
// the tree backend run the dual-tree group pass (one traversal can
// answer a whole spatial cluster of queries — label-compatible under
// the Problem 1 ε-contract, and deterministic for a given row set);
// smaller batches, and every batch on the sampling backend, run the
// bit-identical per-query parallel sweep. The selection depends only on
// the batch itself, so the same rows execute identically whichever
// caller submits them.
func (c *Classifier) ClassifyFlatAuto(flat []float64, n int) ([]Label, error) {
	if err := c.ValidateFlat(flat, n); err != nil {
		return nil, err
	}
	if c.backend == BackendTree && n >= DualTreeMinBatch {
		return c.classifyDualTreeFlat(flat, n), nil
	}
	return c.classifyFlatChecked(flat, n), nil
}
