package core

import "fmt"

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

// ClassifyFlat labels a batch of n queries stored in flat row-major
// form (query i at flat[i*dim : (i+1)*dim]) with the per-query sweep,
// chunked across Config.Workers goroutines. Each row goes through
// exactly the decision procedure Score applies, so results are
// bit-identical to per-row Score calls at every worker count and batch
// size — under both density backends (the sampling backend derives its
// randomness per query point, not per goroutine).
func (c *Classifier) ClassifyFlat(flat []float64, n int) ([]Label, error) {
	if err := c.ValidateFlat(flat, n); err != nil {
		return nil, err
	}
	out := make([]Label, n)
	forEachChunk(c.cfg.Workers, n, func(next func() (int, int), _ *QueryStats) {
		for lo, hi := next(); lo < hi; lo, hi = next() {
			for i := lo; i < hi; i++ {
				out[i] = c.scoreChecked(flat[i*c.dim : (i+1)*c.dim]).Label
			}
		}
	})
	return out, nil
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
	forEachChunk(c.cfg.Workers, n, func(next func() (int, int), _ *QueryStats) {
		for lo, hi := next(); lo < hi; lo, hi = next() {
			for i := lo; i < hi; i++ {
				out[i] = c.scoreChecked(flat[i*c.dim : (i+1)*c.dim])
			}
		}
	})
	return out, nil
}
