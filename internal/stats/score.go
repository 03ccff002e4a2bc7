package stats

// Confusion accumulates a binary-classification confusion matrix. The
// "positive" class for tKDC's accuracy evaluation (Figure 8) is the
// low-density class identified by the threshold, matching the paper:
// "Since p = 0.01, the classification problem identifies points under the
// threshold."
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against the ground truth.
func (c *Confusion) Add(predictedPositive, actualPositive bool) {
	switch {
	case predictedPositive && actualPositive:
		c.TP++
	case predictedPositive && !actualPositive:
		c.FP++
	case !predictedPositive && actualPositive:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP / (TP + FP), or 1 when no positives were predicted.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 1 when there were no actual positives.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when both
// are 0.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
