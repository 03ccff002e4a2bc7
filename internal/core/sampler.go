package core

// The sampling backend is a sampled far-field kernel density estimator
// for high-dimensional data, in the style of DEANN (Karppa, Aumüller &
// Pagh): the density at a query splits into an exact sum over a near
// field resolved by a budgeted k-d tree descent, plus a random-sampling
// estimate of the unresolved far field.
//
// The near phase is a best-first traversal of the kdtree arena ordered
// by (minimum scaled distance, node count): nodes entirely within the
// near radius — the scaled distance where the kernel has decayed to
// samplerNearCut·K(0) — and leaves touching it are summed exactly; nodes
// entirely beyond the kernel's support contribute an exact zero and are
// dropped. The traversal expands at most samplerNearNodes interior
// nodes, so its cost stays bounded even in high dimensions, where
// distance bounds degenerate and an uncapped range query would scan
// every point. The frontier left when the traversal stops becomes the
// far field: a set of disjoint row ranges, each carrying the certified
// per-point value bounds K(dmax) ≤ k ≤ K(dmin) of its node.
//
// The near sum and the far field's bounds give a certified envelope
// [(sumNear + Σ count·K(dmax))/n, (sumNear + Σ count·K(dmin))/n], and
// the stopping rules of tKDC's Algorithm 2 are tested on it at every
// step, as the tree traversal tests its bounds: the near phase stops as
// soon as its lower bound clears the threshold (the query's own leaf
// usually does, since it holds the self term K(0)/n), and the far field
// is sampled only when the envelope decides nothing.
//
// The far field is estimated by uniform with-replacement sampling over
// its rows (not the whole dataset, so near-field mass is never double
// counted). The estimate carries an empirical-Bernstein confidence band:
// with probability at least 1−δ the true far-field mean lies within
// sd·sqrt(2L/m) + 3·R·L/m of the sample mean, where m is the sample
// count, R the largest per-node value bound among far ranges, and
// L = ln(3/δ). The band is variance-derived, so it collapses quickly
// when the far field is homogeneous (the usual high-dimensional case)
// and still covers heavy skew through the R/m term. Unlike the tree
// traversal's bounds the band is probabilistic, not certified; the
// certified envelope always holds and clamps the band.
//
// Sampling is deterministically seeded per query — the seed mixes
// Config.Seed with the query coordinates — so retrained models and
// serving replicas produce identical estimates for identical
// (data, config, query) triples.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/telemetry"
)

// The sampling backend's tuning. Snapshots record the first three
// (samplerParams).
const (
	// samplerNearCut is the relative kernel value that bounds the near
	// field: the near radius is the scaled distance where the kernel
	// falls to samplerNearCut·K(0).
	samplerNearCut = 1e-3
	// samplerMinSamples is the initial far-field sample size.
	samplerMinSamples = 256
	// samplerMaxSamples caps the far-field sample budget per query; the
	// budget doubles from samplerMinSamples while no stopping rule fires.
	samplerMaxSamples = 4096
	// samplerNearNodes caps the interior-node expansions of the near
	// phase per query.
	samplerNearNodes = 64
)

// nearItem is one arena node awaiting near-phase processing.
type nearItem struct {
	dmin, dmax float64
	id         int32
	count      int32
}

// nearHeap is a min-heap on (dmin, count): closest node first, smallest
// first among ties, which drives the traversal down the query's own
// containment path before spending budget on sibling regions.
type nearHeap struct {
	items []nearItem
}

func (h *nearHeap) len() int { return len(h.items) }

func nearLess(a, b nearItem) bool {
	if a.dmin != b.dmin {
		return a.dmin < b.dmin
	}
	return a.count < b.count
}

func (h *nearHeap) push(it nearItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nearLess(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *nearHeap) pop() nearItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && nearLess(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && nearLess(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// farRange is one unresolved node's row range in the far-field
// population. cum is the number of far rows preceding the range, so a
// uniform index into the population maps to a row by binary search.
type farRange struct {
	lo, hi int32
	cum    int
}

// farField is the sampling population one near phase leaves behind.
type farField struct {
	ranges []farRange
	count  int     // total far rows
	rmax   float64 // certified bound on any far point's kernel value
	uSum   float64 // Σ count·K(dmin): certified far-field upper mass
	lSum   float64 // Σ count·K(dmax): certified far-field lower mass
}

// sampler is the sampling backend: it estimates kernel densities over
// one immutable index by a budgeted exact near phase plus seeded
// far-field sampling, and accounts its work into QueryStats as the tree
// backend does: PointKernels are near-field sums plus far-field samples,
// BoundKernels the kernels at node distance bounds, NodesVisited the
// arena nodes popped during the near phase, and SamplingRounds and
// SampledPoints the far-field rounds and the draws inside them. With
// stats.Trace set it files one "near" stage for the budgeted descent,
// one "far/round-N" stage per sampling round with the running Bernstein
// band, or an "exact" or "far/exact" stage when a sweep replaced
// sampling; the untraced path does no timing or bookkeeping for them.
//
// A sampler is not safe for concurrent use; the classifier pools one
// per goroutine (the underlying tree and kernel are shared and
// immutable).
type sampler struct {
	tree  *kdtree.Tree
	kern  *kernel.Gaussian
	invH2 []float64
	n     float64

	nearSq  float64 // scaled squared radius of the exact near field
	logTerm float64 // ln(3/δ) of the empirical-Bernstein band

	seed             int64
	nearNodes        int // samplerNearNodes; tests lower it to force a far field
	disableThreshold bool
	disableTolerance bool

	src  rand.Source64
	rng  *rand.Rand
	heap nearHeap
	far  farField
}

// newSampler builds the sampling backend over a built tree and its
// kernel. Seed, Delta and the rule switches come from cfg, which must be
// validated (Delta in (0, 1)).
func newSampler(tree *kdtree.Tree, kern *kernel.Gaussian, cfg Config) *sampler {
	src := rand.NewSource(0).(rand.Source64)
	return &sampler{
		tree:             tree,
		kern:             kern,
		invH2:            kern.InvBandwidthsSq(),
		n:                float64(tree.Size),
		nearSq:           nearRadiusSq(kern, samplerNearCut),
		logTerm:          math.Log(3 / cfg.Delta),
		seed:             cfg.Seed,
		nearNodes:        samplerNearNodes,
		disableThreshold: cfg.DisableThresholdRule,
		disableTolerance: cfg.DisableToleranceRule,
		src:              src,
		rng:              rand.New(src),
	}
}

// nearRadiusSq finds the smallest scaled squared distance at which the
// kernel has decayed to cut·K(0), by bisection on the monotone kernel
// between 0 and its truncation radius.
func nearRadiusSq(kern *kernel.Gaussian, cut float64) float64 {
	target := cut * kern.AtZero()
	hi := kern.SupportSqRadius()
	lo := 0.0
	for i := 0; i < 64 && hi-lo > 1e-9*(1+hi); i++ {
		mid := 0.5 * (lo + hi)
		if kern.FromScaledSqDist(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// querySeed mixes the base seed with the query coordinates (splitmix64
// finalization over the float bits) so sampling is deterministic per
// (seed, query) and decorrelated across queries.
func querySeed(seed int64, x []float64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// nearPhase runs the budgeted best-first traversal. It returns the exact
// kernel sum over every resolved row and leaves s.far describing the
// unresolved remainder. Rows in nodes wholly beyond the kernel's support
// contribute an exact zero and appear in neither.
//
// A finite tu arms Algorithm 2's threshold rule on the HIGH side: the
// traversal stops as soon as its certified lower bound exceeds tu (see
// resolve), and the frontier it leaves joins the far field, whose
// envelope then decides the query without a sample.
func (s *sampler) nearPhase(x []float64, tu float64, stats *QueryStats) (sumNear float64) {
	var stageStart time.Time
	var nodes0, pts0, bounds0 int64
	if stats.Trace != nil {
		stageStart = time.Now()
		nodes0, pts0, bounds0 = stats.NodesVisited, stats.PointKernels, stats.BoundKernels
	}
	depth := 0

	t := s.tree
	s.heap.items = s.heap.items[:0]
	s.far.ranges = s.far.ranges[:0]
	s.far.count = 0
	s.far.rmax = 0
	s.far.uSum = 0
	s.far.lSum = 0

	// Greedy descent to the leaf nearest the query first, pushing the
	// off-path sibling at each level. Near the data's center the shallow
	// boxes all have dmin ≈ 0 and pure best-first order degenerates into
	// a breadth-first sweep of the tree's top, exhausting the budget
	// before any leaf resolves; the descent guarantees the query's own
	// leaf — and with it a training row's own kernel contribution — is
	// summed exactly for O(depth) extra bound evaluations, at any budget.
	decided := false
	dmin, dmax := t.BoundsSqDist(0, x, s.invH2)
	it := nearItem{dmin: dmin, dmax: dmax, id: 0, count: int32(t.Size)}
	for {
		stats.NodesVisited++
		depth++
		if it.dmin > s.nearSq {
			s.addFar(it, stats)
			break
		}
		m := &t.Meta[it.id]
		if it.dmax <= s.nearSq || m.Left < 0 {
			decided = s.resolve(x, it, tu, &sumNear, stats)
			break
		}
		lmin, lmax := t.BoundsSqDist(m.Left, x, s.invH2)
		rmin, rmax := t.BoundsSqDist(m.Right, x, s.invH2)
		l := nearItem{dmin: lmin, dmax: lmax, id: m.Left, count: int32(t.Count(m.Left))}
		r := nearItem{dmin: rmin, dmax: rmax, id: m.Right, count: int32(t.Count(m.Right))}
		if nearLess(l, r) {
			s.heap.push(r)
			it = l
		} else {
			s.heap.push(l)
			it = r
		}
	}

	budget := s.nearNodes
	for !decided && s.heap.len() > 0 {
		it := s.heap.pop()
		stats.NodesVisited++
		if it.dmin > s.nearSq {
			s.addFar(it, stats)
			continue
		}
		m := &t.Meta[it.id]
		if it.dmax <= s.nearSq || m.Left < 0 {
			// Wholly inside the near radius, or a leaf touching it:
			// one contiguous exact sweep.
			decided = s.resolve(x, it, tu, &sumNear, stats)
			continue
		}
		if budget == 0 {
			s.addFar(it, stats)
			continue
		}
		budget--
		for _, child := range [2]int32{m.Left, m.Right} {
			cmin, cmax := t.BoundsSqDist(child, x, s.invH2)
			s.heap.push(nearItem{dmin: cmin, dmax: cmax, id: child, count: int32(t.Count(child))})
		}
	}
	// A decided traversal leaves its frontier unresolved.
	for _, it := range s.heap.items {
		s.addFar(it, stats)
	}
	if stats.Trace != nil {
		stats.Trace.AddStage(telemetry.TraceStage{
			Name:     "near",
			Duration: time.Since(stageStart),
			Nodes:    stats.NodesVisited - nodes0,
			Points:   stats.PointKernels - pts0,
			Bounds:   stats.BoundKernels - bounds0,
			Depth:    depth,
			Budget:   s.nearNodes - budget,
		})
	}
	return sumNear
}

// resolve sums a node the near phase resolves exactly (one wholly inside
// the near radius, or a leaf touching it) into *sumNear, and reports
// whether the near phase's certified lower bound now exceeds tu. A
// finite tu is first tested against the lower bound the node's own
// K(dmax) mass adds: when that already clears tu the node is left
// unsummed and joins the far field. Testing before the sum matters at
// low d, where the first node inside the near radius can hold thousands
// of rows.
func (s *sampler) resolve(x []float64, it nearItem, tu float64, sumNear *float64, stats *QueryStats) bool {
	if !math.IsInf(tu, 1) {
		lower := float64(it.count) * s.kern.FromScaledSqDist(it.dmax)
		stats.BoundKernels++
		if (*sumNear+lower)/s.n > tu {
			s.addFar(it, stats)
			return true
		}
	}
	m := &s.tree.Meta[it.id]
	*sumNear += s.kern.Sum(x, s.tree.Pts.Slab(int(m.Lo), int(m.Hi)))
	stats.PointKernels += int64(it.count)
	return *sumNear/s.n > tu
}

// addFar moves an unresolved node into the far-field population with its
// certified per-point value bounds K(dmin) and K(dmax). A zero upper
// bound means every point in the node lies beyond the kernel's support —
// an exact zero contribution, excluded from the population entirely.
func (s *sampler) addFar(it nearItem, stats *QueryStats) {
	k := s.kern.FromScaledSqDist(it.dmin)
	stats.BoundKernels++
	if k == 0 {
		return
	}
	if k > s.far.rmax {
		s.far.rmax = k
	}
	m := &s.tree.Meta[it.id]
	s.far.ranges = append(s.far.ranges, farRange{lo: m.Lo, hi: m.Hi, cum: s.far.count})
	s.far.count += int(it.count)
	s.far.uSum += float64(it.count) * k
	s.far.lSum += float64(it.count) * s.kern.FromScaledSqDist(it.dmax)
	stats.BoundKernels++
}

// farRow maps a uniform index in [0, far.count) to a row index of the
// tree's reordered point buffer by binary search over the range table.
func (s *sampler) farRow(u int) int {
	ranges := s.far.ranges
	lo, hi := 0, len(ranges)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ranges[mid].cum <= u {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	r := ranges[lo]
	return int(r.lo) + (u - r.cum)
}

// exactFar sums the far-field kernel exactly over every range — the
// fallback when the population is too small for sampling to pay off, or
// when a caller demands precision the sample budget cannot deliver.
func (s *sampler) exactFar(x []float64, stats *QueryStats) float64 {
	var stageStart time.Time
	var pts0 int64
	if stats.Trace != nil {
		stageStart = time.Now()
		pts0 = stats.PointKernels
	}
	t := s.tree
	sum := 0.0
	for _, r := range s.far.ranges {
		sum += s.kern.Sum(x, t.Pts.Slab(int(r.lo), int(r.hi)))
		stats.PointKernels += int64(r.hi - r.lo)
	}
	if stats.Trace != nil {
		stats.Trace.AddStage(telemetry.TraceStage{
			Name:     "far/exact",
			Duration: time.Since(stageStart),
			Points:   stats.PointKernels - pts0,
		})
	}
	return sum
}

// farState is the Welford accumulator of the far-field sample.
type farState struct {
	m    int
	mean float64
	m2   float64
}

// sampleTo draws far-field rows uniformly with replacement until the
// accumulator holds target values.
func (s *sampler) sampleTo(st *farState, x []float64, target int, stats *QueryStats) {
	for st.m < target {
		row := s.tree.Pts.Row(s.farRow(s.rng.Intn(s.far.count)))
		v := s.kern.FromScaledSqDist(kernel.ScaledSqDist(x, row, s.invH2))
		stats.PointKernels++
		st.m++
		d := v - st.mean
		st.mean += d / float64(st.m)
		st.m2 += d * (v - st.mean)
	}
}

// bounds converts the near sum and the far-field sample into density
// bounds and a point estimate. est is the unbiased split estimate; fl and
// fu are the empirical-Bernstein band around it, clamped into the
// certified envelope [flCert, fuCert].
func (s *sampler) bounds(sumNear, flCert, fuCert float64, st *farState) (fl, fu, est float64) {
	frac := float64(s.far.count) / s.n
	est = sumNear/s.n + frac*st.mean
	variance := 0.0
	if st.m > 1 {
		variance = st.m2 / float64(st.m-1)
	}
	m := float64(st.m)
	band := frac * (math.Sqrt(2*variance*s.logTerm/m) + 3*s.far.rmax*s.logTerm/m)
	fl = est - band
	fu = est + band
	if fl < flCert {
		fl = flCert
	}
	if fu > fuCert {
		fu = fuCert
	}
	if fl > fu {
		mid := 0.5 * (fl + fu)
		fl, fu = mid, mid
	}
	if est < fl {
		est = fl
	}
	if est > fu {
		est = fu
	}
	return fl, fu, est
}

// exact computes the density by a full kernel sweep — the small-dataset
// fallback.
func (s *sampler) exact(x []float64, stats *QueryStats) float64 {
	var stageStart time.Time
	if stats.Trace != nil {
		stageStart = time.Now()
	}
	stats.PointKernels += int64(s.tree.Size)
	v := s.kern.Sum(x, s.tree.Pts.Data) / s.n
	if stats.Trace != nil {
		stats.Trace.AddStage(telemetry.TraceStage{
			Name:     "exact",
			Duration: time.Since(stageStart),
			Points:   int64(s.tree.Size),
			Lower:    v,
			Upper:    v,
		})
	}
	return v
}

// verdict is the stopping rule a density interval [fl, fu] meets, if
// any.
type verdict uint8

const (
	undecided   verdict = iota
	decidedHigh         // threshold rule: fl > tu
	decidedLow          // threshold rule: fu < tl
	precise             // tolerance or relative rule
)

// rules are one query's stopping rules, those of the tree traversal: the
// threshold rule fl > tu or fu < tl, the tolerance rule fu − fl < tolCut,
// and the relative rule fu − fl ≤ rel·fl when rel > 0. A rule that must
// not fire gets tl = −Inf, tu = +Inf, tolCut ≤ 0 or rel ≤ 0.
type rules struct {
	tl, tu, tolCut, rel float64
}

func (r rules) verdict(fl, fu float64) verdict {
	switch {
	case fl > r.tu:
		return decidedHigh
	case fu < r.tl:
		return decidedLow
	case fu-fl < r.tolCut, r.rel > 0 && fu-fl <= r.rel*fl:
		return precise
	}
	return undecided
}

// BoundDensity estimates the density at x under the threshold/tolerance
// stopping rules of tKDC's Algorithm 2, tested on the certified envelope
// first and then on each sampling round's band: the near phase stops once
// its lower bound exceeds tu, the far field is sampled only when the
// envelope meets no rule, and the sample budget doubles from
// samplerMinSamples until the band clears [tl, tu] on one side (the
// classification is decided), the band is narrower than tolCut, or
// samplerMaxSamples is reached.
//
// The returned fl ≤ est ≤ fu satisfy fl ≤ f(x) ≤ fu with certainty when
// no sample was drawn (the envelope decided, or the far field was summed
// exactly) and with probability ≥ 1−δ otherwise. est is the unbiased
// split estimate of a sampled answer. An answer the envelope decides
// reports the certified bound on its decided side instead: fl when it
// lies above tu, fu when it lies below tl, and the midpoint when the
// tolerance rule fired. A point estimate inside a wide envelope would
// overstate how far the density lies from the threshold.
func (s *sampler) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	r := rules{tl: tl, tu: tu, tolCut: tolCut}
	if s.disableThreshold {
		r.tl, r.tu = math.Inf(-1), math.Inf(1)
	}
	if s.disableTolerance {
		r.tolCut = 0
	}
	return s.refine(x, r, true, false, stats)
}

// EstimateDensity estimates the density to relative precision rel
// (fu − fl ≤ rel·fl) regardless of any threshold. If the sample budget
// cannot tighten the band that far — or rel ≤ 0 demands exactness — it
// falls back to exhausting the far field exactly, so the returned
// precision always honors the contract.
func (s *sampler) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	return s.refine(x, rules{tl: math.Inf(-1), tu: math.Inf(1), rel: rel}, rel > 0, true, stats)
}

// Name returns BackendSampling.
func (s *sampler) Name() string { return BackendSampling }

// Certified reports false: the bounds hold with probability ≥ 1−δ.
func (s *sampler) Certified() bool { return false }

// Recycle is a no-op: the sampler's scratch (near-phase heap and
// far-range table) is bounded by its node budget.
func (s *sampler) Recycle() {}

// refine is the one estimation path behind BoundDensity and
// EstimateDensity. It sums small datasets exactly and otherwise runs the
// near phase, which stops early once its lower bound exceeds r.tu. It
// then tests r on the certified envelope
// [(sumNear + Σ count·K(dmax))/n, (sumNear + Σ count·K(dmin))/n] and
// returns the envelope when a rule fires. Otherwise, when sample allows
// it and the far field is large enough, it seeds the query's generator
// and doubles the far-field sample from samplerMinSamples to
// samplerMaxSamples, testing r once per round on the round's band. When
// the budget runs out first, exhaust replaces the band by the exact
// far-field sum; otherwise the last band is returned. A far field too
// small to sample, or one the caller does not let it sample, is summed
// exactly.
func (s *sampler) refine(x []float64, r rules, sample, exhaust bool, stats *QueryStats) (fl, fu, est float64) {
	if s.tree.Size <= 2*samplerMinSamples {
		v := s.exact(x, stats)
		return v, v, v
	}
	sumNear := s.nearPhase(x, r.tu, stats)
	if s.far.count == 0 {
		v := sumNear / s.n
		return v, v, v
	}
	flCert := (sumNear + s.far.lSum) / s.n
	fuCert := (sumNear + s.far.uSum) / s.n
	switch r.verdict(flCert, fuCert) {
	case decidedHigh:
		return flCert, fuCert, flCert
	case decidedLow:
		return flCert, fuCert, fuCert
	case precise:
		return flCert, fuCert, 0.5 * (flCert + fuCert)
	}
	// Sampling with replacement from a population of at most
	// samplerMinSamples costs more than exhausting it.
	if sample && s.far.count > samplerMinSamples {
		// Seeding fills math/rand's 607-word state, so it waits until a
		// round is drawn; the draws are the same as seeding up front.
		s.src.Seed(querySeed(s.seed, x))
		var st farState
		met := false
		for round, target := 1, samplerMinSamples; ; round, target = round+1, min(2*target, samplerMaxSamples) {
			var roundStart time.Time
			if stats.Trace != nil {
				roundStart = time.Now()
			}
			s.sampleTo(&st, x, target, stats)
			fl, fu, est = s.bounds(sumNear, flCert, fuCert, &st)
			stats.SamplingRounds++
			if stats.Trace != nil {
				stats.Trace.AddStage(telemetry.TraceStage{
					Name:     fmt.Sprintf("far/round-%d", round),
					Duration: time.Since(roundStart),
					Samples:  int64(st.m),
					Lower:    fl,
					Upper:    fu,
					Band:     fu - fl,
				})
			}
			if met = r.verdict(fl, fu) != undecided; met || target >= samplerMaxSamples {
				break
			}
		}
		stats.SampledPoints += int64(st.m)
		if met || !exhaust {
			return fl, fu, est
		}
	}
	v := (sumNear + s.exactFar(x, stats)) / s.n
	return v, v, v
}
