package points

import "math/rand"

// SampleSlots draws k distinct slots of [0, n) uniformly without
// replacement, k ≤ n, and calls visit(i, slot) for the i-th draw, in
// draw order. It runs the first k steps of a Fisher–Yates shuffle and
// consumes rng the same way on every path: one Intn(n−i) per draw.
// Every draw without replacement in the module goes through here: the
// bootstrap's row samples, the drift probe's reference and probe rows,
// and the ingest sample's Sample.
//
// For k < n/4 it tracks only the displaced slots, so a sparse draw
// allocates O(k) however large n is. Denser draws, where that map would
// cost more than the permutation it avoids, shuffle an index array; both
// paths emit the same slots for the same seed.
func SampleSlots(rng *rand.Rand, n, k int, visit func(i, slot int)) {
	if k*4 >= n {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		for j := 0; j < k; j++ {
			l := j + rng.Intn(n-j)
			idx[j], idx[l] = idx[l], idx[j]
			visit(j, idx[j])
		}
		return
	}
	displaced := make(map[int]int, 2*k)
	slotAt := func(pos int) int {
		if v, ok := displaced[pos]; ok {
			return v
		}
		return pos
	}
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		sj, sl := slotAt(j), slotAt(l)
		displaced[l] = sj
		delete(displaced, j) // position j is never probed again
		visit(j, sl)
	}
}
