package metrics

import (
	"fmt"
	"math"
	"sort"

	"lightnet/internal/graph"
)

// Pair-sampled stretch with a deterministic sampler. The quality gate
// needs tail statistics whose exact value is a pure function of
// (graphs, pairs, seed) so they can be committed to BENCH_quality.json
// and diffed exactly. The sampler here is a splitmix64
// counter stream — no RNG state, no library dependence — and small
// graphs are promoted to the exact all-pairs computation, so reported
// numbers are reproducible bit for bit on every platform.

// StretchStats summarises the stretch distribution of a spanner h over
// vertex pairs of g.
type StretchStats struct {
	// Max, Mean, P99 of d_h(u,v)/d_g(u,v) over the evaluated pairs,
	// clamped below at 1.
	Max  float64
	Mean float64
	P99  float64
	// Pairs is the number of pairs evaluated (connected in g).
	Pairs int
	// Exact reports whether every unordered pair was evaluated (small
	// graphs) rather than a deterministic sample.
	Exact bool
}

// qsplitmix64 is the splitmix64 finalizer driving the pair sampler.
func qsplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SamplePairs returns maxPairs deterministic vertex pairs (u ≠ v) on
// [0, n): pair i is a pure function of (seed, i). Exported for tests and
// for callers that want the identical sample the stats use.
func SamplePairs(n, maxPairs int, seed int64) [][2]graph.Vertex {
	if n < 2 || maxPairs <= 0 {
		return nil
	}
	out := make([][2]graph.Vertex, maxPairs)
	for i := range out {
		base := uint64(seed)<<20 + uint64(i)*2
		u := int(qsplitmix64(base) % uint64(n))
		v := int(qsplitmix64(base+1) % uint64(n-1))
		if v >= u {
			v++
		}
		out[i] = [2]graph.Vertex{graph.Vertex(u), graph.Vertex(v)}
	}
	return out
}

// PairStretchStats computes stretch statistics of h against g: exact
// all-pairs when n(n−1)/2 ≤ maxPairs, otherwise over the deterministic
// SamplePairs sample. Pairs disconnected in g are skipped; a pair
// connected in g but not in h is an error (h must span g's components).
func PairStretchStats(g, h *graph.Graph, maxPairs int, seed int64) (StretchStats, error) {
	if g.N() != h.N() {
		return StretchStats{}, fmt.Errorf("metrics: vertex sets differ: %d vs %d", g.N(), h.N())
	}
	n := g.N()
	if n < 2 || maxPairs <= 0 {
		return StretchStats{Max: 1, Mean: 1, P99: 1, Exact: true}, nil
	}
	exact := n*(n-1)/2 <= maxPairs
	var stretches []float64
	eval := func(dg, dh []float64, u, v graph.Vertex) error {
		if math.IsInf(dg[v], 1) {
			return nil // disconnected in g: the pair carries no constraint
		}
		if math.IsInf(dh[v], 1) {
			return fmt.Errorf("metrics: pair (%d,%d) disconnected in spanner", u, v)
		}
		s := 1.0
		if dg[v] > 0 {
			s = dh[v] / dg[v]
			if s < 1 {
				s = 1
			}
		}
		stretches = append(stretches, s)
		return nil
	}
	if exact {
		for u := 0; u < n-1; u++ {
			dg := g.Dijkstra(graph.Vertex(u)).Dist
			dh := h.Dijkstra(graph.Vertex(u)).Dist
			for v := u + 1; v < n; v++ {
				if err := eval(dg, dh, graph.Vertex(u), graph.Vertex(v)); err != nil {
					return StretchStats{}, err
				}
			}
		}
	} else {
		// Group the sample by source so each distinct u costs one Dijkstra
		// in g and one in h.
		byU := make(map[graph.Vertex][]graph.Vertex)
		var order []graph.Vertex
		for _, p := range SamplePairs(n, maxPairs, seed) {
			if _, seen := byU[p[0]]; !seen {
				order = append(order, p[0])
			}
			byU[p[0]] = append(byU[p[0]], p[1])
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, u := range order {
			dg := g.Dijkstra(u).Dist
			dh := h.Dijkstra(u).Dist
			for _, v := range byU[u] {
				if err := eval(dg, dh, u, v); err != nil {
					return StretchStats{}, err
				}
			}
		}
	}
	if len(stretches) == 0 {
		return StretchStats{Max: 1, Mean: 1, P99: 1, Exact: exact}, nil
	}
	st := StretchStats{Max: 1, Pairs: len(stretches), Exact: exact}
	var sum float64
	for _, s := range stretches {
		if s > st.Max {
			st.Max = s
		}
		sum += s
	}
	st.Mean = sum / float64(len(stretches))
	sort.Float64s(stretches)
	idx := int(math.Ceil(0.99*float64(len(stretches)))) - 1
	if idx < 0 {
		idx = 0
	}
	st.P99 = stretches[idx]
	return st, nil
}
