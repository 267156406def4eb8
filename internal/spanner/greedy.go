package spanner

import (
	"fmt"
	"sort"

	"lightnet/internal/graph"
)

// The path-greedy t-spanner [ADD+93] is the repository's independent
// quality oracle: it shares no code with the §5 construction (no MST, no
// buckets, no sampling hashes), so agreement between the two is evidence
// about the algorithms, not about a shared bug. The CI quality gate
// (`lightnet bench -kind quality` + cmd/benchdiff -kind quality)
// compares the built spanner's lightness against this baseline on every
// registry scenario and pins the ratio in BENCH_quality.json.
//
// Two properties make it an oracle rather than a competitor:
//
//   - it is exactly a t-spanner by construction (an edge is dropped only
//     after an explicit Dijkstra certificate that the kept edges already
//     span it within t), and it is minimal — dropping any kept edge
//     violates the stretch bound for that edge's endpoints;
//   - it is deterministic: edges are scanned in the total (w, id) order,
//     so identical graphs give identical spanners, bit for bit, with no
//     seed involved.
//
// Cost is O(m·(m + n log n)) — test and gate scale only, never a stage
// of the distributed pipeline.

// Greedy computes the greedy t-spanner [ADD+93] of the whole graph:
// edges in (w, id) order, kept iff the current spanner distance between
// the endpoints exceeds t·w(e).
func Greedy(g *graph.Graph, t float64) ([]graph.EdgeID, error) {
	return GreedySubset(g, nil, t)
}

// GreedySubset runs the path-greedy construction on the edge subset
// marked by sub (indexed by edge id, length M; nil means every edge), on
// the original vertex set — the same subset convention baswanaCore uses,
// so the oracle can certify a single weight bucket of the §5
// construction in isolation. Returned ids are original graph ids, in the
// order kept (ascending (w, id)).
func GreedySubset(g *graph.Graph, sub []bool, t float64) ([]graph.EdgeID, error) {
	if t < 1 {
		return nil, fmt.Errorf("spanner: stretch %v < 1", t)
	}
	edges := g.Edges()
	ids := make([]graph.EdgeID, 0, g.M())
	for i := range edges {
		if sub != nil && !sub[i] {
			continue
		}
		ids = append(ids, graph.EdgeID(i))
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := edges[ids[a]], edges[ids[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ids[a] < ids[b]
	})
	h := graph.New(g.N())
	var kept []graph.EdgeID
	for _, id := range ids {
		e := edges[id]
		d := h.DijkstraBounded(e.U, t*e.W).Dist[e.V]
		if d > t*e.W {
			h.MustAddEdge(e.U, e.V, e.W)
			kept = append(kept, id)
		}
	}
	return kept, nil
}
