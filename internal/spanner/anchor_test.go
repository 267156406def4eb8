package spanner

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"lightnet/internal/graph"
	"lightnet/internal/mst"
)

// TestAnchorErrorBound: L stays within 2^(2·bits.Len(n)−61)·2·w(MST) of
// 2·w(MST), with w(MST) summed exactly, on graphs whose weights span
// many orders of magnitude — including a single heavy MST edge among
// tiny ones, where almost every term truncates to zero.
func TestAnchorErrorBound(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"wide-weights", wideWeightGraph(300, 3)},
		{"log-uniform", logUniformGraph(500, 1e-12, 1e12, 7)},
		{"one-heavy", oneHeavyGraph(400, 9)},
		{"knn", graph.KNearestNeighborGraph(graph.RandomPoints(2000, 2, 1, 5), 6)},
	}
	for _, tg := range graphs {
		g := tg.g
		ids, _, err := mst.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		wmax, sum := mstAnchor(g, ids)
		bigL := anchorL(sum, anchorScale(g.N(), wmax))
		exact := new(big.Float).SetPrec(4096)
		for _, id := range ids {
			exact.Add(exact, new(big.Float).SetFloat64(g.Edge(id).W))
		}
		twice := new(big.Float).Mul(exact, big.NewFloat(2))
		diff := new(big.Float).Sub(new(big.Float).SetFloat64(bigL), twice)
		diff.Abs(diff)
		bound := new(big.Float).Mul(twice, big.NewFloat(math.Ldexp(1, 2*bits.Len(uint(g.N()))-61)))
		if diff.Cmp(bound) > 0 {
			t.Fatalf("%s: |L − 2·w(MST)| = %s > %s (L=%v, 2·w(MST)=%s)", tg.name,
				diff.Text('g', 6), bound.Text('g', 6), bigL, twice.Text('g', 17))
		}
		// The measured pipeline's convergecast delivers the same words.
		res, err := BuildLight(g, 2, 0.25, Options{Seed: 1, Mode: Measured})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := BuildLight(g, 2, 0.25, Options{Seed: 1, Cluster: ClusterBaswana})
		if err != nil {
			t.Fatal(err)
		}
		requireSameSpanner(t, acc, res)
		if len(res.Buckets) > 0 && res.Buckets[0].Index == 0 && res.Buckets[0].WMax != bigL {
			t.Fatalf("%s: bucket 0 anchored at %v, want L=%v", tg.name, res.Buckets[0].WMax, bigL)
		}
	}
}

// logUniformGraph is a connected ER graph with weights log-uniform in
// [lo, hi].
func logUniformGraph(n int, lo, hi float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	base := graph.ErdosRenyi(n, 0.02, 1, seed)
	g := graph.New(n)
	for _, e := range base.Edges() {
		g.MustAddEdge(e.U, e.V, lo*math.Pow(hi/lo, rng.Float64()))
	}
	for v := 1; v < n; v++ { // a spanning path keeps it connected
		g.MustAddEdge(graph.Vertex(v-1), graph.Vertex(v), lo*math.Pow(hi/lo, rng.Float64()))
	}
	return g
}

// oneHeavyGraph is a tree of tiny edges (~1e-9) plus one pendant vertex
// reachable only over an edge of weight 1e9, which the MST must take.
func oneHeavyGraph(n int, seed int64) *graph.Graph {
	tree := graph.RandomTree(n-1, 2, seed)
	g := graph.New(n)
	for _, e := range tree.Edges() {
		g.MustAddEdge(e.U, e.V, e.W*1e-9)
	}
	g.MustAddEdge(0, graph.Vertex(n-1), 1e9)
	return g
}

// TestMeasuredWeightStagesShape: on knn graphs the two stages that fix
// L cost O(D) rounds — the convergecast 3D+1 and the flood D+1, D the
// BFS tree's depth — and not the Θ(n) of shipping every MST edge to the
// root.
func TestMeasuredWeightStagesShape(t *testing.T) {
	sizes := []int{5000, 20000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		g := graph.KNearestNeighborGraph(graph.RandomPoints(n, 2, 1, 1), 6)
		res, err := BuildLight(g, 2, 0.25, Options{Seed: 31, Mode: Measured, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var depth int32
		for _, d := range g.BFSHops(0) {
			depth = max(depth, d)
		}
		rounds := 0
		for _, s := range res.Stages {
			if s.Name == "mst-weight-up" || s.Name == "mst-weight-down" {
				rounds += s.Stats.Rounds
			}
		}
		if limit := 4*int(depth) + 8; rounds > limit {
			t.Fatalf("n=%d: mst-weight-up+down took %d rounds, want <= 4·%d+8 = %d", n, rounds, depth, limit)
		}
	}
}
