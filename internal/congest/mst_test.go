package congest

import (
	"math/rand"
	"slices"
	"testing"

	"lightnet/internal/graph"
)

// kruskalTree returns the (w, id)-ordered Kruskal spanning forest of the
// edges allowed by mask (nil: all), sorted by edge id.
func kruskalTree(g *graph.Graph, mask []bool) []graph.EdgeID {
	ids := make([]graph.EdgeID, 0, g.M())
	for id := range g.Edges() {
		if mask == nil || mask[id] {
			ids = append(ids, graph.EdgeID(id))
		}
	}
	slices.SortFunc(ids, func(a, b graph.EdgeID) int {
		if better(g.Edge(a).W, int32(a), g.Edge(b).W, int32(b)) {
			return -1
		}
		return 1
	})
	up := make([]int, g.N())
	for i := range up {
		up[i] = i
	}
	find := func(x int) int {
		for up[x] != x {
			up[x] = up[up[x]]
			x = up[x]
		}
		return x
	}
	var tree []graph.EdgeID
	for _, id := range ids {
		e := g.Edge(id)
		if a, b := find(int(e.U)), find(int(e.V)); a != b {
			up[a] = b
			tree = append(tree, id)
		}
	}
	slices.Sort(tree)
	return tree
}

// tiedWeights copies g with every weight replaced by an integer in
// 1..3, so most edges tie on weight and only the id breaks the tie.
func tiedWeights(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, float64(1+rng.Intn(3)))
	}
	return h
}

// runMSTStage runs bfs and mst from vertex 0 on one pipeline, both
// restricted to mask when it is non-nil, and returns the tree, the
// phase-1 labels and the mst stage's statistics.
func runMSTStage(t *testing.T, g *graph.Graph, mask []bool, seed int64, workers int) ([]graph.EdgeID, []int64, Stats) {
	t.Helper()
	n := g.N()
	pipe := NewPipeline(g, Options{Seed: seed, Workers: workers, MaxRounds: 16*n + 1024})
	var so []StageOption
	if mask != nil {
		so = append(so, Restrict(mask))
	}
	var pools StagePools
	parent := make([]graph.EdgeID, n)
	if _, err := pipe.RunStage("bfs", pools.BFS(n, 0, parent, make([]int32, n)), so...); err != nil {
		t.Fatal(err)
	}
	inTree := make([]bool, g.M())
	frag := make([]int64, n)
	st, err := pipe.RunStage("mst", pools.MST(n, 0, parent, seed, inTree, frag), so...)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var tree []graph.EdgeID
	for id, in := range inTree {
		if in {
			tree = append(tree, graph.EdgeID(id))
		}
	}
	return tree, frag, st
}

// TestMSTMatchesKruskalUnderTies: with integer weights 1–3 almost every
// comparison is decided by the edge id; the stage must still reproduce
// the (w, id) Kruskal tree edge for edge, at every worker count, and its
// messages must fit the default word limit.
func TestMSTMatchesKruskalUnderTies(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er", tiedWeights(graph.ErdosRenyi(300, 0.03, 9, 1), 1)},
		{"geometric", tiedWeights(graph.RandomGeometric(400, 2, 2), 2)},
		{"grid", tiedWeights(graph.Grid(20, 20, 5, 3), 3)},
		{"path", tiedWeights(graph.Path(200, 1), 4)},
	} {
		want := kruskalTree(tc.g, nil)
		var ref Stats
		for _, w := range []int{1, 2, 8} {
			tree, _, st := runMSTStage(t, tc.g, nil, 7, w)
			if !slices.Equal(tree, want) {
				t.Fatalf("%s workers=%d: tree differs from Kruskal (%d vs %d edges)", tc.name, w, len(tree), len(want))
			}
			if st.MaxWords > MaxWordsDefault {
				t.Fatalf("%s: a message took %d words, limit %d", tc.name, st.MaxWords, MaxWordsDefault)
			}
			if w == 1 {
				ref = st
			} else if st != ref {
				t.Fatalf("%s workers=%d: stats %+v, workers=1 %+v", tc.name, w, st, ref)
			}
		}
	}
}

// TestMSTRestrictedDisconnected: under Restrict on a mask that cuts the
// graph into pieces, the stage returns the spanning forest of the mask.
// The BFS root's component goes through both phases; the others are
// finished by uncapped phase-1 merging alone.
func TestMSTRestrictedDisconnected(t *testing.T) {
	g := tiedWeights(graph.Grid(16, 16, 5, 9), 9)
	mask := make([]bool, g.M())
	for id, e := range g.Edges() {
		// Cut the grid into a left and a right half and drop a few more
		// edges, so the right half is itself split.
		mask[id] = (e.U%16 < 8) == (e.V%16 < 8) && id%11 != 0
	}
	want := kruskalTree(g, mask)
	for _, w := range []int{1, 2, 8} {
		tree, _, _ := runMSTStage(t, g, mask, 3, w)
		if !slices.Equal(tree, want) {
			t.Fatalf("workers=%d: forest has %d edges, Kruskal on the mask %d", w, len(tree), len(want))
		}
	}
}

// TestMSTPhaseOneInvariants: after phase 1, every label class is a
// connected subtree of the MST, labelled by one of its own vertices,
// and at most n/⌈√n⌉ + 1 classes reach the ⌈√n⌉ cap.
func TestMSTPhaseOneInvariants(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.KNearestNeighborGraph(graph.RandomPoints(2000, 2, 1, 5), 6),
		tiedWeights(graph.ErdosRenyi(1000, 0.006, 9, 6), 6),
		graph.Path(1500, 3),
	} {
		n := g.N()
		tree, frag, _ := runMSTStage(t, g, nil, 11, 2)
		mstEdge := make([]bool, g.M())
		for _, id := range tree {
			mstEdge[id] = true
		}
		size := map[int64]int{}
		for v, l := range frag {
			size[l]++
			if frag[l] != l {
				t.Fatalf("vertex %d has label %d, which is not the label of vertex %d itself", v, l, l)
			}
		}
		// A class of s vertices is a connected MST subtree iff exactly
		// s−1 MST edges join two of its vertices (the MST is a forest).
		inner := map[int64]int{}
		for id, e := range g.Edges() {
			if frag[e.U] == frag[e.V] && mstEdge[id] {
				inner[frag[e.U]]++
			}
		}
		cap := int(ceilSqrt(n))
		big := 0
		for l, s := range size {
			if inner[l] != s-1 {
				t.Fatalf("n=%d: class %d has %d vertices but %d MST edges", n, l, s, inner[l])
			}
			if s >= cap {
				big++
			}
		}
		if big > n/cap+1 {
			t.Fatalf("n=%d: %d classes reach the cap %d", n, big, cap)
		}
	}
}
