package metrics

import (
	"math"
	"math/rand"
	"testing"

	"lightnet/internal/graph"
	"lightnet/internal/mst"
)

func TestEdgeStretchExact(t *testing.T) {
	// g: triangle with weights 1,1,1.5; h drops the 1.5 edge → its
	// stretch is 2/1.5.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	heavy := g.MustAddEdge(0, 2, 1.5)
	_ = heavy
	h := g.Subgraph([]graph.EdgeID{0, 1})
	maxS, meanS, err := EdgeStretch(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(maxS-2.0/1.5) > 1e-9 {
		t.Fatalf("max stretch %v", maxS)
	}
	if meanS <= 1 || meanS >= maxS {
		t.Fatalf("mean stretch %v", meanS)
	}
}

func TestEdgeStretchIdentity(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.2, 5, 1)
	maxS, meanS, err := EdgeStretch(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if maxS != 1 || meanS != 1 {
		t.Fatalf("identity stretch %v/%v", maxS, meanS)
	}
}

func TestEdgeStretchDisconnected(t *testing.T) {
	g := graph.Path(4, 1)
	h := g.Subgraph([]graph.EdgeID{0}) // drops later edges
	if _, _, err := EdgeStretch(g, h); err == nil {
		t.Fatal("disconnected spanner accepted")
	}
	other := graph.New(5)
	if _, _, err := EdgeStretch(g, other); err == nil {
		t.Fatal("mismatched vertex sets accepted")
	}
}

// fullSearchEdgeStretch is EdgeStretch with one unbounded Dijkstra per
// source: the reference the early-stopping searches must reproduce.
func fullSearchEdgeStretch(g, h *graph.Graph) (maxStretch, meanStretch float64) {
	var sum float64
	var count int
	maxStretch = 1
	for u := 0; u < g.N(); u++ {
		dist := h.Dijkstra(graph.Vertex(u)).Dist
		for _, e := range g.Edges() {
			if int(e.U) != u {
				continue
			}
			s := math.Max(dist[e.V]/e.W, 1)
			maxStretch = math.Max(maxStretch, s)
			sum += s
			count++
		}
	}
	return maxStretch, sum / float64(count)
}

// TestEdgeStretchMatchesFullSearches: on random graphs and spanners
// (an MST plus a random share of the other edges, parallel edges and
// weights over six orders of magnitude included), max and mean stretch
// are bit-identical to those of full Dijkstra searches.
func TestEdgeStretchMatchesFullSearches(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		base := graph.ErdosRenyi(n, 3/float64(n)+rng.Float64()*0.1, 10, seed)
		g := graph.New(n)
		for _, e := range base.Edges() {
			g.MustAddEdge(e.U, e.V, e.W*math.Pow(10, float64(rng.Intn(7)-3)))
			if rng.Intn(10) == 0 {
				g.MustAddEdge(e.V, e.U, e.W*rng.Float64()*2)
			}
		}
		for v := 1; v < n; v++ {
			g.MustAddEdge(graph.Vertex(rng.Intn(v)), graph.Vertex(v), 1+rng.Float64()*100)
		}
		keep, _, err := mst.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		share := rng.Float64()
		for id := 0; id < g.M(); id++ {
			if rng.Float64() < share {
				keep = append(keep, graph.EdgeID(id))
			}
		}
		h := g.Subgraph(keep)
		gotMax, gotMean, err := EdgeStretch(g, h)
		if err != nil {
			t.Fatal(err)
		}
		wantMax, wantMean := fullSearchEdgeStretch(g, h)
		if math.Float64bits(gotMax) != math.Float64bits(wantMax) || math.Float64bits(gotMean) != math.Float64bits(wantMean) {
			t.Fatalf("seed %d: got (%v, %v), full searches give (%v, %v)", seed, gotMax, gotMean, wantMax, wantMean)
		}
	}
}

func TestPairStretch(t *testing.T) {
	g := graph.Grid(6, 6, 2, 3)
	edges, _, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Subgraph(edges)
	st, err := PairStretchStats(g, h, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Exact || st.Pairs == 0 {
		t.Fatalf("want a 60-pair sample, got exact=%v pairs=%d", st.Exact, st.Pairs)
	}
	maxS, meanS := st.Max, st.Mean
	if maxS < 1 || meanS < 1 || meanS > maxS {
		t.Fatalf("pair stretch %v/%v", maxS, meanS)
	}
	// MST of a grid must stretch some pair.
	if maxS == 1 {
		t.Fatal("MST cannot be stretch-1 on a grid")
	}
}

func TestRootStretch(t *testing.T) {
	g := graph.Path(6, 2)
	exact := g.Dijkstra(0).Dist
	inflated := make([]float64, len(exact))
	for i, d := range exact {
		inflated[i] = d * 1.5
	}
	s, err := RootStretch(g, 0, inflated)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.5) > 1e-9 {
		t.Fatalf("root stretch %v", s)
	}
	bad := make([]float64, len(exact))
	for i := range bad {
		bad[i] = graph.Inf
	}
	if _, err := RootStretch(g, 0, bad); err == nil {
		t.Fatal("unreachable tree accepted")
	}
}

func TestStretchHistogram(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1.5)
	h := g.Subgraph([]graph.EdgeID{0, 1}) // edge {0,2} stretched to 2/1.5 ≈ 1.33
	hist, err := StretchHistogram(g, h, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hist[0] != 2 { // the two kept edges at stretch 1
		t.Fatalf("hist %v", hist)
	}
	if hist[3] != 1 { // 1.33 falls in [1.3, 1.4)
		t.Fatalf("hist %v", hist)
	}
	// Overflow clamps into the last bin.
	hist2, err := StretchHistogram(g, h, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hist2[1] != 1 {
		t.Fatalf("clamp hist %v", hist2)
	}
	if _, err := StretchHistogram(g, h, 0, 5); err == nil {
		t.Fatal("bad bin width accepted")
	}
	bad := g.Subgraph([]graph.EdgeID{0})
	if _, err := StretchHistogram(g, bad, 0.1, 5); err == nil {
		t.Fatal("disconnected accepted")
	}
}

func TestLightnessAndSparsity(t *testing.T) {
	g := graph.Path(5, 2) // total weight 8
	ids := []graph.EdgeID{0, 1}
	if l := Lightness(g, ids, 8); math.Abs(l-0.5) > 1e-9 {
		t.Fatalf("lightness %v", l)
	}
	if l := Lightness(g, ids, 0); l != 1 {
		t.Fatalf("zero MST lightness %v", l)
	}
	if s := Sparsity(5, ids); math.Abs(s-0.4) > 1e-9 {
		t.Fatalf("sparsity %v", s)
	}
	if s := Sparsity(0, nil); s != 0 {
		t.Fatalf("empty sparsity %v", s)
	}
}
