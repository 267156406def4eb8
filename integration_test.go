package lightnet

// Integration tests: pipelines that cross module boundaries, verifying
// the substrates compose the way the composite algorithms assume.

import (
	"math"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/euler"
	"lightnet/internal/graph"
	"lightnet/internal/lelist"
	"lightnet/internal/metrics"
	"lightnet/internal/mst"
	"lightnet/internal/nets"
	"lightnet/internal/slt"
	"lightnet/internal/spanner"
	"lightnet/internal/sssp"
)

// The genuine distributed MST (congest.RunMST) must feed the Euler tour
// and SLT pipeline exactly like the Kruskal oracle does.
func TestIntegrationDistributedMSTFeedsEulerAndSLT(t *testing.T) {
	g := graph.ErdosRenyi(120, 0.08, 15, 3)
	bEdges, stats, err := congest.RunMST(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no engine rounds")
	}
	kEdges, kW, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.WeightOf(bEdges)-kW) > 1e-9 {
		t.Fatal("engine MST differs from Kruskal weight")
	}
	// Tour over the engine-produced tree.
	tree, err := mst.NewTree(g, bEdges, 0)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := mst.Decompose(tree, 11)
	if err != nil {
		t.Fatal(err)
	}
	tour, err := euler.Build(tree, frags, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tour.Length-2*kW) > 1e-9 {
		t.Fatalf("tour length %v != 2·w(MST) %v", tour.Length, 2*kW)
	}
	// Same MST (identical edge sets given the (w, id) total order).
	sortIDs := func(a []graph.EdgeID) map[graph.EdgeID]bool {
		m := make(map[graph.EdgeID]bool, len(a))
		for _, id := range a {
			m[id] = true
		}
		return m
	}
	bm, km := sortIDs(bEdges), sortIDs(kEdges)
	for id := range km {
		if !bm[id] {
			t.Fatalf("edge %d in Kruskal MST but not distributed MST", id)
		}
	}
}

// Engine BFS must agree with the graph-level BFS used by the ledger
// accounting.
func TestIntegrationEngineBFSMatchesOracle(t *testing.T) {
	g := graph.RandomGeometric(100, 2, 7)
	_, depth, _, err := congest.RunBFS(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFSHops(5)
	for v := range depth {
		if depth[v] != want[v] {
			t.Fatalf("depth[%d] = %d want %d", v, depth[v], want[v])
		}
	}
}

// A ruling set on the engine is a net in the unweighted metric: the
// (k+1, k)-ruling set must satisfy the nets.Verify contract on the
// unit-weighted graph.
func TestIntegrationRulingSetIsUnweightedNet(t *testing.T) {
	g := graph.Grid(9, 9, 3, 2)
	unit, err := g.Reweighted(func(graph.EdgeID, graph.Edge) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	inSet, _, err := congest.RunRulingSet(unit, k, 5)
	if err != nil {
		t.Fatal(err)
	}
	var pts []graph.Vertex
	for v, in := range inSet {
		if in {
			pts = append(pts, graph.Vertex(v))
		}
	}
	// Covering radius k, separation strictly more than k.
	if err := nets.Verify(unit, pts, float64(k), float64(k)+0.5); err != nil {
		t.Fatal(err)
	}
}

// LE lists drive the net; the net drives the Ψ estimator; the estimator
// must sandwich the Kruskal weight. Full §6→§8 pipeline.
func TestIntegrationLEListsToNetsToPsi(t *testing.T) {
	g := graph.RandomGeometric(80, 2, 9)
	// LE list sanity at one scale.
	all := make([]graph.Vertex, g.N())
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	lists, err := lelist.Compute(g, all, 0.5, 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lists.Validate(); err != nil {
		t.Fatal(err)
	}
	psi, mstW, err := EstimateMSTWeight(g, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if psi < mstW {
		t.Fatalf("Ψ=%v < L=%v", psi, mstW)
	}
	if psi > 50*math.Log2(float64(g.N()))*mstW {
		t.Fatalf("Ψ=%v too large for L=%v", psi, mstW)
	}
}

// The SLT's intermediate SPT modes must be interchangeable: all three
// satisfy the same guarantee envelope on the same graph.
func TestIntegrationSPTModesInterchangeableInSLT(t *testing.T) {
	g := graph.ErdosRenyi(90, 0.1, 12, 11)
	for _, mode := range []sssp.Mode{sssp.ModeExact, sssp.ModePerturbed, sssp.ModeSkeleton} {
		res, err := slt.Build(g, 0, 0.5, slt.Options{Seed: 4, SPTMode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		light, stretch, err := slt.Verify(g, res)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if light > 1+5/0.5 || stretch > 1+60*0.5 {
			t.Fatalf("mode %d out of envelope: light=%v stretch=%v", mode, light, stretch)
		}
	}
}

// The §5 spanner must preserve the SLT guarantee when the SLT is built
// inside the spanner subgraph — light objects compose.
func TestIntegrationSLTInsideSpanner(t *testing.T) {
	g := graph.RandomGeometric(100, 2, 13)
	sp, err := spanner.BuildLight(g, 2, 0.25, spanner.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Subgraph(sp.Edges)
	res, err := slt.Build(sub, 0, 0.5, slt.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stretchInSub, err := slt.Verify(sub, res)
	if err != nil {
		t.Fatal(err)
	}
	// Composition: root distances in the SLT vs the ORIGINAL graph are
	// stretched by at most (spanner stretch)·(SLT stretch).
	exact := g.Dijkstra(0).Dist
	spMaxS, _, err := metrics.EdgeStretch(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			continue
		}
		bound := spMaxS * stretchInSub * exact[v] * (1 + 1e-9)
		if res.Dist[v] > bound+1e-9 {
			t.Fatalf("composed stretch violated at %d: %v > %v", v, res.Dist[v], bound)
		}
	}
}

// The hopset-backed skeleton SPT must agree with Dijkstra on the same
// graph the doubling construction uses.
func TestIntegrationSkeletonSPTOnDoublingWorkload(t *testing.T) {
	g := graph.RandomGeometric(90, 2, 17)
	tr, err := sssp.ApproxSPT(g, 0, 0.5, sssp.Options{Mode: sssp.ModeSkeleton, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	exact := g.Dijkstra(0).Dist
	for v := 0; v < g.N(); v++ {
		if tr.Dist[v] < exact[v]-1e-9 || tr.Dist[v] > 1.5*exact[v]+1e-9 {
			t.Fatalf("skeleton SPT out of envelope at %d: %v vs %v", v, tr.Dist[v], exact[v])
		}
	}
}

// Full public-API pipeline on one graph: every builder, every verifier.
func TestIntegrationFullPipeline(t *testing.T) {
	g := RandomGeometric(128, 2, 21)
	sp, err := BuildLightSpanner(g, 2, 0.25, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifySpanner(g, sp); err != nil {
		t.Fatal(err)
	}
	tree, err := BuildSLT(g, 0, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifySLT(g, tree); err != nil {
		t.Fatal(err)
	}
	inv, err := BuildSLTInverse(g, 0, 0.25, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if light, _, err := VerifySLT(g, inv); err != nil || light > 1.25+1e-9 {
		t.Fatalf("inverse: light=%v err=%v", light, err)
	}
	net, err := BuildNet(g, g.Eccentricity(0)/5, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNet(g, net); err != nil {
		t.Fatal(err)
	}
	dsp, err := BuildDoublingSpanner(g, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if maxS, _, err := VerifySpanner(g, dsp); err != nil || maxS > 4 {
		t.Fatalf("doubling: stretch=%v err=%v", maxS, err)
	}
	// Costs all recorded and plausible: every object needs Ω(√n+D)-ish
	// rounds, none needs more than a generous polynomial.
	for name, cost := range map[string]Cost{
		"spanner": sp.Cost, "slt": tree.Cost, "net": net.Cost, "doubling": dsp.Cost,
	} {
		if cost.Rounds < 10 {
			t.Fatalf("%s: implausibly few rounds %d", name, cost.Rounds)
		}
		if cost.Rounds > 1_000_000 {
			t.Fatalf("%s: implausibly many rounds %d", name, cost.Rounds)
		}
	}
}
