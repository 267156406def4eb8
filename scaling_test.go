package lightnet

// Scaling-shape tests: the paper's round bounds are sublinear in n
// (Õ(√n+D) for the SLT and tour, Õ(n^{1/2+1/(4k+2)}+D) for the
// spanner). These tests grow n by 4× and assert the measured rounds
// grow like the predicted shape — strictly slower than linearly — on
// fixed-seed workloads (deterministic, so thresholds cannot flake).

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/euler"
	"lightnet/internal/experiments"
	"lightnet/internal/mst"
)

// roundsAt measures a builder's charged rounds at size n.
func roundsAt(t *testing.T, build func(g *Graph) (int64, error), kind string, n int) int64 {
	t.Helper()
	g := benchGraph(kind, n, 7)
	r, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func assertSublinearGrowth(t *testing.T, name string, r256, r1024 int64) {
	t.Helper()
	ratio := float64(r1024) / float64(r256)
	// √n shape predicts ≈2 (plus D drift); linear would be ≈4. Accept
	// anything strictly below 3.4 and above 1 (costs must grow).
	if ratio >= 3.4 {
		t.Fatalf("%s rounds grew ×%.2f for n ×4 — not sublinear (r256=%d r1024=%d)",
			name, ratio, r256, r1024)
	}
	if ratio <= 1.0 {
		t.Fatalf("%s rounds did not grow: %d -> %d", name, r256, r1024)
	}
	t.Logf("%s: %d -> %d rounds (×%.2f for n×4; √n predicts ×2)", name, r256, r1024, ratio)
}

func TestScalingSLTRounds(t *testing.T) {
	build := func(g *Graph) (int64, error) {
		res, err := BuildSLT(g, 0, 0.5, WithSeed(1))
		if err != nil {
			return 0, err
		}
		return res.Cost.Rounds, nil
	}
	r256 := roundsAt(t, build, "er", 256)
	r1024 := roundsAt(t, build, "er", 1024)
	assertSublinearGrowth(t, "SLT", r256, r1024)
}

func TestScalingSpannerRounds(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			build := func(g *Graph) (int64, error) {
				res, err := BuildLightSpanner(g, k, 0.25, WithSeed(1))
				if err != nil {
					return 0, err
				}
				return res.Cost.Rounds, nil
			}
			r256 := roundsAt(t, build, "er", 256)
			r1024 := roundsAt(t, build, "er", 1024)
			ratio := float64(r1024) / float64(r256)
			// Shape n^{1/2+1/(4k+2)}: k=2 predicts 4^0.6 ≈ 2.3,
			// k=3 predicts 4^0.57 ≈ 2.2. Reject linear growth.
			if ratio >= 3.6 {
				t.Fatalf("spanner k=%d rounds grew ×%.2f — not sublinear", k, ratio)
			}
			t.Logf("spanner k=%d: %d -> %d (×%.2f; predicted ×%.2f)",
				k, r256, r1024, ratio, math.Pow(4, 0.5+1/float64(4*k+2)))
		})
	}
}

func TestScalingEulerRounds(t *testing.T) {
	measure := func(n int) int64 {
		g := benchGraph("er", n, 3)
		edges, _, err := mst.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := mst.NewTree(g, edges, 0)
		if err != nil {
			t.Fatal(err)
		}
		frags, err := mst.Decompose(tree, isqrtBench(n))
		if err != nil {
			t.Fatal(err)
		}
		led := congest.NewLedger()
		if _, err := euler.Build(tree, frags, led, g.HopDiameterApprox()); err != nil {
			t.Fatal(err)
		}
		return led.Rounds()
	}
	assertSublinearGrowth(t, "euler-tour", measure(256), measure(1024))
}

// TestSoakMeasuredScale100k runs the full measured-mode pipelines at
// n=10⁵ on the same knn workload family as the committed n=10⁶
// baselines (skipped under -short; nightly CI runs it). Two guarantees
// at scale:
//
//   - allocation is bounded per edge: one measured build may not
//     allocate more than a fixed number of bytes per graph edge — the
//     regression tripwire for any per-stage state that starts scaling
//     with rounds or buckets instead of with the graph;
//   - bit-identity across worker counts survives scale: workers=8 (the
//     striped worklist path, chunk merges every round) must reproduce
//     the workers=1 result and Stats exactly.
func TestSoakMeasuredScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n = 100_000
	g, err := experiments.BuildWorkload("knn", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := float64(g.M())
	// Empirical (go1.24, workers=1): SLT ≈ 970 bytes/edge, spanner ≈
	// 1060 bytes/edge — the outbox/arena floor is ~64·m bytes alone.
	// The 2048 ceiling sits at ~2× headroom.
	t.Run("slt", func(t *testing.T) {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r1, err := BuildSLT(g, 0, 0.5, WithSeed(1), WithMeasured(), WithWorkers(1))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		bytesPerEdge := float64(ms1.TotalAlloc-ms0.TotalAlloc) / m
		t.Logf("slt: %.0f bytes/edge, rounds=%d messages=%d", bytesPerEdge, r1.Cost.Rounds, r1.Cost.Messages)
		if bytesPerEdge > 2048 {
			t.Errorf("slt measured build allocated %.0f bytes/edge, ceiling 2048", bytesPerEdge)
		}
		r8, err := BuildSLT(g, 0, 0.5, WithSeed(1), WithMeasured(), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r1.TreeEdges, r8.TreeEdges) || !slices.Equal(r1.Parent, r8.Parent) ||
			!slices.Equal(r1.Dist, r8.Dist) || r1.Lightness != r8.Lightness {
			t.Fatal("slt result differs between workers=1 and workers=8")
		}
		assertSameCost(t, "slt", r1.Cost, r8.Cost)
	})
	t.Run("spanner", func(t *testing.T) {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r1, err := BuildLightSpanner(g, 2, 0.25, WithSeed(1), WithMeasured(), WithWorkers(1))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		bytesPerEdge := float64(ms1.TotalAlloc-ms0.TotalAlloc) / m
		t.Logf("spanner: %.0f bytes/edge, rounds=%d messages=%d", bytesPerEdge, r1.Cost.Rounds, r1.Cost.Messages)
		if bytesPerEdge > 2048 {
			t.Errorf("spanner measured build allocated %.0f bytes/edge, ceiling 2048", bytesPerEdge)
		}
		r8, err := BuildLightSpanner(g, 2, 0.25, WithSeed(1), WithMeasured(), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r1.Edges, r8.Edges) || r1.Weight != r8.Weight || r1.Lightness != r8.Lightness {
			t.Fatal("spanner result differs between workers=1 and workers=8")
		}
		assertSameCost(t, "spanner", r1.Cost, r8.Cost)
	})
}

// assertSameCost compares two measured Cost records field by field —
// the bit-identity contract for Stats across worker counts.
func assertSameCost(t *testing.T, name string, a, b Cost) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("%s: cost differs across workers: rounds %d vs %d, messages %d vs %d",
			name, a.Rounds, b.Rounds, a.Messages, b.Messages)
	}
	if !reflect.DeepEqual(a.Stages, b.Stages) {
		t.Fatalf("%s: per-stage breakdown differs across workers", name)
	}
}

// The engine programs' measured rounds follow their theoretical shapes
// as the graph grows: BFS tracks D, EN17 stays k+2 regardless of n.
func TestScalingEngineRounds(t *testing.T) {
	for _, n := range []int{64, 256} {
		g := GridGraph(isqrtBench(n), isqrtBench(n), 2, 5)
		d := g.HopDiameter()
		_, _, s, err := congest.RunBFS(g, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Rounds > d+3 {
			t.Fatalf("n=%d: BFS rounds %d exceed D+3=%d", n, s.Rounds, d+3)
		}
		_, s2, err := congest.RunEN17Spanner(g, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Rounds > 3+2 {
			t.Fatalf("n=%d: EN17 rounds %d exceed k+2", n, s2.Rounds)
		}
	}
}

// TestScalingMSTStageShape: the mst stage of both measured pipelines
// costs Õ(√n + D) rounds — at most mstShapeC·(√n + D)·log₂n, D the
// depth of the bfs stage's tree — on the [KRY95] fan, where flooding a
// fragment tree would cost Θ(n), and on knn graphs.
func TestScalingMSTStageShape(t *testing.T) {
	const mstShapeC = 2.0
	type workload struct {
		kind string
		n    int
	}
	cases := []workload{{"lbfan", 1024}, {"lbfan", 4096}, {"knn", 5000}}
	if !testing.Short() {
		cases = append(cases, workload{"lbfan", 16384}, workload{"knn", 20000})
	}
	for _, c := range cases {
		g, err := experiments.BuildWorkload(c.kind, c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var depth int32
		for _, d := range g.BFSHops(0) {
			depth = max(depth, d)
		}
		limit := mstShapeC * (math.Sqrt(float64(c.n)) + float64(depth)) * math.Log2(float64(c.n))
		s, err := BuildSLT(g, 0, 0.5, WithSeed(1), WithMeasured(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := BuildLightSpanner(g, 2, 0.25, WithSeed(1), WithMeasured(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name string
			cost Cost
		}{{"slt", s.Cost}, {"spanner", sp.Cost}} {
			var rounds int64 = -1
			for _, st := range p.cost.Stages {
				if st.Stage == "mst" {
					rounds = st.Rounds
				}
			}
			t.Logf("%s n=%d %s: mst %d rounds, D=%d, bound %.0f", c.kind, c.n, p.name, rounds, depth, limit)
			if rounds < 0 || float64(rounds) > limit {
				t.Fatalf("%s n=%d %s: mst stage took %d rounds, want <= %g·(√n + %d)·log₂n = %.0f",
					c.kind, c.n, p.name, rounds, mstShapeC, depth, limit)
			}
		}
	}
}
