package spanner

import (
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
	"lightnet/internal/metrics"
)

// TestSpannerFaultedConvergesBitIdentical: under a seeded message-fault
// plan the per-stage oracle validators force every stage to converge to
// the fault-free outputs, so the faulted measured spanner equals the
// clean one bit-for-bit — at every worker count. The fault diagnostics
// (retries, injector counters) are themselves part of the deterministic
// output and must agree across worker counts too.
func TestSpannerFaultedConvergesBitIdentical(t *testing.T) {
	g := graph.ErdosRenyi(60, 0.12, 20, 11)
	k, eps := 2, 0.5
	clean, err := BuildLight(g, k, eps, Options{Seed: 7, Mode: Measured})
	if err != nil {
		t.Fatal(err)
	}
	// Rates are chosen so loss-sensitive stages (the convergecast loses a
	// subtree per dropped message and fails on a late child announcement;
	// the clustering rounds desync under delay) get
	// a clean attempt within the retry budget: the stream is seeded, so
	// the whole suite is deterministic at every worker count.
	plan := &congest.FaultPlan{Seed: 5, Drop: 0.002, Duplicate: 0.002, Delay: 0.01, MaxDelay: 2}
	var base *Result
	for _, w := range []int{1, 2, 3, 7, 8, 16} {
		res, err := BuildLight(g, k, eps, Options{
			Seed: 7, Mode: Measured, Workers: w, Faults: plan.Clone(), StageRetries: 25,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireSameSpanner(t, clean, res)
		if res.Survivors != g.N() || res.Alive != nil {
			t.Fatalf("workers=%d: no crashes, but survivors=%d alive=%v", w, res.Survivors, res.Alive)
		}
		if res.Faults == (congest.FaultStats{}) {
			t.Fatalf("workers=%d: fault plan active but no faults recorded", w)
		}
		if base == nil {
			base = res
			continue
		}
		if res.PipelineRetries != base.PipelineRetries || res.Faults != base.Faults {
			t.Fatalf("workers=%d: fault diagnostics differ: (%d,%+v) vs (%d,%+v)",
				w, res.PipelineRetries, res.Faults, base.PipelineRetries, base.Faults)
		}
	}
}

// TestSpannerEmptyFaultPlanIsNoop: a zero-valued plan is inactive — the
// result is the plain measured result, fault fields unset.
func TestSpannerEmptyFaultPlanIsNoop(t *testing.T) {
	g := graph.RandomGeometric(64, 2, 13)
	clean, err := BuildLight(g, 2, 0.5, Options{Seed: 3, Mode: Measured})
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildLight(g, 2, 0.5, Options{Seed: 3, Mode: Measured, Faults: &congest.FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	requireSameSpanner(t, clean, res)
	if res.Survivors != 0 || res.PipelineRetries != 0 || res.Faults != (congest.FaultStats{}) {
		t.Fatalf("empty plan set fault diagnostics: %+v", res)
	}
}

// TestSpannerDegradesToSurvivingComponent: crash-stop faults restrict
// the pipeline to the root's surviving component, and the degraded
// output still certifies as a (2k−1)-spanner of that subgraph.
func TestSpannerDegradesToSurvivingComponent(t *testing.T) {
	g := graph.RandomGeometric(80, 2, 9)
	k, eps := 2, 0.25
	plan := &congest.FaultPlan{Crashes: []congest.Crash{{Vertex: 17}, {Vertex: 40}, {Vertex: 63}}}
	res, err := BuildLight(g, k, eps, Options{Seed: 11, Mode: Measured, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	dead := plan.CrashStopped(g.N())
	alive := g.ComponentMask(0, dead)
	want := 0
	for _, a := range alive {
		if a {
			want++
		}
	}
	if want == g.N() {
		t.Fatal("test graph not degraded: crashes disconnect nothing")
	}
	if res.Survivors != want {
		t.Fatalf("survivors %d, want %d", res.Survivors, want)
	}
	for v, a := range alive {
		if res.Alive[v] != a {
			t.Fatalf("alive mask differs at %d", v)
		}
	}
	var aliveIDs []graph.EdgeID
	for id, e := range g.Edges() {
		if alive[e.U] && alive[e.V] {
			aliveIDs = append(aliveIDs, graph.EdgeID(id))
		}
	}
	inAlive := make(map[graph.EdgeID]bool, len(aliveIDs))
	for _, id := range aliveIDs {
		inAlive[id] = true
	}
	for _, id := range res.Edges {
		if !inAlive[id] {
			t.Fatalf("spanner edge %d leaves the surviving component", id)
		}
	}
	// Quality gate on the survivors: every surviving edge is stretched at
	// most (2k−1)(1+O(ε)) by the degraded spanner.
	maxS, _, err := metrics.EdgeStretch(g.Subgraph(aliveIDs), g.Subgraph(res.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2*k-1)*(1+4*eps) + 1e-9; maxS > bound {
		t.Fatalf("degraded stretch %v > %v", maxS, bound)
	}
}

// TestSpannerRootCrashRejected: a plan that crash-stops the root cannot
// degrade — there is no surviving component to certify.
func TestSpannerRootCrashRejected(t *testing.T) {
	g := graph.Cycle(8, 1)
	plan := &congest.FaultPlan{Crashes: []congest.Crash{{Vertex: 0}}}
	if _, err := BuildLight(g, 2, 0.5, Options{Mode: Measured, Faults: plan}); err == nil {
		t.Fatal("root crash-stop accepted")
	}
	// Accounted mode exchanges no messages: fault plans are rejected.
	if _, err := BuildLight(g, 2, 0.5, Options{Faults: &congest.FaultPlan{Drop: 0.1}}); err == nil {
		t.Fatal("fault plan accepted in accounted mode")
	}
}
