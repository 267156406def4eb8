package slt

// Measured-pipeline determinism suite, the slt-level extension of the
// engine's determinism_test.go contract: the measured SLT must produce
// bit-identical trees, per-stage statistics and RNG streams for every
// worker-pool size. Run under -race this also exercises the worker pool
// across all thirteen pipeline stages.

import (
	"runtime"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

// workerCounts mirrors the engine determinism suite: 1 is the
// sequential reference; odd counts (3, 7) split vertex ranges unevenly
// and 16 oversubscribes typical CI runners.
var workerCounts = []int{1, 2, 3, 7, 8, 16}

func TestMeasuredDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er", graph.ErdosRenyi(150, 0.06, 9, 11)},
		{"geometric", graph.RandomGeometric(120, 2, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Result {
				res, err := Build(tc.g, 0, 0.5, Options{Seed: 7, Mode: Measured, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			ref := run(workerCounts[0])
			for _, w := range workerCounts[1:] {
				got := run(w)
				requireSameResult(t, ref, got)
				if len(got.Stages) != len(ref.Stages) {
					t.Fatalf("workers=%d: %d stages vs %d", w, len(got.Stages), len(ref.Stages))
				}
				for i := range ref.Stages {
					if !sameStage(got.Stages[i], ref.Stages[i]) {
						t.Fatalf("workers=%d stage %q stats differ: %+v vs %+v",
							w, ref.Stages[i].Name, got.Stages[i], ref.Stages[i])
					}
				}
			}
		})
	}
}

// TestMeasuredDeterministicUnderGOMAXPROCS1: the 8-worker pipeline on a
// single OS thread (fully serialised goroutine scheduling) must match
// the unconstrained 8-worker run bit-for-bit.
func TestMeasuredDeterministicUnderGOMAXPROCS1(t *testing.T) {
	g := graph.ErdosRenyi(150, 0.06, 9, 11)
	run := func() *Result {
		res, err := Build(g, 0, 0.5, Options{Seed: 7, Mode: Measured, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	got := run()
	requireSameResult(t, ref, got)
	for i := range ref.Stages {
		if !sameStage(got.Stages[i], ref.Stages[i]) {
			t.Fatalf("GOMAXPROCS=1 stage %q stats differ: %+v vs %+v",
				ref.Stages[i].Name, got.Stages[i], ref.Stages[i])
		}
	}
}

// sameStage compares the deterministic fields of two stage records;
// Wall is host time and differs between runs.
func sameStage(a, b congest.StageStats) bool {
	return a.Name == b.Name && a.Stats == b.Stats && a.Attempts == b.Attempts
}
