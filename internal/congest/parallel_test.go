package congest

import (
	"testing"

	"lightnet/internal/graph"
)

// Parallel execution must be bit-identical to sequential execution.
func TestParallelMatchesSequentialBFS(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.05, 6, 3)
	run := func(workers int) ([]int32, Stats) {
		parent := make([]graph.EdgeID, g.N())
		depth := make([]int32, g.N())
		eng := NewEngine(g, func(graph.Vertex) Program {
			return &bfsProgram{root: 0, depth: depth, parent: parent}
		}, Options{Seed: 1, Workers: workers})
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return depth, stats
	}
	seqDepth, seqStats := run(0)
	parDepth, parStats := run(4)
	for v := range seqDepth {
		if seqDepth[v] != parDepth[v] {
			t.Fatalf("depth[%d] differs: %d vs %d", v, seqDepth[v], parDepth[v])
		}
	}
	if seqStats.Rounds != parStats.Rounds || seqStats.Messages != parStats.Messages {
		t.Fatalf("stats differ: %+v vs %+v", seqStats, parStats)
	}
}

func TestParallelMatchesSequentialBoruvka(t *testing.T) {
	g := graph.RandomGeometric(150, 2, 5)
	run := func(workers int) ([]graph.EdgeID, Stats) {
		edges, stats, err := RunMSTWorkers(g, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		return edges, stats
	}
	seqE, seqS := run(1)
	parE, parS := run(8)
	if len(seqE) != len(parE) {
		t.Fatalf("edge counts differ: %d vs %d", len(seqE), len(parE))
	}
	for i := range seqE {
		if seqE[i] != parE[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if seqS.Rounds != parS.Rounds {
		t.Fatalf("rounds differ: %d vs %d", seqS.Rounds, parS.Rounds)
	}
}

func TestParallelFailurePropagates(t *testing.T) {
	g := graph.Path(64, 1)
	eng := NewEngine(g, func(graph.Vertex) Program { return &pingPongProgram{} },
		Options{MaxRounds: 5, Workers: 4})
	if _, err := eng.Run(); err == nil {
		t.Fatal("round limit not enforced under parallel execution")
	}
}

func BenchmarkEngineParallelism(b *testing.B) {
	g := graph.Grid(40, 40, 2, 1)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "sequential", 4: "workers-4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parent := make([]graph.EdgeID, g.N())
				depth := make([]int32, g.N())
				eng := NewEngine(g, func(graph.Vertex) Program {
					return &bfsProgram{root: 0, depth: depth, parent: parent}
				}, Options{Seed: 1, Workers: workers})
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
