package congest

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"lightnet/internal/graph"
)

// workerCounts are the pool sizes the determinism tests compare. The
// engine contract is bit-identical Stats, outputs and RNG streams for
// every worker count; 1 is the sequential reference. The set covers
// odd counts that divide the vertex ranges unevenly (3, 7) and pools
// larger than typical CI core counts (16), where workers contend for
// OS threads and interleave unpredictably.
var workerCounts = []int{1, 2, 3, 7, 8, 16}

// runBFSWorkers runs the BFS program with a fixed seed and worker count.
func runBFSWorkers(t *testing.T, g *graph.Graph, workers int) ([]int32, []graph.EdgeID, Stats) {
	t.Helper()
	parent := make([]graph.EdgeID, g.N())
	depth := make([]int32, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &bfsProgram{root: 0, depth: depth, parent: parent}
	}, Options{Seed: 7, Workers: workers})
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return depth, parent, stats
}

// TestEngineDeterministicBFS: identical depths, parents and full Stats
// for every worker count.
func TestEngineDeterministicBFS(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.03, 9, 11)
	refDepth, refParent, refStats := runBFSWorkers(t, g, 1)
	for _, w := range workerCounts[1:] {
		depth, parent, stats := runBFSWorkers(t, g, w)
		if stats != refStats {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", w, stats, refStats)
		}
		for v := range refDepth {
			if depth[v] != refDepth[v] || parent[v] != refParent[v] {
				t.Fatalf("workers=%d vertex %d: depth/parent differ", w, v)
			}
		}
	}
}

// TestEngineDeterministicBoruvka: the built subgraph (MST edge set) must
// be identical for every worker count. Also the designated -race
// exercise of the worker pool on the MST program.
func TestEngineDeterministicBoruvka(t *testing.T) {
	g := graph.RandomGeometric(300, 2, 13)
	run := func(workers int) ([]graph.EdgeID, Stats) {
		edges, stats, err := RunMSTWorkers(g, 5, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return edges, stats
	}
	refTree, refStats := run(1)
	for _, w := range workerCounts[1:] {
		tree, stats := run(w)
		if stats != refStats {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", w, stats, refStats)
		}
		if !slices.Equal(tree, refTree) {
			t.Fatalf("workers=%d: MST edge sets differ", w)
		}
	}
}

// TestEngineDeterministicMIS: the randomized program must consume
// identical per-vertex RNG streams regardless of scheduling, so the MIS
// (and the phase count) must match exactly. Also the designated -race
// exercise of the worker pool on the MIS program.
func TestEngineDeterministicMIS(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.04, 9, 17)
	run := func(workers int) ([]bool, Stats) {
		inMIS := make([]bool, g.N())
		eng := NewEngine(g, func(graph.Vertex) Program {
			return &misProgram{inMIS: inMIS}
		}, Options{Seed: 3, Workers: workers, MaxRounds: 64*g.N() + 4096})
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return inMIS, stats
	}
	refMIS, refStats := run(1)
	for _, w := range workerCounts[1:] {
		mis, stats := run(w)
		if stats != refStats {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", w, stats, refStats)
		}
		for v := range refMIS {
			if mis[v] != refMIS[v] {
				t.Fatalf("workers=%d vertex %d: MIS membership differs", w, v)
			}
		}
	}
	// Sanity: the set really is a maximal independent set.
	for id := 0; id < g.M(); id++ {
		ed := g.Edge(graph.EdgeID(id))
		if refMIS[ed.U] && refMIS[ed.V] {
			t.Fatalf("edge %d: both endpoints in MIS", id)
		}
	}
}

// TestEngineWorkersDefault: the zero value asks for GOMAXPROCS workers,
// and negative values clamp to sequential.
func TestEngineWorkersDefault(t *testing.T) {
	g := graph.Path(8, 1)
	for _, w := range []int{0, -3} {
		eng := NewEngine(g, func(graph.Vertex) Program {
			return &floodMinProgram{min: make([]int64, g.N())}
		}, Options{Workers: w})
		if eng.opts.Workers < 1 {
			t.Fatalf("Workers=%d not normalized: %d", w, eng.opts.Workers)
		}
	}
}

// TestEngineDuplicateSendRejected: the buffered send path must still
// enforce the one-message-per-edge-direction-per-round CONGEST rule
// when the pool is active.
func TestEngineDuplicateSendRejected(t *testing.T) {
	g := graph.Path(2, 1)
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &doubleSendProgram{}
	}, Options{Workers: 4})
	if _, err := eng.Run(); err == nil {
		t.Fatal("duplicate send on one edge direction not rejected")
	}
}

// benchGraph is the ≥2048-vertex workload of the speedup benchmark: an
// Erdős–Rényi graph dense enough that per-round handler work dominates
// the sequential delivery scan.
func benchGraph() *graph.Graph {
	return graph.ErdosRenyi(2048, 24.0/2048, 9, 1)
}

// BenchmarkEngineWorkers measures the multi-core speedup of the worker
// pool on the Luby MIS program (map-heavy handlers, many active
// vertices per round).
func BenchmarkEngineWorkers(b *testing.B) {
	g := benchGraph()
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inMIS := make([]bool, g.N())
				eng := NewEngine(g, func(graph.Vertex) Program {
					return &misProgram{inMIS: inMIS}
				}, Options{Seed: 3, Workers: workers, MaxRounds: 64*g.N() + 4096})
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEngineDeterministicUnderGOMAXPROCS1: a many-worker pool starved
// down to a single OS thread serialises its goroutines in whatever
// order the runtime picks — the strongest scheduling distortion
// available in-process. Outputs and Stats must still match the
// unconstrained run bit-for-bit.
func TestEngineDeterministicUnderGOMAXPROCS1(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.03, 9, 11)
	refDepth, refParent, refStats := runBFSWorkers(t, g, 8)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	depth, parent, stats := runBFSWorkers(t, g, 8)
	if stats != refStats {
		t.Fatalf("GOMAXPROCS=1 stats differ: %+v vs %+v", stats, refStats)
	}
	for v := range refDepth {
		if depth[v] != refDepth[v] || parent[v] != refParent[v] {
			t.Fatalf("GOMAXPROCS=1 vertex %d: depth/parent differ", v)
		}
	}
}
