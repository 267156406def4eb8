package congest

import (
	"testing"

	"lightnet/internal/graph"
)

// TestConvergecastPasses: a max pass followed by a sum pass that reads
// the max gives the sequential fold's values at every worker count,
// within 1 + D rounds for the first pass and 2D for the second (D the
// BFS tree's depth).
func TestConvergecastPasses(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		root graph.Vertex
	}{
		{"er", graph.ErdosRenyi(90, 0.06, 20, 3), 0},
		{"geometric", graph.RandomGeometric(120, 2, 5), 17},
		{"grid", graph.Grid(7, 11, 3, 2), 38},
		{"path", graph.Path(40, 1), 0},
	}
	for _, tg := range graphs {
		g, root := tg.g, tg.root
		n := g.N()
		term := func(v graph.Vertex) int64 { return int64((v*7919)%101) - 50 }
		passes := []CastPass{
			{Max: true, Term: func(v graph.Vertex, _ int64) int64 { return term(v) }},
			{Term: func(v graph.Vertex, hi int64) int64 { return hi - term(v) }},
		}
		// Sequential fold over the vertices the BFS reaches (all of them:
		// the test graphs are connected).
		wantMax := term(0)
		for v := 1; v < n; v++ {
			wantMax = max(wantMax, term(graph.Vertex(v)))
		}
		var wantSum int64
		for v := 0; v < n; v++ {
			wantSum += wantMax - term(graph.Vertex(v))
		}
		for _, workers := range []int{1, 2, 3, 8} {
			pipe := NewPipeline(g, Options{Seed: 1, Workers: workers})
			var pools StagePools
			parent := make([]graph.EdgeID, n)
			depth := make([]int32, n)
			if _, err := pipe.RunStage("bfs", pools.BFS(n, root, parent, depth)); err != nil {
				t.Fatal(err)
			}
			out := make([]int64, len(passes))
			stats, err := pipe.RunStage("cast", pools.Convergecast(n, root, parent, passes, out))
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != wantMax || out[1] != wantSum {
				t.Fatalf("%s workers=%d: got (%d, %d), want (%d, %d)", tg.name, workers, out[0], out[1], wantMax, wantSum)
			}
			d := int(maxDepth(depth))
			if stats.Rounds > 3*d+2 {
				t.Fatalf("%s workers=%d: %d rounds at BFS depth %d, want <= 3D+2", tg.name, workers, stats.Rounds, d)
			}
			if want := int64(4 * (n - 1)); stats.Messages != want {
				t.Fatalf("%s workers=%d: %d messages, want %d (announce, up, down, up)", tg.name, workers, stats.Messages, want)
			}
		}
	}
}

// TestConvergecastOrderFree: the result depends on the terms only, not
// on the tree — a BFS tree and a path-shaped spanning tree of the same
// graph give the same words.
func TestConvergecastOrderFree(t *testing.T) {
	g := graph.Grid(6, 6, 1, 1)
	n := g.N()
	passes := []CastPass{{Term: func(v graph.Vertex, _ int64) int64 { return int64(v) * 1000003 }}}
	run := func(restrict []bool) int64 {
		pipe := NewPipeline(g, Options{Seed: 1})
		var pools StagePools
		parent := make([]graph.EdgeID, n)
		depth := make([]int32, n)
		var so []StageOption
		if restrict != nil {
			so = append(so, Restrict(restrict))
		}
		if _, err := pipe.RunStage("bfs", pools.BFS(n, 0, parent, depth), so...); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 1)
		if _, err := pipe.RunStage("cast", pools.Convergecast(n, 0, parent, passes, out), so...); err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	// A snake through the grid's rows, as an edge mask: every row edge,
	// and the column edge that leaves row r at its right end (r even) or
	// its left end (r odd).
	snake := make([]bool, g.M())
	for id, e := range g.Edges() {
		r, c := int(e.U)/6, int(e.U)%6
		horizontal := int(e.V)/6 == r
		turn := r%2 == 0 && c == 5 || r%2 == 1 && c == 0
		snake[id] = horizontal || turn
	}
	if a, b := run(nil), run(snake); a != b {
		t.Fatalf("BFS tree gave %d, snake tree gave %d", a, b)
	}
}

func maxDepth(depth []int32) int32 {
	var d int32
	for _, x := range depth {
		d = max(d, x)
	}
	return d
}

// TestConvergecastIgnoresDuplicates: duplicated deliveries are dropped
// by the receiver, so a heavily duplicating network still gives the
// exact sum in one attempt.
func TestConvergecastIgnoresDuplicates(t *testing.T) {
	g := graph.RandomGeometric(120, 2, 5)
	n := g.N()
	pipe := NewPipeline(g, Options{Seed: 1, Faults: &FaultPlan{Seed: 3, Duplicate: 0.3}})
	var pools StagePools
	parent := make([]graph.EdgeID, n)
	if _, err := pipe.RunStage("bfs", pools.BFS(n, 0, parent, make([]int32, n))); err != nil {
		t.Fatal(err)
	}
	passes := []CastPass{
		{Max: true, Term: func(v graph.Vertex, _ int64) int64 { return int64(v % 17) }},
		{Term: func(v graph.Vertex, hi int64) int64 { return hi + int64(v) }},
	}
	out := make([]int64, len(passes))
	if _, err := pipe.RunStage("cast", pools.Convergecast(n, 0, parent, passes, out)); err != nil {
		t.Fatal(err)
	}
	want := int64(16*n + n*(n-1)/2)
	if out[0] != 16 || out[1] != want {
		t.Fatalf("got (%d, %d), want (16, %d)", out[0], out[1], want)
	}
	if pipe.FaultStats().Duplicated == 0 {
		t.Fatal("fault plan duplicated nothing")
	}
}
