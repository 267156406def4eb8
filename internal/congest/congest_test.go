package congest

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"lightnet/internal/graph"
)

func TestRunBFSCorrectAndDLimited(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		root graph.Vertex
	}{
		{"path", graph.Path(40, 1), 0},
		{"grid", graph.Grid(6, 7, 3, 1), 5},
		{"er", graph.ErdosRenyi(80, 0.08, 5, 2), 11},
		{"star", graph.Star(30, 1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			parent, depth, stats, err := RunBFS(tt.g, tt.root, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := tt.g.BFSHops(tt.root)
			for v := range depth {
				if depth[v] != want[v] {
					t.Fatalf("depth[%d]=%d want %d", v, depth[v], want[v])
				}
				if graph.Vertex(v) != tt.root && parent[v] == graph.NoEdge {
					t.Fatalf("vertex %d has no parent", v)
				}
				if graph.Vertex(v) != tt.root {
					u := tt.g.Edge(parent[v]).Other(graph.Vertex(v))
					if depth[u] != depth[v]-1 {
						t.Fatalf("parent depth inconsistent at %d", v)
					}
				}
			}
			ecc := tt.g.HopEccentricity(tt.root)
			if stats.Rounds > 2*ecc+4 {
				t.Fatalf("BFS took %d rounds for eccentricity %d", stats.Rounds, ecc)
			}
		})
	}
}

func TestRunFloodMin(t *testing.T) {
	g := graph.ErdosRenyi(60, 0.1, 4, 3)
	min, stats, err := RunFloodMin(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range min {
		if m != 0 {
			t.Fatalf("vertex %d learned min %d", v, m)
		}
	}
	if d := g.HopDiameter(); stats.Rounds > d+3 {
		t.Fatalf("flood-min took %d rounds, diameter %d", stats.Rounds, d)
	}
}

// Lemma 1: M tokens broadcast to all vertices in O(M + D) rounds.
func TestBroadcastAllLemma1(t *testing.T) {
	g := graph.Grid(8, 8, 2, 1)
	tokens := map[graph.Vertex][]int64{}
	var all []int64
	m := 0
	for v := 0; v < g.N(); v += 7 {
		tok := []int64{int64(1000 + v), int64(2000 + v)}
		tokens[graph.Vertex(v)] = tok
		all = append(all, tok...)
		m += 2
	}
	recv, stats, err := RunBroadcastAll(g, tokens, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, tok := range all {
			if !recv[v][tok] {
				t.Fatalf("vertex %d missing token %d", v, tok)
			}
		}
		if len(recv[v]) != m {
			t.Fatalf("vertex %d has %d tokens, want %d", v, len(recv[v]), m)
		}
	}
	d := g.HopDiameter()
	if stats.Rounds > 3*(m+d)+8 {
		t.Fatalf("broadcast of %d tokens took %d rounds (D=%d), want O(M+D)", m, stats.Rounds, d)
	}
}

func TestBroadcastAllScalesLinearlyInM(t *testing.T) {
	g := graph.Path(50, 1)
	mk := func(m int) int {
		tokens := map[graph.Vertex][]int64{}
		for i := 0; i < m; i++ {
			tokens[graph.Vertex(25)] = append(tokens[25], int64(i+100))
		}
		_, stats, err := RunBroadcastAll(g, tokens, 1)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Rounds
	}
	r10, r40 := mk(10), mk(40)
	// Pipelined: rounds ≈ M + D/2, so Δrounds ≈ ΔM.
	if d := r40 - r10; d < 20 || d > 60 {
		t.Fatalf("rounds m=10: %d, m=40: %d; pipelining broken", r10, r40)
	}
}

func TestConvergecastSum(t *testing.T) {
	g := graph.Grid(5, 9, 2, 1)
	values := make([]int64, g.N())
	var want int64
	for v := range values {
		values[v] = int64(v * v % 13)
		want += values[v]
	}
	got, stats, err := RunConvergecastSum(g, 3, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %d want %d", got, want)
	}
	if d := g.HopDiameter(); stats.Rounds > 4*d+10 {
		t.Fatalf("convergecast took %d rounds for D=%d", stats.Rounds, d)
	}
}

func TestRunBellmanFordExactWhenHLarge(t *testing.T) {
	g := graph.ErdosRenyi(70, 0.1, 9, 5)
	dist, _, err := RunBellmanFord(g, 0, g.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Dijkstra(0).Dist
	for v := range dist {
		if math.Abs(dist[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d]=%v want %v", v, dist[v], want[v])
		}
	}
}

func TestRunBellmanFordHopBounded(t *testing.T) {
	g := graph.ErdosRenyi(50, 0.12, 7, 9)
	for _, h := range []int{1, 2, 4, 8} {
		dist, stats, err := RunBellmanFord(g, 3, h, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := g.BellmanFordHops(3, h)
		for v := range dist {
			if math.Abs(dist[v]-want[v]) > 1e-9 && !(math.IsInf(dist[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("h=%d dist[%d]=%v want %v", h, v, dist[v], want[v])
			}
		}
		if stats.Rounds > h+3 {
			t.Fatalf("h=%d took %d rounds", h, stats.Rounds)
		}
	}
}

func TestRunBoruvkaMatchesKruskalWeight(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(30, 2)},
		{"cycle", graph.Cycle(25, 1)},
		{"grid", graph.Grid(6, 6, 5, 3)},
		{"er-sparse", graph.ErdosRenyi(60, 0.08, 9, 4)},
		{"er-dense", graph.ErdosRenyi(40, 0.3, 9, 5)},
		{"geometric", graph.RandomGeometric(64, 2, 6)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			edges, stats, err := RunMST(tt.g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(edges) != tt.g.N()-1 {
				t.Fatalf("MST has %d edges, want %d", len(edges), tt.g.N()-1)
			}
			sub := tt.g.Subgraph(edges)
			if !sub.Connected() {
				t.Fatal("MST output disconnected")
			}
			want := kruskalWeight(tt.g)
			if got := tt.g.WeightOf(edges); math.Abs(got-want) > 1e-9 {
				t.Fatalf("MST weight %v, Kruskal weight %v", got, want)
			}
			if stats.Phases < 3 {
				t.Fatalf("suspiciously few phases: %d", stats.Phases)
			}
		})
	}
}

// kruskalWeight is a local reference implementation (the full one lives
// in internal/mst which depends on this package's ledger — keep the
// test dependency-free).
func kruskalWeight(g *graph.Graph) float64 {
	type we struct {
		w  float64
		id graph.EdgeID
	}
	edges := make([]we, g.M())
	for i, e := range g.Edges() {
		edges[i] = we{e.W, graph.EdgeID(i)}
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && (edges[j].w < edges[j-1].w || (edges[j].w == edges[j-1].w && edges[j].id < edges[j-1].id)); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	var total float64
	for _, e := range edges {
		ed := g.Edge(e.id)
		ru, rv := find(int(ed.U)), find(int(ed.V))
		if ru != rv {
			parent[ru] = rv
			total += ed.W
		}
	}
	return total
}

func TestRunLubyMIS(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(50, 1)},
		{"star", graph.Star(20, 1)},
		{"er", graph.ErdosRenyi(80, 0.1, 3, 7)},
		{"complete", graph.Complete(15, 4, 8)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inMIS, stats, err := RunLubyMIS(tt.g, 42)
			if err != nil {
				t.Fatal(err)
			}
			// Independence.
			for _, e := range tt.g.Edges() {
				if inMIS[e.U] && inMIS[e.V] {
					t.Fatalf("edge {%d,%d} has both endpoints in MIS", e.U, e.V)
				}
			}
			// Maximality.
			for v := 0; v < tt.g.N(); v++ {
				if inMIS[v] {
					continue
				}
				dominated := false
				for _, h := range tt.g.Neighbors(graph.Vertex(v)) {
					if inMIS[h.To] {
						dominated = true
						break
					}
				}
				if !dominated {
					t.Fatalf("vertex %d not in MIS and not dominated", v)
				}
			}
			if stats.Phases > 40 {
				t.Fatalf("MIS took %d phases", stats.Phases)
			}
		})
	}
}

func TestEN17SpannerStretchAndSize(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := graph.ErdosRenyi(90, 0.25, 2, int64(10+k))
		edges, stats, err := RunEN17Spanner(g, k, 17)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds > k+3 {
			t.Fatalf("EN17 k=%d took %d rounds", k, stats.Rounds)
		}
		// Stretch on the unweighted metric: checking every graph edge
		// suffices by the triangle inequality.
		sub := g.Subgraph(edges)
		unitSub, err := sub.Reweighted(func(graph.EdgeID, graph.Edge) float64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		bound := int32(2*k - 1)
		hopsFrom := make(map[graph.Vertex][]int32)
		for _, e := range g.Edges() {
			hops, ok := hopsFrom[e.U]
			if !ok {
				hops = unitSub.BFSHops(e.U)
				hopsFrom[e.U] = hops
			}
			if hops[e.V] < 0 || hops[e.V] > bound {
				t.Fatalf("k=%d edge {%d,%d} stretched to %d hops (bound %d)",
					k, e.U, e.V, hops[e.V], bound)
			}
		}
		// Size sanity: must be well below the full edge set on a dense
		// graph and at least a spanning structure.
		if len(edges) < g.N()-1 {
			t.Fatalf("spanner too small to span: %d", len(edges))
		}
		if len(edges) >= g.M() {
			t.Fatalf("spanner did not sparsify: %d of %d", len(edges), g.M())
		}
	}
}

func TestEngineEnforcesMessageSize(t *testing.T) {
	g := graph.Path(2, 1)
	eng := NewEngine(g, func(graph.Vertex) Program { return &oversizeProgram{} },
		Options{MaxWords: 2})
	_, err := eng.Run()
	if !errors.Is(err, ErrProgramFailure) {
		t.Fatalf("want ErrProgramFailure, got %v", err)
	}
}

type oversizeProgram struct{ NoPhases }

func (p *oversizeProgram) Init(ctx *Ctx) {
	if err := ctx.Broadcast(1, 2, 3); err != nil {
		ctx.Fail(err)
	}
}
func (p *oversizeProgram) Handle(*Ctx, []Message) {}

func TestEngineEnforcesOneMessagePerEdge(t *testing.T) {
	g := graph.Path(2, 1)
	eng := NewEngine(g, func(graph.Vertex) Program { return &doubleSendProgram{} }, Options{})
	_, err := eng.Run()
	if !errors.Is(err, ErrProgramFailure) {
		t.Fatalf("want ErrProgramFailure, got %v", err)
	}
}

type doubleSendProgram struct{ NoPhases }

func (p *doubleSendProgram) Init(ctx *Ctx) {
	if len(ctx.Neighbors()) == 0 {
		return
	}
	id := ctx.Neighbors()[0].ID
	if err := ctx.Send(id, 1); err != nil {
		ctx.Fail(err)
		return
	}
	if err := ctx.Send(id, 2); err != nil {
		ctx.Fail(err) // expected path
	}
}
func (p *doubleSendProgram) Handle(*Ctx, []Message) {}

func TestEngineRoundLimit(t *testing.T) {
	g := graph.Path(3, 1)
	eng := NewEngine(g, func(graph.Vertex) Program { return &pingPongProgram{} },
		Options{MaxRounds: 10})
	_, err := eng.Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
}

type pingPongProgram struct{ NoPhases }

func (p *pingPongProgram) Init(ctx *Ctx) {
	_ = ctx.Broadcast(0)
}
func (p *pingPongProgram) Handle(ctx *Ctx, inbox []Message) {
	_ = ctx.Broadcast(0) // bounce forever
}

func TestEngineSendToNonNeighbor(t *testing.T) {
	g := graph.Path(3, 1) // 0-1-2: 0 and 2 not adjacent
	eng := NewEngine(g, func(v graph.Vertex) Program { return &nonNeighborProgram{} }, Options{})
	_, err := eng.Run()
	if !errors.Is(err, ErrProgramFailure) {
		t.Fatalf("want ErrProgramFailure, got %v", err)
	}
}

type nonNeighborProgram struct{ NoPhases }

func (p *nonNeighborProgram) Init(ctx *Ctx) {
	if ctx.V() != 0 {
		return
	}
	if err := ctx.SendTo(2, 1); err != nil {
		ctx.Fail(err) // expected
	}
}
func (p *nonNeighborProgram) Handle(*Ctx, []Message) {}

func TestEngineDeterminism(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.15, 5, 3)
	e1, s1, err1 := RunEN17Spanner(g, 2, 5)
	e2, s2, err2 := RunEN17Spanner(g, 2, 5)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.Rounds != s2.Rounds || s1.Messages != s2.Messages || len(e1) != len(e2) {
		t.Fatal("same seed produced different runs")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed produced different spanners")
		}
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Charge("a", 5)
	l.Charge("b", 3)
	l.Charge("a", 2)
	l.ChargeBroadcast("bc", 10, 4)
	if l.Rounds() != 5+3+2+14 {
		t.Fatalf("rounds = %d", l.Rounds())
	}
	if l.ByLabel()["a"] != 7 {
		t.Fatalf("label a = %d", l.ByLabel()["a"])
	}
	if l.Messages() != 10*5 {
		t.Fatalf("messages = %d", l.Messages())
	}
	other := NewLedger()
	other.Charge("a", 1)
	other.ChargeMessages(7)
	l.Merge(other)
	if l.ByLabel()["a"] != 8 || l.Messages() != 57 {
		t.Fatalf("merge wrong: %s", l.String())
	}
	if s := l.String(); s == "" {
		t.Fatal("empty string")
	}
	l.Charge("neg", -5)
	if l.ByLabel()["neg"] != 0 {
		t.Fatal("negative charge must clamp to 0")
	}
}

// Property: the distributed MST equals Kruskal on random graphs.
func TestBoruvkaKruskalQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 15 + int(uint64(seed)%20)
		g := graph.ErdosRenyi(n, 0.2, 8, seed)
		edges, _, err := RunMST(g, seed)
		if err != nil {
			return false
		}
		return math.Abs(g.WeightOf(edges)-kruskalWeight(g)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
