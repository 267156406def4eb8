package congest

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lightnet/internal/graph"
)

// Receiver-aware relaxation (Ctx.BroadcastExcept) must change only what
// is sent, never what is computed. These tests keep the always-broadcast
// form of every pruned program as an oracle twin, run both on the same
// graph under the same fault plan and worker count, and require
// identical outputs with no more rounds and no more messages.

// alwaysBFS is bfsProgram before pruning: every improvement is
// re-broadcast to every neighbour.
type alwaysBFS struct {
	NoPhases
	root   graph.Vertex
	depth  []int32
	parent []graph.EdgeID
}

func (p *alwaysBFS) Init(ctx *Ctx) {
	v := ctx.V()
	p.depth[v] = -1
	p.parent[v] = graph.NoEdge
	if v == p.root {
		p.depth[v] = 0
		if err := ctx.Broadcast(0); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *alwaysBFS) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	improved := false
	for _, m := range inbox {
		d := int32(m.Words[0]) + 1
		if p.depth[v] < 0 || d < p.depth[v] {
			p.depth[v] = d
			p.parent[v] = m.Via
			improved = true
		}
	}
	if improved {
		if err := ctx.Broadcast(int64(p.depth[v])); err != nil {
			ctx.Fail(err)
		}
	}
}

// alwaysFloodMin is floodMinProgram before pruning.
type alwaysFloodMin struct {
	NoPhases
	min []int64
}

func (p *alwaysFloodMin) Init(ctx *Ctx) {
	p.min[ctx.V()] = int64(ctx.V())
	if err := ctx.Broadcast(p.min[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}

func (p *alwaysFloodMin) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	improved := false
	for _, m := range inbox {
		if m.Words[0] < p.min[v] {
			p.min[v] = m.Words[0]
			improved = true
		}
	}
	if improved {
		if err := ctx.Broadcast(p.min[v]); err != nil {
			ctx.Fail(err)
		}
	}
}

// alwaysFloodWord is floodWordProgram before pruning.
type alwaysFloodWord struct {
	NoPhases
	src  graph.Vertex
	word int64
	out  []int64
	have bool
}

func (p *alwaysFloodWord) Init(ctx *Ctx) {
	if ctx.V() == p.src {
		p.have = true
		p.out[ctx.V()] = p.word
		if err := ctx.Broadcast(p.word); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *alwaysFloodWord) Handle(ctx *Ctx, inbox []Message) {
	if p.have || len(inbox) == 0 {
		return
	}
	p.have = true
	p.out[ctx.V()] = inbox[0].Words[0]
	if err := ctx.Broadcast(p.out[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}

// alwaysNearestSource is nearestSourceProgram before pruning.
type alwaysNearestSource struct {
	NoPhases
	isSource []bool
	hops     int
	dist     []float64
	nearest  []graph.Vertex
	mine     float64
	src      graph.Vertex
	fresh    bool
}

func (p *alwaysNearestSource) Init(ctx *Ctx) {
	p.mine = math.Inf(1)
	p.src = graph.NoVertex
	if p.isSource[ctx.V()] {
		p.mine = 0
		p.src = ctx.V()
		p.fresh = true
		ctx.Stay()
	}
	p.dist[ctx.V()] = p.mine
	p.nearest[ctx.V()] = p.src
}

func (p *alwaysNearestSource) Handle(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		d := math.Float64frombits(uint64(m.Words[0]))
		src := graph.Vertex(m.Words[1])
		if nd := d + ctx.engineEdgeWeight(m.Via); nd < p.mine || (nd == p.mine && src < p.src) {
			p.mine = nd
			p.src = src
			p.fresh = true
		}
	}
	p.dist[ctx.V()] = p.mine
	p.nearest[ctx.V()] = p.src
	if p.fresh && ctx.Round() <= p.hops {
		p.fresh = false
		if err := ctx.Broadcast(int64(math.Float64bits(p.mine)), int64(p.src)); err != nil {
			ctx.Fail(err)
		}
	}
}

// twinGraphs have weight ties (weights 1..3, unit grid and cycle) and
// depth ties (grids, cycles), so first-arrival tie-breaks are exercised.
func twinGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"er-int-ties", integerWeights(graph.ErdosRenyi(120, 0.06, 4, 4))},
		{"er-wide", graph.ErdosRenyi(150, 0.05, 9, 7)},
		{"grid-unit", graph.Grid(9, 9, 1, 3)},
		{"cycle", graph.Cycle(40, 1)},
		{"geometric", graph.RandomGeometric(100, 2, 5)},
	}
}

// twinPlans are the fault plans every twin pair runs under: none, each
// message fault alone, crash-restart, and all of them together.
func twinPlans() []struct {
	name string
	plan *FaultPlan
} {
	return []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"drop", &FaultPlan{Seed: 3, Drop: 0.15}},
		{"dup", &FaultPlan{Seed: 4, Duplicate: 0.3}},
		{"delay", &FaultPlan{Seed: 5, Delay: 0.3, MaxDelay: 3}},
		{"crash-restart", &FaultPlan{Seed: 6, Crashes: []Crash{{Vertex: 7, Round: 2, Restart: 6}, {Vertex: 11, Round: 1, Restart: 3}}}},
		{"mixed", &FaultPlan{Seed: 7, Drop: 0.05, Duplicate: 0.1, Delay: 0.1, MaxDelay: 4,
			Crashes: []Crash{{Vertex: 5, Round: 3, Restart: 8}}}},
	}
}

// runTwins runs the pruned and the always-broadcast factory on every
// twin graph, plan and worker count (each maker returns a factory and a
// snapshot of the run's outputs), and requires equal outputs with
// rounds and messages no higher than the twin's.
func runTwins(t *testing.T, name string, pruned, always func(g *graph.Graph) (func(graph.Vertex) Program, func() any)) {
	t.Helper()
	for _, tg := range twinGraphs() {
		for _, tp := range twinPlans() {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/%s/workers-%d", name, tg.name, tp.name, workers), func(t *testing.T) {
					run := func(mk func(g *graph.Graph) (func(graph.Vertex) Program, func() any)) (any, Stats) {
						factory, out := mk(tg.g)
						eng := NewEngine(tg.g, factory, Options{Seed: 9, Workers: workers, Faults: tp.plan.Clone()})
						stats, err := eng.Run()
						if err != nil {
							t.Fatal(err)
						}
						return out(), stats
					}
					got, gs := run(pruned)
					want, ws := run(always)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("outputs differ from the always-broadcast twin")
					}
					if gs.Rounds > ws.Rounds || gs.Messages > ws.Messages {
						t.Fatalf("pruned cost %d rounds / %d messages, twin %d / %d",
							gs.Rounds, gs.Messages, ws.Rounds, ws.Messages)
					}
				})
			}
		}
	}
}

func TestReceiverAwareBFSMatchesTwin(t *testing.T) {
	mk := func(always bool) func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
		return func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
			depth := make([]int32, g.N())
			parent := make([]graph.EdgeID, g.N())
			factory := func(graph.Vertex) Program {
				if always {
					return &alwaysBFS{root: 0, depth: depth, parent: parent}
				}
				return &bfsProgram{root: 0, depth: depth, parent: parent}
			}
			return factory, func() any { return [2]any{depth, parent} }
		}
	}
	runTwins(t, "bfs", mk(false), mk(true))
}

func TestReceiverAwareFloodMinMatchesTwin(t *testing.T) {
	mk := func(always bool) func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
		return func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
			minID := make([]int64, g.N())
			factory := func(graph.Vertex) Program {
				if always {
					return &alwaysFloodMin{min: minID}
				}
				return &floodMinProgram{min: minID}
			}
			return factory, func() any { return minID }
		}
	}
	runTwins(t, "flood-min", mk(false), mk(true))
}

func TestReceiverAwareFloodWordMatchesTwin(t *testing.T) {
	mk := func(always bool) func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
		return func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
			out := make([]int64, g.N())
			factory := func(graph.Vertex) Program {
				if always {
					return &alwaysFloodWord{src: 3, word: 77, out: out}
				}
				return &floodWordProgram{src: 3, word: 77, out: out}
			}
			return factory, func() any { return out }
		}
	}
	runTwins(t, "flood-word", mk(false), mk(true))
}

func TestReceiverAwareNearestSourceMatchesTwin(t *testing.T) {
	for _, h := range []int{3, 1 << 20} {
		mk := func(always bool) func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
			return func(g *graph.Graph) (func(graph.Vertex) Program, func() any) {
				isSource := make([]bool, g.N())
				for _, s := range []int{0, g.N() / 3, g.N() / 2, g.N() - 1} {
					isSource[s] = true
				}
				dist := make([]float64, g.N())
				nearest := make([]graph.Vertex, g.N())
				factory := func(graph.Vertex) Program {
					if always {
						return &alwaysNearestSource{isSource: isSource, hops: h, dist: dist, nearest: nearest}
					}
					return &nearestSourceProgram{isSource: isSource, hops: h, dist: dist, nearest: nearest}
				}
				return factory, func() any { return [2]any{dist, nearest} }
			}
		}
		runTwins(t, fmt.Sprintf("nearest-source-h%d", h), mk(false), mk(true))
	}
}

// TestReceiverAwareMessageShape pins the fault-free message counts the
// pruning guarantees: BFS sends at most 2M−(N−1) messages (no vertex
// answers its parent), and BFS or the word flood restricted to a
// spanning tree send exactly N−1 (each tree edge carries one message,
// parent to child). N counts the vertices the root reaches.
func TestReceiverAwareMessageShape(t *testing.T) {
	for _, tg := range twinGraphs() {
		g := tg.g
		pipe := NewPipeline(g, Options{Seed: 1})
		var pools StagePools
		parent := make([]graph.EdgeID, g.N())
		depth := make([]int32, g.N())
		bfs, err := pipe.RunStage("bfs", pools.BFS(g.N(), 0, parent, depth))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, d := range depth {
			if d >= 0 {
				n++
			}
		}
		m := int64(g.M())
		if bfs.Messages > 2*m-(n-1) {
			t.Fatalf("%s: bfs sent %d messages, want <= 2M-(N-1) = %d", tg.name, bfs.Messages, 2*m-(n-1))
		}
		tree := make([]bool, g.M())
		for _, e := range parent {
			if e != graph.NoEdge {
				tree[e] = true
			}
		}
		tparent := make([]graph.EdgeID, g.N())
		tdepth := make([]int32, g.N())
		st, err := pipe.RunStage("tree", pools.BFS(g.N(), 0, tparent, tdepth), Restrict(tree))
		if err != nil {
			t.Fatal(err)
		}
		if st.Messages != n-1 {
			t.Fatalf("%s: tree BFS sent %d messages, want N-1 = %d", tg.name, st.Messages, n-1)
		}
		if !reflect.DeepEqual(tdepth, depth) || !reflect.DeepEqual(tparent, parent) {
			t.Fatalf("%s: rooting the BFS tree changed parents or depths", tg.name)
		}
		out := make([]int64, g.N())
		ft, err := pipe.RunStage("flood-tree", pools.FloodWord(g.N(), 0, 5, out), Restrict(tree))
		if err != nil {
			t.Fatal(err)
		}
		if ft.Messages != n-1 {
			t.Fatalf("%s: tree flood sent %d messages, want N-1 = %d", tg.name, ft.Messages, n-1)
		}
		fl, err := pipe.RunStage("flood", pools.FloodWord(g.N(), 0, 5, out))
		if err != nil {
			t.Fatal(err)
		}
		if fl.Messages > 2*m-(n-1) {
			t.Fatalf("%s: flood sent %d messages, want <= 2M-(N-1) = %d", tg.name, fl.Messages, 2*m-(n-1))
		}
	}
}

// integerWeights floors g's weights (ErdosRenyi draws them from
// [1, maxW)), so equal-length paths and equal offers are common.
func integerWeights(g *graph.Graph) *graph.Graph {
	h, err := g.Reweighted(func(_ graph.EdgeID, e graph.Edge) float64 { return math.Floor(e.W) })
	if err != nil {
		panic(err)
	}
	h.Freeze()
	return h
}
