package slt

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

// alwaysSPT is sptProg before receiver-aware pruning: every improvement
// is re-broadcast to every neighbour. It is the oracle twin of the spt
// and final-spt stages.
type alwaysSPT struct {
	congest.NoPhases
	src    graph.Vertex
	pw     []float64
	parent []graph.EdgeID
	mine   float64
	fresh  bool
}

func (p *alwaysSPT) Init(ctx *congest.Ctx) {
	v := ctx.V()
	p.parent[v] = graph.NoEdge
	p.mine = math.Inf(1)
	if v == p.src {
		p.mine = 0
		if err := ctx.Broadcast(int64(math.Float64bits(0))); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *alwaysSPT) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	v := ctx.V()
	for _, m := range inbox {
		d := math.Float64frombits(uint64(m.Words[0]))
		if nd := d + p.pw[m.Via]; nd < p.mine {
			p.mine = nd
			p.parent[v] = m.Via
			p.fresh = true
		}
	}
	if p.fresh {
		p.fresh = false
		if err := ctx.Broadcast(int64(math.Float64bits(p.mine))); err != nil {
			ctx.Fail(err)
		}
	}
}

// TestReceiverAwareSPTMatchesTwin runs the pruned Bellman-Ford SPT
// program beside its always-broadcast twin — on graphs with weight ties
// (weights 1..3, a unit grid), unrestricted (the spt stage) and restricted to a
// subgraph (the final-spt stage), under each fault kind and at workers
// 1, 2 and 8 — and requires the same parents and per-vertex distances
// with rounds and messages no higher than the twin's.
func TestReceiverAwareSPTMatchesTwin(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-int-ties", integerWeights(graph.ErdosRenyi(120, 0.06, 4, 4))},
		{"er-wide", graph.ErdosRenyi(150, 0.05, 9, 7)},
		{"grid-unit", graph.Grid(9, 9, 1, 3)},
		{"geometric", graph.RandomGeometric(100, 2, 5)},
	}
	plans := []struct {
		name string
		plan *congest.FaultPlan
	}{
		{"none", nil},
		{"drop", &congest.FaultPlan{Seed: 3, Drop: 0.15}},
		{"dup", &congest.FaultPlan{Seed: 4, Duplicate: 0.3}},
		{"delay", &congest.FaultPlan{Seed: 5, Delay: 0.3, MaxDelay: 3}},
		{"crash-restart", &congest.FaultPlan{Seed: 6, Crashes: []congest.Crash{{Vertex: 7, Round: 2, Restart: 6}}}},
		{"mixed", &congest.FaultPlan{Seed: 7, Drop: 0.05, Duplicate: 0.1, Delay: 0.1, MaxDelay: 4,
			Crashes: []congest.Crash{{Vertex: 5, Round: 3, Restart: 8}}}},
	}
	for _, tg := range graphs {
		g := tg.g
		pw := make([]float64, g.M())
		sub := make([]bool, g.M())
		for id := range pw {
			pw[id] = g.Edge(graph.EdgeID(id)).W
			sub[id] = id%3 != 0
		}
		for _, restricted := range []bool{false, true} {
			var opts []congest.StageOption
			if restricted {
				opts = append(opts, congest.Restrict(sub))
			}
			for _, tp := range plans {
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/restricted-%v/%s/workers-%d", tg.name, restricted, tp.name, workers)
					t.Run(name, func(t *testing.T) {
						run := func(always bool) ([]graph.EdgeID, []float64, congest.Stats) {
							parent := make([]graph.EdgeID, g.N())
							var pools sltPools
							pruned := pools.sptFactory(g.N(), 0, pw, parent)
							twins := make([]alwaysSPT, g.N())
							factory := func(v graph.Vertex) congest.Program {
								if always {
									twins[v] = alwaysSPT{src: 0, pw: pw, parent: parent}
									return &twins[v]
								}
								return pruned(v)
							}
							pipe := congest.NewPipeline(g, congest.Options{Seed: 9, Workers: workers, Faults: tp.plan.Clone()})
							st, err := pipe.RunStage("spt", factory, opts...)
							if err != nil {
								t.Fatal(err)
							}
							dist := make([]float64, g.N())
							for v := range dist {
								if always {
									dist[v] = twins[v].mine
								} else {
									dist[v] = pools.spt.Slots(g.N())[v].mine
								}
							}
							return parent, dist, st
						}
						gp, gd, gs := run(false)
						wp, wd, ws := run(true)
						if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gd, wd) {
							t.Fatal("parents or distances differ from the always-broadcast twin")
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
}

// TestMeasuredTreeStageShape pins the fault-free message counts of the
// receiver-aware stages in the whole measured pipeline: tree sends
// exactly n−1 messages (one per MST edge, parent to child) and bfs at
// most 2m−(n−1).
func TestMeasuredTreeStageShape(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.ErdosRenyi(150, 0.06, 10, 3),
		graph.Grid(10, 10, 1, 2),
		graph.RandomGeometric(120, 2, 8),
	} {
		res, err := Build(g, 0, 0.5, Options{Seed: 2, Mode: Measured})
		if err != nil {
			t.Fatal(err)
		}
		n, m := int64(g.N()), int64(g.M())
		for _, s := range res.Stages {
			switch s.Name {
			case "tree":
				if s.Stats.Messages != n-1 {
					t.Fatalf("tree sent %d messages, want n-1 = %d", s.Stats.Messages, n-1)
				}
			case "bfs":
				if s.Stats.Messages > 2*m-(n-1) {
					t.Fatalf("bfs sent %d messages, want <= 2m-(n-1) = %d", s.Stats.Messages, 2*m-(n-1))
				}
			}
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
