package congest

import (
	"math"

	"lightnet/internal/graph"
)

// nearestSourceProgram is distributed multi-source Bellman-Ford: every
// vertex learns the distance to (and identity of) its nearest source
// among paths of at most h hops. This is the genuine message-passing
// form of the deactivation step of §6 (vertices within (1+δ)Δ of the
// new net points) and of the §7 bounded explorations: each message
// carries one (source, distance) pair, so the per-round per-edge budget
// is respected without pipelining — a vertex only ever forwards its
// single current best, and skips the neighbours whose own announced
// pair already beats or ties it in the (dist, src) order the receiver
// tests (see Ctx.BroadcastExcept).
type nearestSourceProgram struct {
	NoPhases
	isSource []bool
	hops     int
	dist     []float64      // shared
	nearest  []graph.Vertex // shared

	best  distSrc
	fresh bool
	heard []distSrc // per slot: least pair heard from that neighbour
}

// distSrc is a (distance, source) announcement. The relaxation keeps
// the least pair in the lexicographic order of less, so distance ties
// go to the smaller source id.
type distSrc struct {
	dist float64
	src  graph.Vertex
}

func (a distSrc) less(b distSrc) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.src < b.src)
}

func (p *nearestSourceProgram) Init(ctx *Ctx) {
	v := ctx.V()
	p.best = distSrc{math.Inf(1), graph.NoVertex}
	p.heard = HeardTable(ctx, p.heard, p.best)
	if p.isSource[v] {
		p.best = distSrc{0, v}
		p.fresh = true
		ctx.Stay()
	}
	p.dist[v], p.nearest[v] = p.best.dist, p.best.src
}

func (p *nearestSourceProgram) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	for _, m := range inbox {
		got := distSrc{math.Float64frombits(uint64(m.Words[0])), graph.Vertex(m.Words[1])}
		if s := ctx.SlotOf(m.Via); got.less(p.heard[s]) {
			p.heard[s] = got
		}
		if cand := (distSrc{got.dist + ctx.engineEdgeWeight(m.Via), got.src}); cand.less(p.best) {
			p.best = cand
			p.fresh = true
		}
	}
	p.dist[v], p.nearest[v] = p.best.dist, p.best.src
	if p.fresh && ctx.Round() <= p.hops {
		p.fresh = false
		best := p.best
		if err := ctx.BroadcastExcept(func(s int, h graph.Half) bool {
			offer := distSrc{best.dist + ctx.engineEdgeWeight(h.ID), best.src}
			return !offer.less(p.heard[s])
		}, int64(math.Float64bits(best.dist)), int64(best.src)); err != nil {
			ctx.Fail(err)
		}
	}
}

// RunNearestSource runs h rounds of multi-source Bellman-Ford on the
// engine: per vertex, the h-hop-bounded distance to the nearest source
// and that source's identity. With h >= n-1 the distances are exact.
func RunNearestSource(g *graph.Graph, sources []graph.Vertex, h int, seed int64) ([]float64, []graph.Vertex, Stats, error) {
	isSource := make([]bool, g.N())
	for _, s := range sources {
		isSource[s] = true
	}
	dist := make([]float64, g.N())
	nearest := make([]graph.Vertex, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &nearestSourceProgram{
			isSource: isSource, hops: h, dist: dist, nearest: nearest,
		}
	}, Options{Seed: seed, MaxRounds: h + g.N() + 64})
	stats, err := eng.Run()
	return dist, nearest, stats, err
}

// engineEdgeWeight exposes edge weights to programs.
func (c *Ctx) engineEdgeWeight(id graph.EdgeID) float64 {
	return c.engine.g.Edge(id).W
}
