package congest

import (
	"errors"
	"math"

	"lightnet/internal/graph"
)

// This file contains the elementary CONGEST programs: BFS-tree
// construction, flood-min (leader election), pipelined all-to-all
// broadcast (Lemma 1) and word flooding; the convergecast is in
// convergecast.go. Each Run* wrapper allocates shared result slices,
// instantiates per-vertex programs that write into them (each vertex
// writes only its own slot, so this is race-free under the parallel
// engine), runs the engine, and returns results plus measured
// statistics.

// bfsProgram builds a BFS tree by layered flooding: O(D) rounds.
type bfsProgram struct {
	NoPhases
	root   graph.Vertex
	depth  []int32        // shared
	parent []graph.EdgeID // shared
}

func (p *bfsProgram) Init(ctx *Ctx) {
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

func (p *bfsProgram) Handle(ctx *Ctx, inbox []Message) {
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

// RunBFS builds a BFS tree from root on the engine and returns per-vertex
// parent edges (NoEdge at the root), depths (-1 if unreachable), and run
// statistics. The measured round count is Θ(D).
func RunBFS(g *graph.Graph, root graph.Vertex, seed int64) ([]graph.EdgeID, []int32, Stats, error) {
	return RunBFSWorkers(g, root, seed, 0)
}

// RunBFSWorkers is RunBFS with an explicit engine worker-pool size
// (0 = GOMAXPROCS); results are identical for every worker count.
func RunBFSWorkers(g *graph.Graph, root graph.Vertex, seed int64, workers int) ([]graph.EdgeID, []int32, Stats, error) {
	parent := make([]graph.EdgeID, g.N())
	depth := make([]int32, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &bfsProgram{root: root, depth: depth, parent: parent}
	}, Options{Seed: seed, Workers: workers})
	stats, err := eng.Run()
	return parent, depth, stats, err
}

// floodMinProgram makes every vertex learn the minimum vertex id in its
// connected component (leader election): O(D) rounds.
type floodMinProgram struct {
	NoPhases
	min []int64 // shared
}

func (p *floodMinProgram) Init(ctx *Ctx) {
	p.min[ctx.V()] = int64(ctx.V())
	if err := ctx.Broadcast(p.min[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}

func (p *floodMinProgram) Handle(ctx *Ctx, inbox []Message) {
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

// RunFloodMin runs leader election; every vertex learns the minimum id in
// its component.
func RunFloodMin(g *graph.Graph, seed int64) ([]int64, Stats, error) {
	minID := make([]int64, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	}, Options{Seed: seed})
	stats, err := eng.Run()
	return minID, stats, err
}

// broadcastAllProgram implements Lemma 1: every vertex v holds m_v
// tokens; all vertices receive all M = Σ m_v tokens within O(M + D)
// rounds. Tokens flood with per-edge pipelining: each vertex keeps the
// tokens it knows in arrival order and, per incident edge, a cursor of
// how many it has forwarded on that edge; one token per edge per round.
type broadcastAllProgram struct {
	NoPhases
	initial  map[graph.Vertex][]int64
	received []map[int64]bool // shared: per-vertex set of known tokens
	known    []int64          // local arrival order
	// cursor[slot] counts the tokens already forwarded on the incident
	// edge at adjacency slot `slot` (dense per-neighbor state).
	cursor []int
}

func (p *broadcastAllProgram) Init(ctx *Ctx) {
	v := ctx.V()
	p.cursor = make([]int, ctx.Degree())
	p.received[v] = make(map[int64]bool)
	for _, tok := range p.initial[v] {
		p.received[v][tok] = true
		p.known = append(p.known, tok)
	}
	if len(p.known) > 0 {
		p.pump(ctx)
	}
}

func (p *broadcastAllProgram) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	for _, m := range inbox {
		tok := m.Words[0]
		if !p.received[v][tok] {
			p.received[v][tok] = true
			p.known = append(p.known, tok)
		}
	}
	p.pump(ctx)
}

// pump forwards, on every incident edge, the next not-yet-forwarded
// token (one per edge per round — the pipelining of Lemma 1).
func (p *broadcastAllProgram) pump(ctx *Ctx) {
	pending := false
	for i, h := range ctx.Neighbors() {
		cur := p.cursor[i]
		if cur < len(p.known) {
			if err := ctx.Send(h.ID, p.known[cur]); err != nil {
				if !errors.Is(err, ErrEdgeBusy) {
					ctx.Fail(err)
					return
				}
			} else {
				p.cursor[i] = cur + 1
			}
			if p.cursor[i] < len(p.known) {
				pending = true
			}
		}
	}
	if pending {
		ctx.Stay()
	}
}

// RunBroadcastAll floods all per-vertex tokens to every vertex (Lemma 1)
// and returns the set each vertex received. Tokens must be globally
// distinct. Measured rounds are O(M + D).
func RunBroadcastAll(g *graph.Graph, tokens map[graph.Vertex][]int64, seed int64) ([]map[int64]bool, Stats, error) {
	received := make([]map[int64]bool, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &broadcastAllProgram{initial: tokens, received: received}
	}, Options{Seed: seed})
	stats, err := eng.Run()
	return received, stats, err
}

// floodWordProgram floods one word from src to every vertex: each vertex
// stores the first copy it receives and re-broadcasts once. O(D) rounds,
// at most 2M messages. Under Restrict the flood stays inside the stage's
// subgraph.
type floodWordProgram struct {
	NoPhases
	src  graph.Vertex
	word int64
	out  []int64 // shared, per-vertex received value
	have bool
}

func (p *floodWordProgram) Init(ctx *Ctx) {
	if ctx.V() == p.src {
		p.have = true
		p.out[ctx.V()] = p.word
		if err := ctx.Broadcast(p.word); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *floodWordProgram) Handle(ctx *Ctx, inbox []Message) {
	if p.have || len(inbox) == 0 {
		return
	}
	p.have = true
	p.out[ctx.V()] = inbox[0].Words[0]
	if err := ctx.Broadcast(p.out[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}

// bellmanFordProgram runs h rounds of distributed Bellman-Ford from a
// source; each vertex ends with its h-hop-bounded distance.
type bellmanFordProgram struct {
	NoPhases
	src   graph.Vertex
	hops  int
	dist  []float64 // shared
	mine  float64
	fresh bool
}

func (p *bellmanFordProgram) Init(ctx *Ctx) {
	p.mine = math.Inf(1)
	if ctx.V() == p.src {
		p.mine = 0
		p.fresh = true
		ctx.Stay()
	}
	p.dist[ctx.V()] = p.mine
}

func (p *bellmanFordProgram) Handle(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		d := math.Float64frombits(uint64(m.Words[0]))
		w := ctx.engineEdgeWeight(m.Via)
		if d+w < p.mine {
			p.mine = d + w
			p.fresh = true
		}
	}
	p.dist[ctx.V()] = p.mine
	// Relaxations sent in round r are received in round r+1; sending in
	// rounds 1..h yields exactly h-hop paths.
	if p.fresh && ctx.Round() <= p.hops {
		p.fresh = false
		if err := ctx.Broadcast(int64(math.Float64bits(p.mine))); err != nil {
			ctx.Fail(err)
		}
	}
}

// engineEdgeWeight exposes edge weights to programs.
func (c *Ctx) engineEdgeWeight(id graph.EdgeID) float64 {
	return c.engine.g.Edge(id).W
}

// RunBellmanFord runs h rounds of distributed Bellman-Ford and returns
// the h-hop-bounded distances from src. With h >= n-1 this is exact
// SSSP.
func RunBellmanFord(g *graph.Graph, src graph.Vertex, h int, seed int64) ([]float64, Stats, error) {
	dist := make([]float64, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &bellmanFordProgram{src: src, hops: h, dist: dist}
	}, Options{Seed: seed, MaxRounds: h + g.N() + 64})
	stats, err := eng.Run()
	return dist, stats, err
}
