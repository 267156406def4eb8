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

// bfsProgram builds a BFS tree by layered flooding: O(D) rounds. A
// vertex announces its depth to every neighbour except those whose own
// announced depth is already at most one more (see BroadcastExcept):
// its parent among them, so the flood sends at most 2M−(N−1) messages,
// and exactly N−1 on a tree.
type bfsProgram struct {
	NoPhases
	root   graph.Vertex
	depth  []int32        // shared
	parent []graph.EdgeID // shared
	heard  []int32        // per slot: least depth heard from that neighbour
}

func (p *bfsProgram) Init(ctx *Ctx) {
	v := ctx.V()
	p.depth[v] = -1
	p.parent[v] = graph.NoEdge
	p.heard = HeardTable(ctx, p.heard, math.MaxInt32)
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
		d := int32(m.Words[0])
		if s := ctx.SlotOf(m.Via); d < p.heard[s] {
			p.heard[s] = d
		}
		if d++; p.depth[v] < 0 || d < p.depth[v] {
			p.depth[v] = d
			p.parent[v] = m.Via
			improved = true
		}
	}
	if improved {
		offer := p.depth[v] + 1
		if err := ctx.BroadcastExcept(func(s int, _ graph.Half) bool {
			return offer >= p.heard[s]
		}, int64(p.depth[v])); err != nil {
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
// connected component (leader election): O(D) rounds. An improved
// minimum skips the neighbours that already announced one at least as
// small (see BroadcastExcept).
type floodMinProgram struct {
	NoPhases
	min   []int64 // shared
	heard []int64 // per slot: least id heard from that neighbour
}

func (p *floodMinProgram) Init(ctx *Ctx) {
	p.heard = HeardTable(ctx, p.heard, math.MaxInt64)
	p.min[ctx.V()] = int64(ctx.V())
	if err := ctx.Broadcast(p.min[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}

func (p *floodMinProgram) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	improved := false
	for _, m := range inbox {
		if s := ctx.SlotOf(m.Via); m.Words[0] < p.heard[s] {
			p.heard[s] = m.Words[0]
		}
		if m.Words[0] < p.min[v] {
			p.min[v] = m.Words[0]
			improved = true
		}
	}
	if improved {
		mine := p.min[v]
		if err := ctx.BroadcastExcept(func(s int, _ graph.Half) bool {
			return mine >= p.heard[s]
		}, mine); err != nil {
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
// stores the first copy it receives and forwards it once, to every
// neighbour except those it arrived from (they hold it already; see
// BroadcastExcept). A vertex forwards in the round of its first inbox
// and has heard from no neighbour before, so that inbox is its whole
// per-slot "heard" state and no table is kept. O(D) rounds; at most
// 2M−(N−1) messages, since every vertex but src skips at least one
// edge, and exactly N−1 on a tree. Under Restrict the flood stays
// inside the stage's subgraph.
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
	if err := ctx.BroadcastExcept(func(_ int, h graph.Half) bool {
		for _, m := range inbox {
			if m.Via == h.ID {
				return true
			}
		}
		return false
	}, p.out[ctx.V()]); err != nil {
		ctx.Fail(err)
	}
}
