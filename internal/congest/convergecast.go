package congest

import (
	"errors"
	"slices"

	"lightnet/internal/graph"
)

// CastPass is one upward pass of a convergecast stage: every tree vertex
// contributes Term(v, prev), prev being the previous pass's result (0
// for the first pass), and the root learns the int64 max (Max) or the
// wrapping int64 sum of all terms. Neither depends on the tree's shape
// or on arrival order, so the result is fixed by the terms alone. Term
// runs on the engine's workers and must only read shared state.
type CastPass struct {
	Max  bool
	Term func(v graph.Vertex, prev int64) int64
}

// convergecastProgram runs the passes of a convergecast stage over a
// rooted tree (parent edges; NoEdge at the root and off the tree),
// message-driven, without phase barriers. In Init every tree vertex
// announces itself to its parent with an empty message, so in round 1
// every vertex knows its children. A vertex sends its pass aggregate up
// once all children have reported; between passes the result travels
// back down, and each vertex starts the next pass on receiving it. At
// tree depth D the first pass takes 1 + D rounds and each later one 2D;
// every pass costs one message per tree edge each way. Under message
// faults a duplicated delivery is ignored and a delayed announcement
// still counts while its parent's first pass is open; a lost message
// or a later announcement leaves the result wrong or fails the stage,
// for the stage's validator and retry policy to handle.
type convergecastProgram struct {
	NoPhases
	root   graph.Vertex
	parent []graph.EdgeID // shared tree
	passes []CastPass
	result []int64 // shared, root-only write: one word per pass

	kids    []graph.EdgeID
	pass    int
	acc     int64
	pending int  // children yet to report in this pass
	sent    bool // this pass's aggregate sent up (or recorded, at the root)
}

var errLateChild = errors.New("congest: convergecast child announced after its parent's first pass")

func (p *convergecastProgram) Init(ctx *Ctx) {
	v := ctx.V()
	if v != p.root && p.parent[v] == graph.NoEdge {
		p.sent = true // off the tree
		return
	}
	if v != p.root {
		if err := ctx.Send(p.parent[v]); err != nil {
			ctx.Fail(err)
		}
	}
	p.acc = p.passes[0].Term(v, 0)
}

// Handle runs in round 1 at every vertex (stages start awake), after
// which the first pass's children are known.
func (p *convergecastProgram) Handle(ctx *Ctx, inbox []Message) {
	v := ctx.V()
	for i, m := range inbox {
		switch {
		case duplicate(inbox, i):
		case len(m.Words) == 0:
			if p.pass > 0 || p.sent {
				ctx.Fail(errLateChild)
				return
			}
			p.kids = append(p.kids, m.Via)
			p.pending++
		case m.Via == p.parent[v]:
			if p.sent && p.pass+1 < len(p.passes) {
				p.next(ctx, m.Words[0])
			}
		case !p.sent:
			if p.passes[p.pass].Max {
				p.acc = max(p.acc, m.Words[0])
			} else {
				p.acc += m.Words[0]
			}
			p.pending--
		}
	}
	p.maybeUp(ctx)
}

// duplicate reports whether inbox[i] repeats inbox[i-1]: without
// faults every edge delivers at most one message per round, and a
// duplicated delivery arrives right after the original.
func duplicate(inbox []Message, i int) bool {
	return i > 0 && inbox[i].Via == inbox[i-1].Via && slices.Equal(inbox[i].Words, inbox[i-1].Words)
}

// next forwards prev, the result of the pass just finished, to the
// children and starts the next pass with it.
func (p *convergecastProgram) next(ctx *Ctx, prev int64) {
	p.pass++
	for _, e := range p.kids {
		if err := ctx.Send(e, prev); err != nil {
			ctx.Fail(err)
			return
		}
	}
	p.acc = p.passes[p.pass].Term(ctx.V(), prev)
	p.pending = len(p.kids)
	p.sent = false
}

func (p *convergecastProgram) maybeUp(ctx *Ctx) {
	for !p.sent && p.pending <= 0 {
		p.sent = true
		if v := ctx.V(); v != p.root {
			if err := ctx.Send(p.parent[v], p.acc); err != nil {
				ctx.Fail(err)
			}
			return
		}
		p.result[p.pass] = p.acc
		if p.pass+1 < len(p.passes) {
			p.next(ctx, p.acc)
		}
	}
}

// RunConvergecastSum builds a BFS tree from root, then sums values over
// it to the root (one convergecast pass) and returns the sum. Vertices
// not reachable from root are left out. Measured rounds are O(D).
func RunConvergecastSum(g *graph.Graph, root graph.Vertex, values []int64, seed int64) (int64, Stats, error) {
	n := g.N()
	pipe := NewPipeline(g, Options{Seed: seed})
	var pools StagePools
	parent := make([]graph.EdgeID, n)
	if _, err := pipe.RunStage("bfs", pools.BFS(n, root, parent, make([]int32, n))); err != nil {
		return 0, pipe.Total(), err
	}
	sum := make([]int64, 1)
	passes := []CastPass{{Term: func(v graph.Vertex, _ int64) int64 { return values[v] }}}
	_, err := pipe.RunStage("convergecast", pools.Convergecast(n, root, parent, passes, sum))
	return sum[0], pipe.Total(), err
}
