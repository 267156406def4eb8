package congest

import (
	"errors"
	"math"

	"lightnet/internal/graph"
)

// boruvkaProgram is a distributed Borůvka MST in the controlled-GHS
// style used by [KP98, Elk17b]: O(log n) merge iterations, each
// consisting of three message-driven stages separated by global phase
// barriers:
//
//	announce:  every vertex tells its neighbors its fragment id (1 round);
//	aggregate: each fragment computes its minimum-weight outgoing edge
//	           (MOE) by flooding candidates over fragment tree edges
//	           (O(fragment hop-diameter) rounds);
//	merge:     MOEs are adopted into the tree and the merged component
//	           relabels to its minimum fragment id by flooding
//	           (O(new fragment hop-diameter) rounds).
//
// Edge weights are totally ordered by (w, id), so MOEs are unique and
// merge graphs are forests plus benign 2-cycles (two fragments choosing
// the same edge).
type boruvkaProgram struct {
	inTree []bool // shared, per edge id: adopted into MST

	stage int
	frag  int64
	// nbrFrag[slot] is the last announced fragment id of the neighbor on
	// adjacency slot `slot`; treeAdj[slot] marks adopted tree edges.
	// Dense per-neighbor slices indexed by Ctx.SlotOf replace the maps
	// the program used to key by edge id — O(1) with no hashing and no
	// allocation after Init.
	nbrFrag []int64
	treeAdj []bool
	// treeEdges lists the adopted incident edges in adoption order, so
	// fragment-tree floods iterate a compact slice.
	treeEdges []graph.EdgeID
	bestW     float64
	bestID    int64
	localW    float64
	localID   int64
	active    bool
}

const (
	bvStageAnnounce = iota
	bvStageAggregate
	bvStageMerge
)

const bvNoEdge = int64(math.MaxInt64)

func (p *boruvkaProgram) Init(ctx *Ctx) {
	p.frag = int64(ctx.V())
	deg := ctx.Degree()
	// A pooled program (see StagePools.Boruvka) arrives with capacity
	// from an earlier run; reuse it instead of reallocating.
	if cap(p.nbrFrag) < deg {
		p.nbrFrag = make([]int64, deg)
	} else {
		p.nbrFrag = p.nbrFrag[:deg]
	}
	// -1 marks "never heard": a slot whose announce did not arrive —
	// restricted edge, crashed or partitioned neighbor — is excluded
	// from MOE candidates, so the program works on the reachable
	// subgraph instead of merging with phantom fragment 0.
	for i := range p.nbrFrag {
		p.nbrFrag[i] = -1
	}
	if cap(p.treeAdj) < deg {
		p.treeAdj = make([]bool, deg)
	} else {
		p.treeAdj = p.treeAdj[:deg]
		for i := range p.treeAdj {
			p.treeAdj[i] = false
		}
	}
	p.treeEdges = p.treeEdges[:0]
	p.active = true
	p.stage = bvStageAnnounce
	p.sendAnnounce(ctx)
}

// adopt records the edge (by adjacency slot) as a fragment-tree edge.
func (p *boruvkaProgram) adopt(id graph.EdgeID, slot int) {
	if !p.treeAdj[slot] {
		p.treeAdj[slot] = true
		p.treeEdges = append(p.treeEdges, id)
		p.inTree[id] = true
	}
}

func (p *boruvkaProgram) sendAnnounce(ctx *Ctx) {
	if err := ctx.Broadcast('F', p.frag); err != nil {
		ctx.Fail(err)
	}
}

// better reports whether (w1,id1) < (w2,id2) in the total edge order.
func better(w1 float64, id1 int64, w2 float64, id2 int64) bool {
	if w1 != w2 {
		return w1 < w2
	}
	return id1 < id2
}

func (p *boruvkaProgram) Handle(ctx *Ctx, inbox []Message) {
	switch p.stage {
	case bvStageAnnounce:
		for _, m := range inbox {
			if m.Words[0] == 'F' {
				p.nbrFrag[ctx.SlotOf(m.Via)] = m.Words[1]
			}
		}
	case bvStageAggregate:
		improved := false
		for _, m := range inbox {
			if m.Words[0] != 'C' {
				continue
			}
			w := math.Float64frombits(uint64(m.Words[1]))
			id := m.Words[2]
			if better(w, id, p.bestW, p.bestID) {
				p.bestW, p.bestID = w, id
				improved = true
			}
		}
		if improved {
			p.floodCandidate(ctx)
		}
	case bvStageMerge:
		improved := false
		var reply []graph.EdgeID
		for _, m := range inbox {
			switch m.Words[0] {
			case 'A': // adopt: the far endpoint chose this edge as MOE
				p.adopt(m.Via, ctx.SlotOf(m.Via))
				// Always answer with our own label so both merged sides
				// learn each other's fragment id.
				reply = append(reply, m.Via)
				if m.Words[1] < p.frag {
					p.frag = m.Words[1]
					improved = true
				}
			case 'R': // relabel
				if m.Words[1] < p.frag {
					p.frag = m.Words[1]
					improved = true
				}
			}
		}
		if improved {
			p.floodRelabel(ctx)
		} else {
			for _, id := range reply {
				p.sendRelabel(ctx, id)
			}
		}
	}
}

func (p *boruvkaProgram) floodCandidate(ctx *Ctx) {
	for _, id := range p.treeEdges {
		if err := ctx.Send(id, 'C', int64(math.Float64bits(p.bestW)), p.bestID); err != nil {
			ctx.Fail(err)
			return
		}
	}
}

func (p *boruvkaProgram) floodRelabel(ctx *Ctx) {
	for _, id := range p.treeEdges {
		p.sendRelabel(ctx, id)
	}
}

// sendRelabel sends 'R' over the edge, tolerating an edge already used
// this round (the queued message — an 'A' adoption — already carries our
// fragment label).
func (p *boruvkaProgram) sendRelabel(ctx *Ctx, id graph.EdgeID) {
	if err := ctx.Send(id, 'R', p.frag); err != nil && !errors.Is(err, ErrEdgeBusy) {
		ctx.Fail(err)
	}
}

func (p *boruvkaProgram) PhaseDone(ctx *Ctx) bool {
	if !p.active {
		return false
	}
	switch p.stage {
	case bvStageAnnounce:
		// Compute the local MOE candidate and start fragment-wide
		// aggregation.
		p.stage = bvStageAggregate
		p.localW, p.localID = math.Inf(1), bvNoEdge
		for i, h := range ctx.Neighbors() {
			if p.nbrFrag[i] >= 0 && p.nbrFrag[i] != p.frag && better(h.W, int64(h.ID), p.localW, p.localID) {
				p.localW, p.localID = h.W, int64(h.ID)
			}
		}
		p.bestW, p.bestID = p.localW, p.localID
		p.floodCandidate(ctx)
		return true
	case bvStageAggregate:
		// The fragment-wide MOE is now known to all members. The vertex
		// owning it adopts the edge and notifies the far endpoint.
		p.stage = bvStageMerge
		if p.bestID == bvNoEdge {
			// No outgoing edge: the fragment spans its component.
			p.active = false
			return false
		}
		if p.bestID == p.localID && p.localID != bvNoEdge {
			eid := graph.EdgeID(p.bestID)
			p.adopt(eid, ctx.SlotOf(eid))
			if err := ctx.Send(eid, 'A', p.frag); err != nil {
				ctx.Fail(err)
			}
		}
		// Everyone floods its current label so the merged component
		// converges to the minimum fragment id.
		p.floodRelabel(ctx)
		return true
	case bvStageMerge:
		p.stage = bvStageAnnounce
		p.sendAnnounce(ctx)
		return true
	}
	return false
}

// RunBoruvka computes the MST of g with the distributed Borůvka program
// and returns the tree edge ids. The measured rounds are
// O(Σ_iterations fragment-diameter) plus phase barriers; phaseSyncCost
// rounds are charged per barrier (pass the hop-diameter to model the
// O(D) global synchronization, or 0 to measure pure flooding rounds).
func RunBoruvka(g *graph.Graph, phaseSyncCost int, seed int64) ([]graph.EdgeID, Stats, error) {
	return RunBoruvkaWorkers(g, phaseSyncCost, seed, 0)
}

// RunBoruvkaWorkers is RunBoruvka with an explicit engine worker-pool
// size (0 = GOMAXPROCS); results are identical for every worker count.
func RunBoruvkaWorkers(g *graph.Graph, phaseSyncCost int, seed int64, workers int) ([]graph.EdgeID, Stats, error) {
	inTree := make([]bool, g.M())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &boruvkaProgram{inTree: inTree}
	}, Options{
		Seed:          seed,
		PhaseSyncCost: phaseSyncCost,
		MaxRounds:     16*g.N() + 1024,
		Workers:       workers,
	})
	stats, err := eng.Run()
	var edges []graph.EdgeID
	for id, in := range inTree {
		if in {
			edges = append(edges, graph.EdgeID(id))
		}
	}
	return edges, stats, err
}
