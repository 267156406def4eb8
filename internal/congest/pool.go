package congest

import (
	"lightnet/internal/graph"
)

// Stage-state pooling: a pipeline stage installs one Program per
// participating vertex, and a naive factory allocates each of them —
// 10⁶ small objects per stage, times thirteen stages for the measured
// SLT, times one stage per weight bucket for the measured spanner. A
// StagePool instead owns a single dense slice of program values,
// indexed by vertex and reused across stages: a stage's factory resets
// the vertex's slot in place and returns its address, so program
// installation costs zero allocations after the first stage (and one
// slice allocation ever). Per-vertex scratch slices kept inside pooled
// program values retain their capacity across stages — the message and
// neighbor arenas of one stage are the arenas of the next.
//
// Reset contract: because slots carry whatever the previous stage left
// behind, a pooling factory must overwrite every field of the slot —
// the idiom is a whole-struct assignment that threads the reusable
// buffers through, e.g.
//
//	p := &slots[v]
//	*p = myProg{shared: out, scratch: p.scratch[:0]}
//	return p
//
// StagePool is not safe for concurrent use; factories run on the
// sequential installation sweep, which is exactly where it is used.
type StagePool[P any] struct {
	slots []P
}

// Slots returns a dense slice of n per-vertex values, reusing the
// previous backing array when it is large enough. Values are zeroed on
// the first call only; afterwards they carry the previous stage's
// contents (see the reset contract above).
func (sp *StagePool[P]) Slots(n int) []P {
	if cap(sp.slots) >= n {
		return sp.slots[:n]
	}
	sp.slots = make([]P, n)
	return sp.slots
}

// StagePools bundles pooled per-vertex state for the engine-owned stage
// programs (MST, BFS tree, convergecast, word flood). A
// measured pipeline allocates one StagePools next to its
// congest.Pipeline and builds its stage factories from its methods, so
// each stage reuses the previous stage's program slice and per-vertex
// scratch instead of allocating n fresh objects.
type StagePools struct {
	mst   StagePool[mstProgram]
	bfs   StagePool[bfsProgram]
	cast  StagePool[convergecastProgram]
	flood StagePool[floodWordProgram]
}

// MST is the two-phase MST stage (see mstProgram) for a graph of n
// vertices. It must run after a BFS stage from root whose parent edges
// are bfsParent. inTree must have length M; the stage sets the slots of
// the MST edges (of the spanning forest, on a disconnected graph). frag,
// if non-nil (length N), receives each vertex's fragment label after
// phase 1: the id of its fragment's root. seed drives the head/tail
// coins, which change the cost but never the tree.
func (sp *StagePools) MST(n int, root graph.Vertex, bfsParent []graph.EdgeID, seed int64, inTree []bool, frag []int64) func(graph.Vertex) Program {
	slots := sp.mst.Slots(n)
	shared := &mstShared{
		inTree: inTree, frag: frag, bfsParent: bfsParent, root: root,
		seed: seed, iters: mstIterations(n), cap: ceilSqrt(n),
	}
	return func(v graph.Vertex) Program {
		p := &slots[v]
		*p = mstProgram{
			mstShared: shared,
			nbrFrag:   p.nbrFrag[:0],
			treeEdges: p.treeEdges[:0],
			reqs:      p.reqs[:0],
			fresh:     p.fresh[:0],
		}
		return p
	}
}

// BFS is the BFS-tree stage for a graph of n vertices: layered
// flooding from root, writing each vertex's parent edge (NoEdge at the
// root and unreachable vertices) and hop depth (-1 if unreachable) into
// the shared slices (length N). Under Restrict the flood stays inside
// the stage's subgraph — restricted to a spanning tree's edges it roots
// that tree, the parent being unique.
func (sp *StagePools) BFS(n int, root graph.Vertex, parent []graph.EdgeID, depth []int32) func(graph.Vertex) Program {
	slots := sp.bfs.Slots(n)
	return func(v graph.Vertex) Program {
		p := &slots[v]
		*p = bfsProgram{root: root, depth: depth, parent: parent, heard: p.heard}
		return p
	}
}

// Convergecast is the convergecast stage (see CastPass) over the rooted
// tree given by parent, for a graph of n vertices: the root writes the
// result of pass i to result[i].
func (sp *StagePools) Convergecast(n int, root graph.Vertex, parent []graph.EdgeID, passes []CastPass, result []int64) func(graph.Vertex) Program {
	slots := sp.cast.Slots(n)
	return func(v graph.Vertex) Program {
		p := &slots[v]
		*p = convergecastProgram{root: root, parent: parent, passes: passes, result: result, kids: p.kids[:0]}
		return p
	}
}

// FloodWord is the stage that floods a single word from src to every
// vertex of a graph of n vertices, storing it in out (length N, written
// at every reached vertex including src). The measured pipelines use
// it to fix globally known scalars — e.g. the §5 bucket anchor L — in
// O(D) real rounds.
func (sp *StagePools) FloodWord(n int, src graph.Vertex, word int64, out []int64) func(graph.Vertex) Program {
	slots := sp.flood.Slots(n)
	return func(v graph.Vertex) Program {
		p := &slots[v]
		*p = floodWordProgram{src: src, word: word, out: out}
		return p
	}
}
