package congest

import (
	"errors"
	"fmt"
	"math/rand"

	"lightnet/internal/graph"
)

// pendingMsg is a buffered outgoing message: the edge and direction it
// travels, and the payload's position inside the sender's word arena
// for the current batch. The engine flushes it into the shared outbox
// after the handler batch (see Engine.collect).
type pendingMsg struct {
	via graph.EdgeID
	dir uint8
	off int32
	n   int32
}

// Ctx is the per-vertex execution context handed to Program callbacks.
// Handlers of distinct vertices may run concurrently; everything a
// handler writes lives in its own Ctx, so no locking is needed.
type Ctx struct {
	engine *Engine
	v      graph.Vertex
	rng    *rand.Rand
	awake  bool
	round  int
	// pending buffers this vertex's sends for the current handler batch;
	// the engine merges the buffers in a canonical order, making the
	// outbox contents independent of worker scheduling.
	pending []pendingMsg
	// wbuf holds the payload words of this vertex's sends, double-
	// buffered by batch parity: the arena written in batch b is read by
	// recipients during batch b+1 (messages sent in one batch are
	// delivered at the start of the next) and is free for reuse in batch
	// b+2. Both buffers grow to the vertex's peak send volume and are
	// then reused without allocation. wbatch[p] records the batch that
	// last reset arena p, so the reset is lazy and O(1).
	wbuf   [2][]int64
	wbatch [2]uint64
	// Per-vertex send counters, merged into Stats after every handler
	// batch (lock-free under parallel execution: each handler touches
	// only its own Ctx).
	sentMsgs  int64
	sentWords int64
	maxWords  int
}

// V returns this vertex's id.
func (c *Ctx) V() graph.Vertex { return c.v }

// N returns the network size (known to all vertices, as is standard).
func (c *Ctx) N() int { return c.engine.g.N() }

// Round returns the current round number (1-based; 0 during Init).
func (c *Ctx) Round() int { return c.round }

// Neighbors returns the adjacency list of this vertex.
func (c *Ctx) Neighbors() []graph.Half { return c.engine.g.Neighbors(c.v) }

// Degree returns this vertex's degree.
func (c *Ctx) Degree() int { return c.engine.g.Degree(c.v) }

// SlotOf returns the index of the given incident edge within this
// vertex's Neighbors() slice, or -1 if the edge is not incident. O(1):
// programs use it to keep per-neighbor state in dense slices indexed by
// adjacency slot instead of maps keyed by edge id.
func (c *Ctx) SlotOf(id graph.EdgeID) int { return c.engine.g.Slot(c.v, id) }

// Rand returns this vertex's private deterministic RNG.
func (c *Ctx) Rand() *rand.Rand { return c.rng }

// Allowed reports whether the edge may be used by the current program:
// true unless the running pipeline stage is restricted to a subgraph
// that excludes it (see Pipeline and the Restrict stage option).
func (c *Ctx) Allowed(id graph.EdgeID) bool {
	r := c.engine.restrict
	return r == nil || r[id]
}

// Stay keeps the vertex awake next round even without incoming messages.
func (c *Ctx) Stay() { c.awake = true }

// Fail aborts the whole run with the given error.
func (c *Ctx) Fail(err error) {
	c.engine.fail(fmt.Errorf("%w: vertex %d round %d: %v",
		ErrProgramFailure, c.v, c.round, err))
}

// Send queues a message over the given incident edge. At most one message
// per edge direction per round; payload at most MaxWords words. The
// payload is copied into the vertex's arena, so the steady-state send
// path performs no heap allocation.
func (c *Ctx) Send(via graph.EdgeID, words ...int64) error {
	e := c.engine
	if len(words) > e.opts.MaxWords {
		return fmt.Errorf("%w: %d > %d", ErrMsgTooLarge, len(words), e.opts.MaxWords)
	}
	ed := e.g.Edge(via)
	var dir uint8
	switch c.v {
	case ed.U:
		dir = 0
	case ed.V:
		dir = 1
	default:
		return fmt.Errorf("%w: vertex %d edge %d", ErrNotNeighbor, c.v, via)
	}
	if e.restrict != nil && !e.restrict[via] {
		return fmt.Errorf("%w: edge %d from %d", ErrEdgeRestricted, via, c.v)
	}
	// The (edge, direction) slot is owned by this vertex, so the only
	// possible duplicate is an earlier send of our own in this batch;
	// the batch stamp makes the check O(1) without clearing state.
	slot := int32(via)<<1 | int32(dir)
	if e.used[slot] == e.batch {
		// Bare sentinel, no wrapping: a busy edge is expected control
		// flow (Broadcast skips it, the MST's sends tolerate it), and
		// wrapping would allocate on every such send in the hot loop.
		return ErrEdgeBusy
	}
	e.used[slot] = e.batch
	par := e.batch & 1
	if c.wbatch[par] != e.batch {
		c.wbuf[par] = c.wbuf[par][:0]
		c.wbatch[par] = e.batch
	}
	off := int32(len(c.wbuf[par]))
	c.wbuf[par] = append(c.wbuf[par], words...)
	c.pending = append(c.pending, pendingMsg{via: via, dir: dir, off: off, n: int32(len(words))})
	c.sentMsgs++
	c.sentWords += int64(len(words))
	if len(words) > c.maxWords {
		c.maxWords = len(words)
	}
	return nil
}

// SendTo queues a message to a neighboring vertex (over the first edge
// to it in this vertex's adjacency order). O(1) via the graph's frozen
// neighbor index.
func (c *Ctx) SendTo(to graph.Vertex, words ...int64) error {
	id, ok := c.engine.g.EdgeBetween(c.v, to)
	if !ok {
		return fmt.Errorf("%w: %d -> %d", ErrNotNeighbor, c.v, to)
	}
	return c.Send(id, words...)
}

// Broadcast sends the same payload over every incident edge. Edges
// already used this round are skipped (callers that need exactly-once
// semantics should send manually), as are edges outside a restricted
// stage's subgraph — so a program written with Broadcast runs unchanged
// on a tree or subgraph stage.
func (c *Ctx) Broadcast(words ...int64) error {
	return c.BroadcastExcept(nil, words...)
}

// BroadcastExcept is Broadcast minus the adjacency slots for which skip
// returns true (nil skips none). It is the receiver-aware send of the
// monotone relaxation and flood programs: a vertex skips neighbour u
// when u's own earlier message already proves the offer cannot beat
// u's current value. Such a program keeps, per slot, the best value it
// has heard from that neighbour; values only improve, so the heard one
// bounds u's current one, and a skipped message would have failed u's
// strict improvement test under any delivery schedule. Outputs and
// per-vertex state trajectories are those of the plain Broadcast; only
// messages (and trailing rounds) are saved. skip must not allocate: it
// runs on the allocation-free round path.
func (c *Ctx) BroadcastExcept(skip func(slot int, h graph.Half) bool, words ...int64) error {
	for slot, h := range c.Neighbors() {
		if !c.Allowed(h.ID) || (skip != nil && skip(slot, h)) {
			continue
		}
		if err := c.Send(h.ID, words...); err != nil {
			if errors.Is(err, ErrEdgeBusy) {
				continue
			}
			return err
		}
	}
	return nil
}

// HeardTable returns buf resized to one entry per adjacency slot of the
// context's vertex, every entry set to none, reusing buf's capacity. It
// is the per-slot "best value heard from this neighbour" state that a
// BroadcastExcept program consults; programs reset it in Init.
func HeardTable[T any](ctx *Ctx, buf []T, none T) []T {
	d := ctx.Degree()
	if cap(buf) < d {
		buf = make([]T, d)
	}
	buf = buf[:d]
	for i := range buf {
		buf[i] = none
	}
	return buf
}
