package congest

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"lightnet/internal/graph"
)

// outMsg is one queued outbox slot: the sending vertex and the position
// of the payload inside the sender's word arena for the batch in which
// it was sent. The receiving endpoint and edge id are implied by the
// slot index (2*edge + direction). Whether a slot is occupied is
// tracked exclusively by Engine.dirty; stale slots are never read.
type outMsg struct {
	from graph.Vertex
	off  int32
	n    int32
}

// Engine is a synchronous CONGEST simulator over a fixed graph.
type Engine struct {
	g     *graph.Graph
	opts  Options
	progs []Program
	ctxs  []Ctx
	// outbox[2*e+dir] is the message queued on edge e in direction dir
	// (0: U->V, 1: V->U) for delivery next round. Handlers never write
	// it directly: sends are buffered per vertex and flushed here, in
	// vertex order, after each handler batch (see collect).
	outbox []outMsg
	// used[2*e+dir] holds the batch stamp of the last send on that edge
	// direction, giving Ctx.Send an O(1) duplicate check. Each slot is
	// written only by its owning sender, so it is race-free under the
	// worker pool, like the per-vertex send buffers.
	used []uint64
	// dirty lists the outbox slots filled since the last delivery —
	// exactly one handler batch's sends, appended in canonical (vertex,
	// send-order) order by collect and sorted before delivery so
	// messages always arrive in edge-id order, independent of worker
	// scheduling.
	dirty []int32
	// inboxes[v] is v's reusable inbox buffer. Message values (and their
	// Words, which alias the sender's arena) are valid only during the
	// round in which they are delivered.
	inboxes [][]Message
	// work is the current round's worklist (vertices with a delivery or
	// woken by the previous batch); next accumulates the vertices woken
	// for the following round. queued[v] marks membership in either, so
	// a vertex both awake and receiving runs exactly once.
	work, next []int32
	queued     []bool
	// stripes are the per-chunk buffers of the fused parallel round path
	// (see runRound): the worker processing worklist chunk i appends its
	// dirty slots, next-round vertices and send counters to stripes[i],
	// and the round driver concatenates the stripes in chunk order.
	// Chunks are contiguous slices of the canonical worklist, so the
	// concatenation reproduces the sequential collect order exactly —
	// bit-identity at every worker count — while the flush itself is
	// sharded across workers. Stripes are reused round over round: the
	// steady state allocates nothing at any worker count.
	stripes []stripe
	// poolCh feeds chunk indices to the round worker pool. The pool is
	// started lazily at the first parallel round of a program and
	// stopped when the program quiesces, so an idle engine owns no
	// goroutines; within a program the same goroutines serve every
	// round (no per-round spawns, no per-round allocation).
	poolCh    chan int
	poolWg    sync.WaitGroup
	poolRound int // round number read by the pool workers
	chunkSize int // worklist chunk length of the current round
	// verts, when non-nil, limits the current program (pipeline stage)
	// to the listed vertices: program installation, the Init and
	// PhaseDone sweeps, and their collects iterate only this list, so a
	// stage costs O(|verts| + traffic) instead of O(n). Stage-scoped;
	// see the Verts stage option.
	verts []int32
	batch uint64 // current handler batch (Init, each round, each PhaseDone)
	stats Stats
	// restrict, when non-nil, limits the current program (pipeline stage)
	// to the marked edge subset: Ctx.Send on an unmarked edge fails and
	// Ctx.Broadcast skips unmarked edges. Stage-scoped; see Pipeline.
	restrict []bool
	// roundLimit is the absolute round count at which the current program
	// aborts; Run sets it from Options.MaxRounds, Pipeline re-arms it per
	// stage so every stage gets its own budget.
	roundLimit int
	// fi, when non-nil, is the compiled Options.Faults plan (see
	// faults.go). Every fault-aware path branches on a nil check so the
	// fault-free hot path stays allocation-free and unchanged.
	fi       *faultInjector
	faultErr error      // invalid Options.Faults; surfaced by runProgram
	mu       sync.Mutex // guards failed under parallel execution
	failed   error
}

// stripe is one worker chunk's collect buffer (see Engine.stripes).
// The padding spaces consecutive stripes onto distinct cache lines so
// parallel appends do not false-share.
type stripe struct {
	dirty    []int32
	next     []int32
	msgs     int64
	words    int64
	maxWords int
	_        [56]byte
}

func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed == nil {
		e.failed = err
	}
}

func (e *Engine) failure() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// collect closes a handler batch: it merges the per-vertex send buffers
// into the shared outbox (appending the touched slots to the dirty
// list) and folds the per-vertex send counters (written lock-free by
// handlers) into the engine stats; vertices left awake by the batch are
// queued onto the next worklist. Each (edge, direction) slot has a
// unique owning sender and Ctx.Send rejects duplicates, so the merge
// never collides; iterating the batch's vertices in a deterministic
// order (vertex order for Init/PhaseDone, worklist order for rounds —
// itself deterministic) makes the dirty list and worklists independent
// of how handlers were scheduled across workers.
//
// batchVerts is the set of vertices whose handlers ran; nil means all
// (Init and PhaseDone sweeps). Only rounds pay per-vertex cost, and
// only for active vertices.
func (e *Engine) collect(batchVerts []int32) {
	if batchVerts == nil {
		for v := range e.ctxs {
			e.collectVertex(int32(v))
		}
	} else {
		for _, v := range batchVerts {
			e.collectVertex(v)
		}
	}
	e.batch++
}

func (e *Engine) collectVertex(v int32) {
	c := &e.ctxs[v]
	if c.sentMsgs > 0 {
		for _, pm := range c.pending {
			slot := int32(pm.via)<<1 | int32(pm.dir)
			e.outbox[slot] = outMsg{from: c.v, off: pm.off, n: pm.n}
			e.dirty = append(e.dirty, slot)
		}
		c.pending = c.pending[:0]
		e.stats.Messages += c.sentMsgs
		e.stats.Words += c.sentWords
		if c.maxWords > e.stats.MaxWords {
			e.stats.MaxWords = c.maxWords
		}
		c.sentMsgs, c.sentWords, c.maxWords = 0, 0, 0
	}
	if c.awake && !e.queued[v] {
		e.queued[v] = true
		e.next = append(e.next, v)
	}
}

// newEngine builds the engine core over g without installing programs;
// NewEngine and Pipeline install them (once, or once per stage).
func newEngine(g *graph.Graph, opts Options) *Engine {
	if opts.MaxWords == 0 {
		opts.MaxWords = MaxWordsDefault
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 4*g.N() + 64
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	g.Freeze()
	e := &Engine{
		g:          g,
		opts:       opts,
		progs:      make([]Program, g.N()),
		ctxs:       make([]Ctx, g.N()),
		outbox:     make([]outMsg, 2*g.M()),
		used:       make([]uint64, 2*g.M()),
		inboxes:    make([][]Message, g.N()),
		work:       make([]int32, 0, g.N()),
		next:       make([]int32, 0, g.N()),
		queued:     make([]bool, g.N()),
		stripes:    make([]stripe, opts.Workers),
		batch:      1, // 0 is the "never sent" stamp in used
		roundLimit: opts.MaxRounds,
	}
	if opts.Faults.Active() {
		if err := opts.Faults.Validate(g.N()); err != nil {
			e.faultErr = err
		} else {
			e.fi = newFaultInjector(opts.Faults, opts.Seed, g.N())
		}
	}
	base := newFastSource(opts.Seed)
	for v := 0; v < g.N(); v++ {
		e.ctxs[v] = Ctx{
			engine: e,
			v:      graph.Vertex(v),
			rng:    rand.New(newFastSource(base.Int63())),
			awake:  true,
		}
	}
	return e
}

// NewEngine builds an engine over g; factory is called once per vertex to
// create its Program. The graph is frozen to its CSR representation (see
// graph.Freeze): callers must not mutate it while the engine exists.
func NewEngine(g *graph.Graph, factory func(v graph.Vertex) Program, opts Options) *Engine {
	e := newEngine(g, opts)
	for v := 0; v < g.N(); v++ {
		e.progs[v] = factory(graph.Vertex(v))
	}
	return e
}

// Graph returns the communication graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Run executes the program to quiescence (across all phases) and returns
// the statistics. It returns an error if a program violated the CONGEST
// constraints, reported failure, or the round limit was hit.
func (e *Engine) Run() (Stats, error) {
	err := e.runProgram()
	return e.stats, err
}

// runProgram drives the currently installed programs from Init to
// quiescence across all phases, accumulating into e.stats. It is the
// shared body of Run and of every Pipeline stage. When e.verts is set
// (the Verts stage option), the Init and PhaseDone sweeps — and their
// collects — touch only the listed vertices.
func (e *Engine) runProgram() error {
	if e.faultErr != nil {
		return e.faultErr
	}
	defer e.stopPool()
	if e.verts == nil {
		for v := range e.progs {
			if err := e.initVertex(int32(v)); err != nil {
				return err
			}
		}
	} else {
		for _, v := range e.verts {
			if err := e.initVertex(v); err != nil {
				return err
			}
		}
	}
	e.collect(e.verts)
	for {
		if err := e.runPhase(); err != nil {
			return err
		}
		e.stats.Phases++
		more := false
		if e.verts == nil {
			for v := range e.progs {
				ok, err := e.phaseDoneVertex(int32(v))
				if err != nil {
					return err
				}
				more = more || ok
			}
		} else {
			for _, v := range e.verts {
				ok, err := e.phaseDoneVertex(v)
				if err != nil {
					return err
				}
				more = more || ok
			}
		}
		e.collect(e.verts)
		if !more {
			return nil
		}
	}
}

// initVertex runs one vertex's Init (skipping crashed vertices: the
// program simply does not exist there — dispatch and PhaseDone skip
// them too) and surfaces a reported failure.
func (e *Engine) initVertex(v int32) error {
	if e.fi != nil && e.fi.down(graph.Vertex(v), e.stats.Rounds) {
		e.ctxs[v].awake = false
		return nil
	}
	e.progs[v].Init(&e.ctxs[v])
	if err := e.failure(); err != nil {
		e.collect(e.verts)
		return err
	}
	return nil
}

// phaseDoneVertex runs one vertex's PhaseDone barrier callback and
// reports whether it re-armed the vertex for another phase.
func (e *Engine) phaseDoneVertex(v int32) (bool, error) {
	if e.fi != nil && e.fi.down(graph.Vertex(v), e.stats.Rounds) {
		return false, nil
	}
	more := false
	if e.progs[v].PhaseDone(&e.ctxs[v]) {
		e.ctxs[v].awake = true
		more = true
	}
	if err := e.failure(); err != nil {
		e.collect(e.verts)
		return false, err
	}
	return more, nil
}

// runPhase executes rounds until no vertex is awake and no message is in
// flight.
func (e *Engine) runPhase() error {
	for {
		ran, err := e.stepRound()
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
	}
}

// stepRound executes one synchronous round: deliver the previous batch's
// messages, run the handlers of the activated vertices, and close the
// batch. It reports false (without running anything) once the phase is
// quiescent — no message in flight and no vertex awake. A steady-state
// step performs no heap allocations: every buffer it touches (dirty
// list, inboxes, worklists, send arenas) is engine- or vertex-owned and
// reused across rounds.
func (e *Engine) stepRound() (bool, error) {
	// The worklist starts as the vertices woken by the previous batch;
	// delivery appends the vertices that receive a message.
	e.work, e.next = e.next, e.work[:0]
	delivered := len(e.dirty)
	if e.fi != nil {
		delivered = e.deliverWithFaults()
	} else if delivered > 0 {
		// Deliver queued messages in edge-id order (direction 0 first)
		// so the inbox order of every vertex is canonical. The dirty
		// list holds exactly one batch's sends; sorting restores the
		// canonical order regardless of which vertices sent.
		slices.Sort(e.dirty)
		par := (e.batch - 1) & 1 // arena parity of the sending batch
		for _, slot := range e.dirty {
			id := graph.EdgeID(slot >> 1)
			om := e.outbox[slot]
			ed := e.g.Edge(id)
			to := ed.V
			if slot&1 == 1 {
				to = ed.U
			}
			words := e.ctxs[om.from].wbuf[par][om.off : om.off+om.n]
			e.inboxes[to] = append(e.inboxes[to], Message{From: om.from, Via: id, Words: words})
			if !e.queued[to] {
				e.queued[to] = true
				e.work = append(e.work, int32(to))
			}
		}
		e.dirty = e.dirty[:0]
	}
	if len(e.work) == 0 {
		if e.fi != nil && len(e.fi.delayed) > 0 {
			// No handler runs this round, but delayed messages are still
			// in flight: burn an idle round so they age towards delivery
			// instead of quiescing with mail undelivered.
			e.stats.Rounds++
			if e.stats.Rounds > e.roundLimit {
				return false, fmt.Errorf("%w: %d", ErrRoundLimit, e.roundLimit)
			}
			if e.opts.Trace != nil {
				e.opts.Trace.Rounds = append(e.opts.Trace.Rounds, TraceRound{Round: e.stats.Rounds})
			}
			return true, nil
		}
		return false, nil
	}
	e.stats.Rounds++
	if e.stats.Rounds > e.roundLimit {
		return false, fmt.Errorf("%w: %d", ErrRoundLimit, e.roundLimit)
	}
	var rec TraceRound
	if e.opts.Trace != nil {
		rec.Round = e.stats.Rounds
		rec.Delivered = delivered
		rec.Activated = len(e.work)
	}
	sentBefore := e.stats.Messages
	e.runRound()
	if err := e.failure(); err != nil {
		return false, err
	}
	if e.opts.Trace != nil {
		rec.Sent = int(e.stats.Messages - sentBefore)
		e.opts.Trace.Rounds = append(e.opts.Trace.Rounds, rec)
	}
	return true, nil
}

// dispatch runs one vertex's handler for the current round. Handlers
// read only their own state and the round's immutable inboxes and write
// only their own Ctx (send buffer, arena, counters, RNG) and worklist
// marker, so dispatching distinct vertices concurrently is race-free.
func (e *Engine) dispatch(v int32, round int) {
	c := &e.ctxs[v]
	if e.fi != nil && e.fi.down(graph.Vertex(v), round) {
		// Crashed vertex: its handler does not run and its inbox is
		// discarded (the delivery loop already drops mail addressed to
		// it; this catches vertices woken before the crash took effect).
		c.awake = false
		e.queued[v] = false
		e.inboxes[v] = e.inboxes[v][:0]
		return
	}
	c.awake = false // programs re-arm via Stay or by sending later
	c.round = round
	e.queued[v] = false
	e.progs[v].Handle(c, e.inboxes[v])
	e.inboxes[v] = e.inboxes[v][:0]
}

// deliverWithFaults is the fault-injecting twin of stepRound's delivery
// loop, used when Options.Faults is active. It releases due delayed
// messages, wakes vertices whose crash-restart round arrived, and runs
// every fresh message through the plan: crash and partition checks
// first (vertex-level faults), then one hash classification per
// (round, directed edge) into drop / duplicate / delay. It returns the
// number of messages actually placed in inboxes. Everything here is
// driven by sorted slices and pure hashes of (seed, round, slot), so
// the faulted delivery is exactly as deterministic as the fault-free
// one.
func (e *Engine) deliverWithFaults() int {
	fi := e.fi
	r := e.stats.Rounds + 1 // the round these messages arrive in
	delivered := 0
	// Wake crash-restart vertices whose time has come. The cursor is
	// monotone: a restart round skipped while the network was quiescent
	// is not replayed (the next pipeline stage re-awakens everyone).
	for fi.nextRestart < len(fi.restarts) && fi.restarts[fi.nextRestart].round <= r {
		v := fi.restarts[fi.nextRestart].v
		fi.nextRestart++
		if !e.queued[v] {
			e.queued[v] = true
			e.work = append(e.work, int32(v))
		}
	}
	// Release delayed messages that are due. Insertion order is the
	// canonical delivery order of their original rounds, so iterating in
	// order keeps inboxes canonical. Crash and partition state apply at
	// the actual arrival round.
	if len(fi.delayed) > 0 {
		kept := fi.delayed[:0]
		for _, dm := range fi.delayed {
			if dm.due > r {
				kept = append(kept, dm)
				continue
			}
			if fi.down(dm.to, r) {
				fi.stats.CrashDropped++
				continue
			}
			if fi.cut(dm.from, dm.to, r) {
				fi.stats.PartitionDropped++
				continue
			}
			e.deliver(dm.to, Message{From: dm.from, Via: dm.via, Words: dm.words})
			delivered++
		}
		fi.delayed = kept
	}
	if len(e.dirty) > 0 {
		slices.Sort(e.dirty)
		par := (e.batch - 1) & 1
		for _, slot := range e.dirty {
			id := graph.EdgeID(slot >> 1)
			om := e.outbox[slot]
			ed := e.g.Edge(id)
			to := ed.V
			if slot&1 == 1 {
				to = ed.U
			}
			words := e.ctxs[om.from].wbuf[par][om.off : om.off+om.n]
			if fi.down(to, r) {
				fi.stats.CrashDropped++
				continue
			}
			if fi.cut(om.from, to, r) {
				fi.stats.PartitionDropped++
				continue
			}
			switch kind, extra := fi.classify(r, int64(slot)); kind {
			case faultDrop:
				fi.stats.Dropped++
			case faultDup:
				fi.stats.Duplicated++
				m := Message{From: om.from, Via: id, Words: words}
				e.deliver(to, m)
				e.deliver(to, m)
				delivered += 2
			case faultDelay:
				fi.stats.Delayed++
				// Copy the payload: the sender's arena is only valid for
				// this round.
				fi.delayed = append(fi.delayed, delayedMsg{
					due: r + extra, to: to, from: om.from, via: id,
					words: append([]int64(nil), words...),
				})
			default:
				e.deliver(to, Message{From: om.from, Via: id, Words: words})
				delivered++
			}
		}
		e.dirty = e.dirty[:0]
	}
	return delivered
}

// deliver appends one message to to's inbox and queues the vertex on
// the current worklist.
func (e *Engine) deliver(to graph.Vertex, m Message) {
	e.inboxes[to] = append(e.inboxes[to], m)
	if !e.queued[to] {
		e.queued[to] = true
		e.work = append(e.work, int32(to))
	}
}

// FaultStats returns the faults injected so far (zero when
// Options.Faults is nil or inactive).
func (e *Engine) FaultStats() FaultStats {
	if e.fi == nil {
		return FaultStats{}
	}
	return e.fi.stats
}

// resetTransient clears every piece of in-flight execution state — the
// failure flag, worklists, inboxes, pending sends and delayed messages
// — so a pipeline stage can be retried on the same engine. Durable
// state survives: program slices owned by the caller, per-vertex RNG
// streams, cumulative stats, the crash-schedule cursor and fault
// counters (a retry happens at later rounds, so it sees fresh fault
// draws — that is what makes bounded retry converge under message
// faults).
func (e *Engine) resetTransient() {
	e.mu.Lock()
	e.failed = nil
	e.mu.Unlock()
	e.work = e.work[:0]
	e.next = e.next[:0]
	e.dirty = e.dirty[:0]
	for v := range e.queued {
		e.queued[v] = false
	}
	for v := range e.inboxes {
		e.inboxes[v] = e.inboxes[v][:0]
	}
	for v := range e.ctxs {
		c := &e.ctxs[v]
		c.awake = false
		c.pending = c.pending[:0]
		c.sentMsgs, c.sentWords, c.maxWords = 0, 0, 0
	}
	if e.fi != nil {
		e.fi.delayed = e.fi.delayed[:0]
	}
}

// runRound executes one round's handler batch over the worklist and
// closes it: dispatch and collect are fused per vertex, so the flush
// cost is sharded across the same workers that ran the handlers. The
// sequential path appends straight to the engine's dirty/next lists;
// the parallel path shards the worklist into contiguous chunks, each
// worker collecting into its own stripe, and then concatenates the
// stripes in chunk order — which reproduces the sequential order
// exactly, because the chunks partition the worklist in order. Stats
// sums are order-independent; the dirty list is sorted before delivery
// anyway; the next-round worklist comes out in canonical worklist
// order. Hence bit-identical results at every worker count.
func (e *Engine) runRound() {
	round := e.stats.Rounds
	workers := e.opts.Workers
	if workers > len(e.work) {
		workers = len(e.work)
	}
	if workers <= 1 {
		for _, v := range e.work {
			e.dispatch(v, round)
			e.collectVertex(v)
		}
		e.batch++
		return
	}
	if e.poolCh == nil {
		e.startPool()
	}
	e.chunkSize = (len(e.work) + workers - 1) / workers
	nchunks := (len(e.work) + e.chunkSize - 1) / e.chunkSize
	e.poolRound = round
	e.poolWg.Add(nchunks)
	for ci := 0; ci < nchunks; ci++ {
		e.poolCh <- ci
	}
	e.poolWg.Wait()
	for ci := 0; ci < nchunks; ci++ {
		s := &e.stripes[ci]
		e.dirty = append(e.dirty, s.dirty...)
		e.next = append(e.next, s.next...)
		e.stats.Messages += s.msgs
		e.stats.Words += s.words
		if s.maxWords > e.stats.MaxWords {
			e.stats.MaxWords = s.maxWords
		}
		s.dirty = s.dirty[:0]
		s.next = s.next[:0]
		s.msgs, s.words, s.maxWords = 0, 0, 0
	}
	e.batch++
}

// runChunk processes one contiguous worklist chunk on a pool worker:
// dispatch each vertex's handler and collect its sends and wake-up into
// the chunk's own stripe. Race-freedom: outbox and used slots are owned
// by the sending vertex, queued[v] and ctxs[v] are touched only by the
// worker owning v's chunk, and the stripe belongs to this chunk alone.
func (e *Engine) runChunk(ci int) {
	start := ci * e.chunkSize
	end := start + e.chunkSize
	if end > len(e.work) {
		end = len(e.work)
	}
	s := &e.stripes[ci]
	round := e.poolRound
	for _, v := range e.work[start:end] {
		e.dispatch(v, round)
		c := &e.ctxs[v]
		if c.sentMsgs > 0 {
			for _, pm := range c.pending {
				slot := int32(pm.via)<<1 | int32(pm.dir)
				e.outbox[slot] = outMsg{from: c.v, off: pm.off, n: pm.n}
				s.dirty = append(s.dirty, slot)
			}
			c.pending = c.pending[:0]
			s.msgs += c.sentMsgs
			s.words += c.sentWords
			if c.maxWords > s.maxWords {
				s.maxWords = c.maxWords
			}
			c.sentMsgs, c.sentWords, c.maxWords = 0, 0, 0
		}
		if c.awake && !e.queued[v] {
			e.queued[v] = true
			s.next = append(s.next, v)
		}
	}
}

// startPool spawns the round worker pool: Options.Workers goroutines
// fed chunk indices over poolCh. The synchronization is alloc-free, so
// parallel steady-state rounds allocate exactly as little as sequential
// ones: nothing.
func (e *Engine) startPool() {
	ch := make(chan int)
	e.poolCh = ch
	for i := 0; i < e.opts.Workers; i++ {
		go func() {
			for ci := range ch {
				e.runChunk(ci)
				e.poolWg.Done()
			}
		}()
	}
}

// stopPool terminates the round worker pool (if running) so a quiescent
// engine owns no goroutines; the next parallel round restarts it.
func (e *Engine) stopPool() {
	if e.poolCh != nil {
		close(e.poolCh)
		e.poolCh = nil
	}
}
