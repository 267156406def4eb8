package slt

// The per-vertex CONGEST programs of the Measured-mode pipeline (see
// measured.go for the stage sequence). Every program writes only its own
// vertex's slots of the shared mstate — the engine's contract for
// race-free execution on the worker pool — and reads other vertices'
// slots only when those were fully written by an earlier stage.
//
// Bit-identity discipline: wherever the accounted builder performs a
// float computation whose result flows into the output tree (tour
// lengths, interval starts, visit times, break-point comparisons, true
// distances), the program here performs the same operations in the same
// order on the same operands, so the measured tree equals the accounted
// tree bit-for-bit.

import (
	"errors"
	"math"
	"sort"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

// mstate is the cross-stage shared state of the measured pipeline: the
// "per-vertex state carried between stages" of the composition layer.
// Slices indexed by vertex are written only at the owner's index; slices
// indexed by edge id are written only by one designated endpoint.
type mstate struct {
	g     *graph.Graph
	rt    graph.Vertex
	eps   float64
	alpha int // break-point interval length ⌈√n⌉
	m     int // tour positions 2n-1

	pw1, pw2 []float64 // hash-perturbed substitute weights (seed, seed+1)

	inTree      []bool         // stage mst: MST membership per edge id
	treeParent  []graph.EdgeID // stage tree: parent edge in the rooted MST
	treeDepth   []int32        // stage tree: hop depth in the rooted MST
	sptParent   []graph.EdgeID // stage spt: perturbed-SPT parent edge
	rootDist    []float64      // stage spt-dist: true SPT distance from rt
	bfsParent   []graph.EdgeID // stage bfs: BFS-tree parent over all of G
	bfsDepth    []int32
	vs          []vtour        // per-vertex Euler-tour state
	rootTuples  []headTuple    // stage bp-heads: gathered at rt (rt-only write)
	inH         []bool         // stage h-mark: SPT path edges added to H
	finalParent []graph.EdgeID // stage final-spt
	finalDist   []float64      // stage final-dist: true tree distance
}

// child is one tree child as seen from its parent: identity, edge,
// weight, and — once the convergecast has run — its subtree tour length
// (weighted g and unweighted gUnit) and tour interval start.
type child struct {
	v         graph.Vertex
	edge      graph.EdgeID
	w         float64
	gSub      float64
	gUnit     int64
	start     float64
	startUnit int64
	reported  bool
}

// vtour is one vertex's Euler-tour state, accumulated across the
// euler-up/euler-down/bp stages.
type vtour struct {
	children  []child // tree children sorted ascending by vertex id (§3)
	reported  int
	gSub      float64 // 2 × weighted subtree size (tour length)
	gUnit     int64   // 2 × (subtree vertices - 1) (unweighted tour length)
	start     float64 // first-visit time (DFS interval start)
	startUnit int64   // first-visit position index
	pos       []int64 // appearance positions, increasing
	r         []float64
	bp        []bool                 // break-point mark per appearance
	marked    bool                   // h-mark: vertex lies on a root→break-point SPT path
	route     map[int64]graph.EdgeID // bp-heads: reverse route per head position
}

type headTuple struct {
	pos     int64
	r, dist float64
}

// deriveChildren lists v's tree children sorted by id. Legitimate local
// knowledge: the tree stage's BFS flood delivered every tree neighbor's
// depth over the connecting edge, so each endpoint knows which side is
// the parent.
func (st *mstate) deriveChildren(ctx *congest.Ctx) []child {
	v := ctx.V()
	var out []child
	for _, h := range ctx.Neighbors() {
		if !st.inTree[h.ID] || h.ID == st.treeParent[v] {
			continue
		}
		out = append(out, child{v: h.To, edge: h.ID, w: h.W})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].v < out[b].v })
	return out
}

// childBy returns the index of the child reached over edge id, or -1.
func (t *vtour) childBy(id graph.EdgeID) int {
	for i := range t.children {
		if t.children[i].edge == id {
			return i
		}
	}
	return -1
}

// appearanceBy returns the appearance index at which the tour enters v
// over edge id: from the parent at appearance 0, from child i at
// appearance i+1.
func (t *vtour) appearanceBy(st *mstate, v graph.Vertex, id graph.EdgeID) int {
	if id == st.treeParent[v] {
		return 0
	}
	return t.childBy(id) + 1
}

// appearanceAt returns the appearance index holding position pos, or -1.
func (t *vtour) appearanceAt(pos int64) int {
	for k, p := range t.pos {
		if p == pos {
			return k
		}
	}
	return -1
}

// The "tree" and "bfs" stages reuse the engine's BFS program via
// congest.StagePools.BFS: under Restrict(inTree) it roots the MST (the
// distributed form of mst.NewTree's rooting — in a tree the parent is
// unique, so the result is independent of arrival order); unrestricted
// it builds the BFS tree of G used by the phase-2 gather.

// ---------------------------------------------------------------------
// Stage "spt" / "final-spt": pipelined Bellman-Ford on the substitute
// weights pw, run to quiescence — exact SSSP under pw, i.e. the
// (1+eps)-approximate SPT of §4's [BKKL17] substitute. Because pw is
// generic (hash-perturbed), the SPT is unique and the parent set equals
// the accounted Dijkstra's bit-for-bit. Under Restrict(H) the same
// program performs the Step-5 pass inside H.
type sptProg struct {
	congest.NoPhases
	src    graph.Vertex
	pw     []float64
	parent []graph.EdgeID // shared output
	mine   float64
	fresh  bool
}

func (p *sptProg) Init(ctx *congest.Ctx) {
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

func (p *sptProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
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

// ---------------------------------------------------------------------
// Stage "spt-dist" / "final-dist": downcast of TRUE distances over a
// parent forest. Children announce themselves up their parent edge in
// round 1; each vertex, once its own distance arrives from above, sends
// dist(v) to every announced child, which adds the true edge weight —
// dist(c) = dist(v) + w, the exact accumulation of the sequential
// remeasure, so distances agree bit-for-bit.
const (
	ddAnnounce = iota // child -> parent: "I am your child"
	ddDist            // parent -> child: my true distance (float bits)
)

type distDownProg struct {
	congest.NoPhases
	root    graph.Vertex
	parent  []graph.EdgeID // input forest
	dist    []float64      // shared output; pre-set to +Inf, 0 at root
	have    bool
	waiting []graph.EdgeID
}

func (p *distDownProg) Init(ctx *congest.Ctx) {
	v := ctx.V()
	if v == p.root {
		p.have = true
		p.dist[v] = 0
	}
	if e := p.parent[v]; e != graph.NoEdge {
		if err := ctx.Send(e, ddAnnounce); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *distDownProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	v := ctx.V()
	for _, m := range inbox {
		switch m.Words[0] {
		case ddAnnounce:
			if p.have {
				p.reply(ctx, m.Via)
			} else {
				p.waiting = append(p.waiting, m.Via)
			}
		case ddDist:
			w := ctx.Neighbors()[ctx.SlotOf(m.Via)].W
			p.dist[v] = math.Float64frombits(uint64(m.Words[1])) + w
			p.have = true
			for _, e := range p.waiting {
				p.reply(ctx, e)
			}
			p.waiting = nil
		}
	}
}

func (p *distDownProg) reply(ctx *congest.Ctx, e graph.EdgeID) {
	if err := ctx.Send(e, ddDist, int64(math.Float64bits(p.dist[ctx.V()]))); err != nil {
		ctx.Fail(err)
	}
}

// ---------------------------------------------------------------------
// Stage "euler-up": convergecast of subtree tour lengths over the tree
// edges — the ℓ(v)/g(v) computation of §3. Each leaf reports
// (g=0, gUnit=0); an internal vertex accumulates its children's reports
// in child-id order, g(v) = Σ (g(z)+2w(v,z)), and reports upward.
type eulerUpProg struct {
	congest.NoPhases
	st   *mstate
	sent bool
}

func (p *eulerUpProg) Init(ctx *congest.Ctx) {
	v := ctx.V()
	t := &p.st.vs[v]
	t.children = p.st.deriveChildren(ctx)
	t.reported = 0
	if len(t.children) == 0 {
		p.finish(ctx, t)
	}
}

func (p *eulerUpProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	t := &p.st.vs[ctx.V()]
	for _, m := range inbox {
		i := t.childBy(m.Via)
		if i < 0 || t.children[i].reported {
			continue
		}
		t.children[i].reported = true
		t.children[i].gSub = math.Float64frombits(uint64(m.Words[0]))
		t.children[i].gUnit = m.Words[1]
		t.reported++
	}
	if !p.sent && t.reported == len(t.children) {
		p.finish(ctx, t)
	}
}

// finish folds the children's lengths — in child-id order, matching
// euler.globalTourLengths's accumulation — and reports to the parent.
func (p *eulerUpProg) finish(ctx *congest.Ctx, t *vtour) {
	p.sent = true
	t.gSub, t.gUnit = 0, 0
	for i := range t.children {
		c := &t.children[i]
		t.gSub += c.gSub + 2*c.w
		t.gUnit += c.gUnit + 2
	}
	v := ctx.V()
	if v == p.st.rt {
		return
	}
	if err := ctx.Send(p.st.treeParent[v], int64(math.Float64bits(t.gSub)), t.gUnit); err != nil {
		ctx.Fail(err)
	}
}

// ---------------------------------------------------------------------
// Stage "euler-down": top-down assignment of DFS interval starts (§3.3),
// weighted and unweighted in one pass. Each vertex, knowing its own
// start and its children's subtree lengths, computes
//
//	start(z_j) = off + w(v, z_j);  off += g(z_j) + 2·w(v, z_j)
//
// exactly as euler.Build does, then derives all of its own tour
// appearances locally: position/time k+1 follows child k's excursion.
type eulerDownProg struct {
	congest.NoPhases
	st *mstate
}

func (p *eulerDownProg) Init(ctx *congest.Ctx) {
	v := ctx.V()
	if v == p.st.rt {
		t := &p.st.vs[v]
		t.start, t.startUnit = 0, 0
		p.emit(ctx, t)
	}
}

func (p *eulerDownProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	v := ctx.V()
	t := &p.st.vs[v]
	for _, m := range inbox {
		if m.Via != p.st.treeParent[v] {
			continue
		}
		t.start = math.Float64frombits(uint64(m.Words[0]))
		t.startUnit = m.Words[1]
		p.emit(ctx, t)
	}
}

func (p *eulerDownProg) emit(ctx *congest.Ctx, t *vtour) {
	off, offU := t.start, t.startUnit
	for i := range t.children {
		c := &t.children[i]
		c.start = off + c.w
		c.startUnit = offU + 1
		if err := ctx.Send(c.edge, int64(math.Float64bits(c.start)), c.startUnit); err != nil {
			ctx.Fail(err)
			return
		}
		off += c.gSub + 2*c.w
		offU += c.gUnit + 2
	}
	// Appearance k=0 enters at the interval start; appearance k+1 is the
	// return from child k's excursion — the recurrence euler.Build now
	// uses for R, so positions and times agree bit-for-bit.
	t.pos = make([]int64, 1, len(t.children)+1)
	t.r = make([]float64, 1, len(t.children)+1)
	t.pos[0], t.r[0] = t.startUnit, t.start
	for i := range t.children {
		c := &t.children[i]
		t.pos = append(t.pos, c.startUnit+c.gUnit+1)
		t.r = append(t.r, c.start+c.gSub+c.w)
	}
	t.bp = make([]bool, len(t.pos))
}

// ---------------------------------------------------------------------
// Stage "bp-walk": phase 1 of the §4.1 two-phase break-point selection.
// The tour is cut into intervals of alpha positions; a walker token
// starts at every interval head and steps one tour position per round
// (consecutive tour positions are tree-adjacent, and each directed tree
// edge is one unique tour step, so walkers never collide). The token
// carries the running anchor R(y); each visited position x_j applies the
// rule R(x_j) − R(y) > ε·dist(rt, x_j) — the identical comparison, on
// identical bits, as the accounted twoPhaseBreakPoints — marking x_j a
// break point and re-anchoring when it fires. All intervals walk in
// parallel: alpha rounds total.
type bpWalkProg struct {
	congest.NoPhases
	st *mstate
}

func (p *bpWalkProg) Init(ctx *congest.Ctx) {
	st := p.st
	t := &st.vs[ctx.V()]
	for k, pos := range t.pos {
		if pos%int64(st.alpha) != 0 {
			continue
		}
		end := pos + int64(st.alpha)
		if end > int64(st.m) {
			end = int64(st.m)
		}
		if left := end - pos - 1; left > 0 {
			p.forward(ctx, t, k, t.r[k], left)
		}
	}
}

func (p *bpWalkProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	st := p.st
	v := ctx.V()
	t := &st.vs[v]
	for _, m := range inbox {
		k := t.appearanceBy(st, v, m.Via)
		anchor := math.Float64frombits(uint64(m.Words[0]))
		left := m.Words[1]
		if t.r[k]-anchor > st.eps*st.rootDist[v] {
			t.bp[k] = true
			anchor = t.r[k]
		}
		if left--; left > 0 {
			p.forward(ctx, t, k, anchor, left)
		}
	}
}

// forward sends the walker along the tour step leaving appearance k:
// down into child k, or back up to the parent after the last child.
func (p *bpWalkProg) forward(ctx *congest.Ctx, t *vtour, k int, anchor float64, left int64) {
	v := ctx.V()
	var e graph.EdgeID
	if k < len(t.children) {
		e = t.children[k].edge
	} else {
		if v == p.st.rt {
			return // position 2n-2: the tour ends here
		}
		e = p.st.treeParent[v]
	}
	if err := ctx.Send(e, int64(math.Float64bits(anchor)), left); err != nil {
		ctx.Fail(err)
	}
}

// ---------------------------------------------------------------------
// Stage "bp-heads": pipelined convergecast of the interval-head tuples
// (position, R, dist) to rt over the BFS tree of G — the Lemma 1 upcast
// of ≈2√n tokens in O(√n + D) rounds. Each vertex forwards one queued
// tuple per round to its BFS parent and records, per head position, the
// edge it arrived on; the next stage routes the selection back down the
// recorded paths.
type bpHeadsProg struct {
	congest.NoPhases
	st *mstate
	// queue[head:] is the token backlog. Consuming via the head index
	// (not by re-slicing forward) keeps the backing array reusable:
	// re-slicing would pin the consumed prefix while forcing every
	// append to grow a fresh tail.
	queue []headTuple
	head  int
}

func (p *bpHeadsProg) Init(ctx *congest.Ctx) {
	st := p.st
	v := ctx.V()
	t := &st.vs[v]
	// Reset only; the map is built lazily in Handle. Almost every vertex
	// relays no head token (there are ~2√n heads against n vertices), so
	// allocating n maps up front would dominate the stage's allocations.
	t.route = nil
	for k, pos := range t.pos {
		if pos%int64(st.alpha) != 0 {
			continue
		}
		tup := headTuple{pos: pos, r: t.r[k], dist: st.rootDist[v]}
		if v == st.rt {
			st.rootTuples = append(st.rootTuples, tup)
		} else {
			p.queue = append(p.queue, tup)
		}
	}
	p.pump(ctx)
}

func (p *bpHeadsProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	st := p.st
	v := ctx.V()
	t := &st.vs[v]
	for _, m := range inbox {
		tup := headTuple{
			pos:  m.Words[0],
			r:    math.Float64frombits(uint64(m.Words[1])),
			dist: math.Float64frombits(uint64(m.Words[2])),
		}
		if t.route == nil {
			t.route = make(map[int64]graph.EdgeID)
		}
		t.route[tup.pos] = m.Via
		if v == st.rt {
			st.rootTuples = append(st.rootTuples, tup)
		} else {
			p.queue = append(p.queue, tup)
		}
	}
	p.pump(ctx)
}

func (p *bpHeadsProg) pump(ctx *congest.Ctx) {
	v := ctx.V()
	if v == p.st.rt || p.head == len(p.queue) {
		return
	}
	tup := p.queue[p.head]
	p.head++
	if p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	} else if p.head >= 64 && p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		p.queue, p.head = p.queue[:n], 0
	}
	err := ctx.Send(p.st.bfsParent[v], tup.pos, int64(math.Float64bits(tup.r)), int64(math.Float64bits(tup.dist)))
	if err != nil {
		ctx.Fail(err)
		return
	}
	if p.head < len(p.queue) {
		ctx.Stay()
	}
}

// ---------------------------------------------------------------------
// Stage "bp-select": phase 2. The root replays the sequential filtering
// of the interval heads — y = x_0; head joins BP2 when
// R(head) − R(y) > ε·dist(rt, head) — on the gathered tuples sorted by
// position (identical operands, identical comparisons as the accounted
// rule), then routes each selected position back down the reverse paths
// recorded by bp-heads. Hosts mark the selected appearance.
type bpSelectProg struct {
	congest.NoPhases
	st      *mstate
	pending []int64
}

func (p *bpSelectProg) Init(ctx *congest.Ctx) {
	st := p.st
	v := ctx.V()
	if v != st.rt {
		return
	}
	t := &st.vs[v]
	sort.Slice(st.rootTuples, func(a, b int) bool { return st.rootTuples[a].pos < st.rootTuples[b].pos })
	t.bp[0] = true // x_0 ∈ BP2 by construction (position 0 is rt's first appearance)
	yR := t.r[0]
	for _, tup := range st.rootTuples {
		if tup.pos == 0 {
			continue
		}
		if tup.r-yR > st.eps*tup.dist {
			yR = tup.r
			if k := t.appearanceAt(tup.pos); k >= 0 {
				t.bp[k] = true // rt hosts this head itself
			} else {
				p.pending = append(p.pending, tup.pos)
			}
		}
	}
	p.pump(ctx)
}

func (p *bpSelectProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	t := &p.st.vs[ctx.V()]
	for _, m := range inbox {
		pos := m.Words[0]
		if k := t.appearanceAt(pos); k >= 0 {
			t.bp[k] = true // this vertex hosts the selected head
		} else {
			p.pending = append(p.pending, pos)
		}
	}
	p.pump(ctx)
}

// pump forwards each pending selection one hop down its recorded
// reverse path; positions whose edge is busy this round retry next
// round (at most one message per edge direction per round).
func (p *bpSelectProg) pump(ctx *congest.Ctx) {
	t := &p.st.vs[ctx.V()]
	rest := p.pending[:0]
	for _, pos := range p.pending {
		e, ok := t.route[pos]
		if !ok {
			ctx.Fail(errors.New("slt: no reverse route for break-point head"))
			return
		}
		if err := ctx.Send(e, pos); err != nil {
			if errors.Is(err, congest.ErrEdgeBusy) {
				rest = append(rest, pos)
				continue
			}
			ctx.Fail(err)
			return
		}
	}
	p.pending = rest
	if len(p.pending) > 0 {
		ctx.Stay()
	}
}

// ---------------------------------------------------------------------
// Stage "h-mark": the ABP path-marking of §4.2. Every vertex hosting a
// selected tour position marks itself and notifies its SPT parent; marks
// propagate rootward, each newly marked vertex adding its SPT parent
// edge to H, and stop at already-marked vertices — reproducing exactly
// the edge set of the sequential buildH walk-up.
type hMarkProg struct {
	congest.NoPhases
	st *mstate
}

func (p *hMarkProg) Init(ctx *congest.Ctx) {
	st := p.st
	v := ctx.V()
	t := &st.vs[v]
	t.marked = false
	if v == st.rt {
		t.marked = true // the SPT source starts marked (adds no edge)
		return
	}
	for _, b := range t.bp {
		if b {
			p.mark(ctx, t)
			return
		}
	}
}

func (p *hMarkProg) Handle(ctx *congest.Ctx, inbox []congest.Message) {
	t := &p.st.vs[ctx.V()]
	if len(inbox) > 0 && !t.marked {
		p.mark(ctx, t)
	}
}

func (p *hMarkProg) mark(ctx *congest.Ctx, t *vtour) {
	st := p.st
	v := ctx.V()
	t.marked = true
	e := st.sptParent[v]
	if e == graph.NoEdge {
		return
	}
	st.inH[e] = true // e is owned by v (v's parent edge): unique writer
	if err := ctx.Send(e, 0); err != nil {
		ctx.Fail(err)
	}
}

// ---------------------------------------------------------------------
// Pooled stage factories. The measured pipeline installs one program
// per vertex per stage; at n = 10⁶ and thirteen stages a fresh
// allocation per program is 13M objects of GC pressure for state that
// is dead the moment the next stage starts. sltPools owns one dense
// slot slice per program type (congest.StagePool) and the factories
// reset slots in place — per-vertex scratch (a downcast's waiting list,
// a relay's queue) keeps its capacity from stage to stage. The two
// Bellman-Ford passes and the two downcasts share their pools.
type sltPools struct {
	spt   congest.StagePool[sptProg]
	dist  congest.StagePool[distDownProg]
	eup   congest.StagePool[eulerUpProg]
	edn   congest.StagePool[eulerDownProg]
	walk  congest.StagePool[bpWalkProg]
	heads congest.StagePool[bpHeadsProg]
	sel   congest.StagePool[bpSelectProg]
	hmark congest.StagePool[hMarkProg]
}

func (pl *sltPools) sptFactory(n int, src graph.Vertex, pw []float64, parent []graph.EdgeID) func(graph.Vertex) congest.Program {
	slots := pl.spt.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = sptProg{src: src, pw: pw, parent: parent}
		return p
	}
}

func (pl *sltPools) distDownFactory(n int, root graph.Vertex, parent []graph.EdgeID, dist []float64) func(graph.Vertex) congest.Program {
	slots := pl.dist.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = distDownProg{root: root, parent: parent, dist: dist, waiting: p.waiting[:0]}
		return p
	}
}

func (pl *sltPools) eulerUpFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.eup.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = eulerUpProg{st: st}
		return p
	}
}

func (pl *sltPools) eulerDownFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.edn.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = eulerDownProg{st: st}
		return p
	}
}

func (pl *sltPools) bpWalkFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.walk.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = bpWalkProg{st: st}
		return p
	}
}

func (pl *sltPools) bpHeadsFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.heads.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = bpHeadsProg{st: st, queue: p.queue[:0]}
		return p
	}
}

func (pl *sltPools) bpSelectFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.sel.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = bpSelectProg{st: st, pending: p.pending[:0]}
		return p
	}
}

func (pl *sltPools) hMarkFactory(n int, st *mstate) func(graph.Vertex) congest.Program {
	slots := pl.hmark.Slots(n)
	return func(v graph.Vertex) congest.Program {
		p := &slots[v]
		*p = hMarkProg{st: st}
		return p
	}
}
