package congest

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"

	"lightnet/internal/graph"
)

// mstProgram is the two-phase Õ(√n + D) MST of [KP98, Elk17b]: a
// fragment-growing phase capped at ⌈√n⌉ vertices, then a pipelined
// upcast of the surviving inter-fragment edges over a BFS tree. It runs
// after a BFS stage and reads that stage's parent edges.
//
// Phase 1, capped controlled merging. Vertices start as singleton
// fragments labelled by their own id; a neighbor's initial label is its
// id, so the first iteration needs no announcement. The label of a
// fragment is always the id of its root. Each of ⌈log₂ n⌉ iterations
// opens with one global barrier and then runs message-driven:
//
//	announce:  a vertex whose label changed in the last iteration tells
//	           its non-tree neighbors in a one-word message (1 round);
//	up:        each active fragment convergecasts its minimum outgoing
//	           edge (MOE) under the (w, id) order and its size to the
//	           root (fragment height rounds);
//	down:      the root's decision travels back: the fragment is big
//	           (size ≥ ⌈√n⌉: it stops choosing), done (no outgoing
//	           edge), or merges along its MOE. A vertex whose subtree
//	           alone reaches ⌈√n⌉ decides "big" itself, sends it down
//	           at once and up without waiting for its other children,
//	           so learning bigness costs the fragment's height once;
//	merge:     the MOE owner asks the far fragment with 'A'. A fragment
//	           is a head or a tail by a coin that is a pure hash of
//	           (seed, label, iteration), so every vertex can toss any
//	           fragment's coin without messages. A tail joins the
//	           fragment its MOE reaches; a head joins only a big one;
//	           of two tails that chose the same edge, the larger label
//	           joins. Joined fragments relabel by a flood over their
//	           tree that also re-roots them at the attaching vertex.
//	           A chain tail → tail → head relabels twice; relabels
//	           carry the sender's counter, so a stale one is ignored.
//
// Fragments outside the BFS tree's component have no phase 2: they run
// uncapped (every fragment is a tail), which is plain Borůvka and spans
// each component within the ⌈log₂ n⌉ iterations.
//
// Phase 2, pipelined upcast. After one more barrier, which carries the
// last label changes and tells every BFS parent its children, each
// inter-fragment edge is injected by its smaller endpoint as
// (w, id, label pair) and travels up the BFS tree in (w, id) order: a
// vertex forwards its smallest pending candidate once every unfinished
// child has one queued (a k-way merge), one per round, and drops those
// that close a cycle over the fragments it already forwarded (the
// cycle rule, run as Kruskal on a local union-find). The root accepts
// what survives — the MST edges between fragments — and routes each one
// back down the path it came up; the injecting endpoint marks it and
// tells the far endpoint with one message. Candidates fit four words.
//
// Edge weights are totally ordered by (w, id), so the MST is unique and
// the result is the Kruskal tree bit for bit, whatever the coins, the
// BFS tree or the worker count.
type mstProgram struct {
	*mstShared

	step      int32 // barriers passed: the current iteration in phase 1
	label     int32
	said      int32 // label last announced to the neighbors
	ver       int32 // relabel counter, stamped on outgoing relabels
	parentVer int32 // counter of the last relabel taken from parent
	parent    graph.EdgeID
	capped    bool // in the BFS tree's component
	big, done bool
	changed   bool // label changed: forward the relabel
	downSent  bool // the decision went down in this round

	// Per iteration.
	decided bool  // the fragment's decision is known here
	local   bool  // the local MOE candidate is still to be computed
	upSent  bool  // this vertex's aggregate went up (or was decided)
	pending int32 // children yet to report
	size    int32 // vertices in this subtree, as far as reported
	bestID  int32
	localID int32 // this vertex's own candidate
	moe     int32 // the fragment's MOE once decided
	bestW   float64

	// nbrFrag[slot] is the last label heard from the neighbor on that
	// adjacency slot, or mstOff / mstTree; the tree edges are also
	// listed in treeEdges.
	nbrFrag   []int32
	treeEdges []graph.EdgeID
	reqs      []mstReq
	fresh     []graph.EdgeID // edges adopted this round that need our label

	// up is the phase-2 state, allocated only at a vertex with BFS
	// children or candidates of its own; the children are recorded in
	// it as they announce themselves at the last barrier of phase 1.
	up *mstUpcast
}

// mstShared is the part of the stage every vertex reads.
type mstShared struct {
	inTree    []bool         // per edge id: set once, by the accepting endpoint
	frag      []int64        // optional: per-vertex label after phase 1
	bfsParent []graph.EdgeID // read-only: the BFS tree's parent edges
	root      graph.Vertex   // the BFS root
	seed      int64
	iters     int32 // phase-1 iterations
	cap       int32 // fragment size at which a fragment stops choosing
}

// mstReq is an 'A' request deferred until the fragment's decision
// arrives.
type mstReq struct {
	via   graph.EdgeID
	label int32
}

const (
	mstNone = int32(math.MaxInt32) // no edge
	mstOff  = int32(-1)            // nbrFrag: an edge outside the stage's subgraph
	mstTree = int32(-2)            // nbrFrag: a fragment-tree edge
	// mstHeadP is the probability that a fragment is a head.
	mstHeadP = 0.3
)

var mstHeadThreshold = probThreshold(mstHeadP)

// errMSTEdge marks a send that failed for a reason other than a busy
// edge.
var errMSTEdge = errors.New("congest: mst send failed")

// mstIterations is the number of phase-1 iterations for n vertices:
// ⌈log₂ n⌉, enough for uncapped Borůvka to span every component.
func mstIterations(n int) int32 {
	if n <= 2 {
		return 1
	}
	return int32(bits.Len(uint(n - 1)))
}

// ceilSqrt returns ⌈√n⌉.
func ceilSqrt(n int) int32 {
	return int32(math.Ceil(math.Sqrt(float64(n))))
}

// better reports whether (w1,id1) < (w2,id2) in the total edge order.
func better(w1 float64, id1 int32, w2 float64, id2 int32) bool {
	if w1 != w2 {
		return w1 < w2
	}
	return id1 < id2
}

// head reports whether the fragment labelled l is a head in the current
// iteration. Outside the BFS component every fragment is a tail.
func (p *mstProgram) head(l int32) bool {
	return p.capped && faultHash(p.seed, int(p.step), int64(l), 'H') < mstHeadThreshold
}

// joins reports whether fragment from, whose MOE is the edge in
// question, merges into fragment to along it. mutual means to chose the
// same edge (to is then active, so not big).
func (p *mstProgram) joins(from, to int32, toBig, mutual bool) bool {
	if p.head(from) {
		return toBig
	}
	if mutual && !p.head(to) {
		return from > to
	}
	return true
}

func (p *mstProgram) Init(ctx *Ctx) {
	v := ctx.V()
	p.label = int32(v)
	p.said = p.label
	p.parent = graph.NoEdge
	p.parentVer = -1
	p.capped = v == p.root || p.bfsParent[v] != graph.NoEdge
	deg := ctx.Degree()
	p.nbrFrag = slices.Grow(p.nbrFrag[:0], deg)[:deg]
	for i, h := range ctx.Neighbors() {
		p.nbrFrag[i] = mstOff
		if ctx.Allowed(h.ID) {
			p.nbrFrag[i] = int32(h.To)
		}
	}
	p.begin()
	// Iteration 0: every fragment is a singleton rooted here, so the
	// decision is local.
	p.advance(ctx)
}

// begin resets the per-iteration state of an active fragment's vertex.
func (p *mstProgram) begin() {
	p.reqs = p.reqs[:0]
	p.moe, p.localID = mstNone, mstNone
	p.decided = p.big || p.done
	p.local = !p.decided
	p.upSent = false
	p.pending = int32(len(p.treeEdges))
	if p.parent != graph.NoEdge {
		p.pending--
	}
	p.size = 1
	p.bestW, p.bestID = math.Inf(1), mstNone
}

// advance computes the local candidate once, and sends the subtree's
// aggregate up when every child has reported. The fragment root
// decides; so does any vertex whose subtree alone reaches the cap, as
// the fragment is then big whatever the rest of it reports.
func (p *mstProgram) advance(ctx *Ctx) {
	if p.local {
		p.local = false
		w := math.Inf(1)
		for i, h := range ctx.Neighbors() {
			if f := p.nbrFrag[i]; f >= 0 && f != p.label && better(h.W, int32(h.ID), w, p.localID) {
				w, p.localID = h.W, int32(h.ID)
			}
		}
		if better(w, p.localID, p.bestW, p.bestID) {
			p.bestW, p.bestID = w, p.localID
		}
	}
	if p.decided || p.upSent {
		return
	}
	big := p.capped && p.size >= p.cap
	if p.pending > 0 && !big {
		return
	}
	p.upSent = true
	if p.parent != graph.NoEdge {
		p.send(ctx, p.parent, 'U', int64(math.Float64bits(p.bestW)), int64(p.bestID), int64(p.size))
		if !big {
			return
		}
	}
	p.apply(ctx, p.bestID, big, p.parent)
}

// apply installs the fragment's decision, passes it on down the tree,
// sends the MOE request if the MOE is ours, and serves deferred
// requests.
func (p *mstProgram) apply(ctx *Ctx, moe int32, big bool, from graph.EdgeID) {
	p.decided = true
	for _, e := range p.treeEdges {
		if e != from {
			p.send(ctx, e, 'D', int64(moe), b2i(big), int64(p.label))
			p.downSent = true
		}
	}
	switch {
	case big:
		p.big = true
	case moe == mstNone:
		p.done = true
	default:
		p.moe = moe
		if moe == p.localID {
			p.send(ctx, graph.EdgeID(moe), 'A', int64(p.label))
		}
	}
	for _, r := range p.reqs {
		p.request(ctx, r.via, r.label)
	}
	p.reqs = p.reqs[:0]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// request serves an 'A' from fragment lf over edge e.
func (p *mstProgram) request(ctx *Ctx, e graph.EdgeID, lf int32) {
	if lf == p.label {
		return // the sender's view of us was stale: an internal edge
	}
	if !p.decided {
		p.reqs = append(p.reqs, mstReq{e, lf})
		return
	}
	mutual := p.moe == int32(e)
	if mutual && p.joins(p.label, lf, false, true) {
		// Both chose e and we are the one that joins: the request
		// carries the label we take.
		p.relabel(ctx, e, lf, -1, false)
		return
	}
	if p.joins(lf, p.label, p.big, mutual) {
		p.adopt(ctx, e)
		p.inTree[e] = true
		if !mutual {
			// Tell the joiner our label; in the mutual case our own 'A'
			// already did.
			p.fresh = append(p.fresh, e)
		}
	}
}

// adopt marks e as a fragment-tree edge at this endpoint.
func (p *mstProgram) adopt(ctx *Ctx, e graph.EdgeID) {
	if s := ctx.SlotOf(e); p.nbrFrag[s] != mstTree {
		p.nbrFrag[s] = mstTree
		p.treeEdges = append(p.treeEdges, e)
	}
}

// relabel takes a label arriving over e: from the fragment-tree parent
// (unless stale), from any other tree edge (the flood re-roots us), or
// over our MOE (we joined). The forward happens at the end of the round.
func (p *mstProgram) relabel(ctx *Ctx, e graph.EdgeID, label, ver int32, big bool) {
	if e == p.parent {
		if ver <= p.parentVer {
			return
		}
	} else if p.nbrFrag[ctx.SlotOf(e)] != mstTree {
		if int32(e) != p.moe || p.moe != p.localID {
			return
		}
		p.adopt(ctx, e)
	}
	p.parent, p.parentVer = e, ver
	if label != p.label || big != p.big {
		p.label, p.big = label, big
		p.ver++
		p.changed = true
	}
}

// send sends one message, tolerating a busy edge (a message already
// queued there this round).
func (p *mstProgram) send(ctx *Ctx, e graph.EdgeID, words ...int64) {
	if err := ctx.Send(e, words...); err != nil && !errors.Is(err, ErrEdgeBusy) {
		ctx.Fail(errors.Join(errMSTEdge, err))
	}
}

func (p *mstProgram) Handle(ctx *Ctx, inbox []Message) {
	if p.step > p.iters {
		p.handleUpcast(ctx, inbox)
		return
	}
	for i, m := range inbox {
		if duplicate(inbox, i) {
			continue
		}
		if len(m.Words) == 1 {
			// An announcement, the only one-word message: the sender's
			// label, and in the low bit whether it is our BFS child.
			if s := ctx.SlotOf(m.Via); p.nbrFrag[s] != mstTree {
				p.nbrFrag[s] = int32(m.Words[0] >> 1)
			}
			if m.Words[0]&1 != 0 {
				if p.up == nil {
					p.up = &mstUpcast{}
				}
				p.up.kids = append(p.up.kids, mstKid{edge: m.Via, head: -1, tail: -1})
			}
			continue
		}
		switch m.Words[0] {
		case 'U':
			if !p.decided && p.pending > 0 {
				if w, id := math.Float64frombits(uint64(m.Words[1])), int32(m.Words[2]); better(w, id, p.bestW, p.bestID) {
					p.bestW, p.bestID = w, id
				}
				p.size += int32(m.Words[3])
				p.pending--
			}
		case 'D':
			if !p.decided && int32(m.Words[3]) == p.label {
				p.apply(ctx, int32(m.Words[1]), m.Words[2] != 0, m.Via)
			}
		case 'A':
			p.request(ctx, m.Via, int32(m.Words[1]))
		case 'R':
			p.relabel(ctx, m.Via, int32(m.Words[1]), int32(m.Words[2]>>1), m.Words[2]&1 != 0)
		}
	}
	p.advance(ctx)
	if p.downSent {
		// The decision went down the tree edges this round; a relabel
		// follows it one round later, so it never overtakes it.
		p.downSent = false
		if p.changed || len(p.fresh) > 0 {
			ctx.Stay()
		}
		return
	}
	if p.changed {
		p.changed = false
		p.fresh = p.fresh[:0]
		for _, e := range p.treeEdges {
			if e != p.parent {
				p.sendLabel(ctx, e)
			}
		}
	} else {
		for _, e := range p.fresh {
			p.sendLabel(ctx, e)
		}
		p.fresh = p.fresh[:0]
	}
}

func (p *mstProgram) sendLabel(ctx *Ctx, e graph.EdgeID) {
	p.send(ctx, e, 'R', int64(p.label), int64(p.ver)<<1|b2i(p.big))
}

// announce tells the non-tree neighbors a changed label; with notify,
// it also tells the BFS parent that this vertex is its child.
func (p *mstProgram) announce(ctx *Ctx, notify bool) {
	changed := p.label != p.said
	pe := graph.NoEdge
	if notify && p.capped && ctx.V() != p.root {
		pe = p.bfsParent[ctx.V()]
	}
	if !changed && pe == graph.NoEdge {
		return
	}
	p.said = p.label
	for i, h := range ctx.Neighbors() {
		switch {
		case h.ID == pe:
			p.send(ctx, h.ID, int64(p.label)<<1|1)
		case changed && p.nbrFrag[i] >= 0:
			p.send(ctx, h.ID, int64(p.label)<<1)
		}
	}
}

func (p *mstProgram) PhaseDone(ctx *Ctx) bool {
	p.step++
	isRoot := ctx.V() == p.root
	switch {
	case p.step < p.iters:
		p.announce(ctx, false)
		p.begin()
		return !p.decided || isRoot
	case p.step == p.iters:
		p.announce(ctx, true)
		return isRoot
	case p.step == p.iters+1:
		if p.frag != nil {
			p.frag[ctx.V()] = int64(p.label)
		}
		if !p.capped {
			return false
		}
		p.startUpcast(ctx)
		return true
	}
	return false
}

// mstUpcast is one BFS-tree vertex's phase-2 state. Kid 0 is the
// vertex itself (its own candidates, complete from the start); kids
// 1.. are its BFS children, sorted by edge. Each kid's candidates queue
// in arrival order, which is (w, id) order, as a linked list through
// nodes.
type mstUpcast struct {
	kids  []mstKid
	nodes []mstNode
	heap  []int32  // kids with a queued candidate, smallest head first
	sets  []mstSet // local union-find over fragment labels
	fwd   []mstFwd // candidates passed on (accepted, at the root), in order
	out   []mstOut // queued sends down the tree and to far endpoints
	open  int32    // unfinished kids with an empty queue: the merge waits
	live  int32    // unfinished kids
	cur   int32    // routing cursor into fwd
	ended bool     // 'E' sent to the parent
}

type mstKid struct {
	edge       graph.EdgeID
	head, tail int32 // queue ends in nodes, -1 when empty
	done       bool
}

type mstCand struct {
	w      float64
	id     int32
	la, lb int32 // fragment labels of the endpoints
}

type mstNode struct {
	c    mstCand
	next int32
}

type mstSet struct {
	label, up int32
}

type mstFwd struct {
	id, kid int32
}

type mstOut struct {
	edge graph.EdgeID
	id   int32 // -1: tell the far endpoint over edge; else route id down edge
}

// startUpcast builds this vertex's phase-2 state at the barrier and
// sends what is already ready. A leaf with no candidates of its own
// only ends its stream.
func (p *mstProgram) startUpcast(ctx *Ctx) {
	v := ctx.V()
	own := 0
	for i, h := range ctx.Neighbors() {
		if f := p.nbrFrag[i]; f >= 0 && f != p.label && v < h.To {
			own++
		}
	}
	u := p.up
	if u == nil && own > 0 {
		u = &mstUpcast{}
		p.up = u
	}
	if own > 0 {
		// Sized for a leaf, the common case: it forwards at most its own
		// candidates, which name at most own+1 fragments.
		u.nodes = make([]mstNode, 0, own)
		u.fwd = make([]mstFwd, 0, own)
		u.sets = make([]mstSet, 0, own+1)
		for i, h := range ctx.Neighbors() {
			if f := p.nbrFrag[i]; f >= 0 && f != p.label && v < h.To {
				u.nodes = append(u.nodes, mstNode{c: mstCand{w: h.W, id: int32(h.ID), la: p.label, lb: f}})
			}
		}
	}
	if u == nil {
		if v != p.root {
			p.send(ctx, p.bfsParent[v], 'E')
		}
		return
	}
	u.kids = slices.Insert(u.kids, 0, mstKid{edge: graph.NoEdge, head: -1, tail: -1, done: true})
	slices.SortFunc(u.kids[1:], func(a, b mstKid) int { return cmp.Compare(a.edge, b.edge) })
	u.live = int32(len(u.kids) - 1)
	u.open = u.live
	slices.SortFunc(u.nodes, func(a, b mstNode) int {
		if better(a.c.w, a.c.id, b.c.w, b.c.id) {
			return -1
		}
		return 1
	})
	for i := range u.nodes {
		u.enqueue(0, int32(i))
	}
	u.pump(ctx, p)
}

// kid returns the index of the child on edge e, 0 if there is none.
func (u *mstUpcast) kid(e graph.EdgeID) int32 {
	i, ok := slices.BinarySearchFunc(u.kids[1:], e, func(k mstKid, e graph.EdgeID) int { return cmp.Compare(k.edge, e) })
	if !ok {
		return 0
	}
	return int32(i + 1)
}

// enqueue appends node i to kid k's queue.
func (u *mstUpcast) enqueue(k int32, i int32) {
	u.nodes[i].next = -1
	kd := &u.kids[k]
	if kd.head < 0 {
		kd.head = i
		if !kd.done {
			u.open--
		}
		u.heap = append(u.heap, k)
		u.siftUp(len(u.heap) - 1)
	} else {
		u.nodes[kd.tail].next = i
	}
	kd.tail = i
}

// less orders heap entries by their kids' queue heads.
func (u *mstUpcast) less(i, j int) bool {
	a := &u.nodes[u.kids[u.heap[i]].head].c
	b := &u.nodes[u.kids[u.heap[j]].head].c
	return better(a.w, a.id, b.w, b.id)
}

func (u *mstUpcast) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !u.less(i, parent) {
			return
		}
		u.heap[i], u.heap[parent] = u.heap[parent], u.heap[i]
		i = parent
	}
}

func (u *mstUpcast) siftDown(i int) {
	for {
		l, m := 2*i+1, i
		if l < len(u.heap) && u.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(u.heap) && u.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		u.heap[i], u.heap[m] = u.heap[m], u.heap[i]
		i = m
	}
}

// pop removes the smallest queued candidate and returns it with its kid.
func (u *mstUpcast) pop() (int32, mstCand) {
	k := u.heap[0]
	kd := &u.kids[k]
	c := u.nodes[kd.head].c
	kd.head = u.nodes[kd.head].next
	if kd.head < 0 {
		kd.tail = -1
		if !kd.done {
			u.open++
		}
		last := len(u.heap) - 1
		u.heap[0] = u.heap[last]
		u.heap = u.heap[:last]
	}
	if len(u.heap) > 0 {
		u.siftDown(0)
	}
	return k, c
}

// find returns the union-find root index of a fragment label, adding
// the label on first sight.
func (u *mstUpcast) find(l int32) int32 {
	i := int32(slices.IndexFunc(u.sets, func(s mstSet) bool { return s.label == l }))
	if i < 0 {
		u.sets = append(u.sets, mstSet{label: l, up: int32(len(u.sets))})
		return int32(len(u.sets) - 1)
	}
	for u.sets[i].up != i {
		u.sets[i].up = u.sets[u.sets[i].up].up
		i = u.sets[i].up
	}
	return i
}

// union joins two fragments; false means the edge closes a cycle.
func (u *mstUpcast) union(a, b int32) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.sets[ra].up = rb
	return true
}

func (p *mstProgram) handleUpcast(ctx *Ctx, inbox []Message) {
	u := p.up
	for i, m := range inbox {
		if duplicate(inbox, i) {
			continue
		}
		if m.Words[0] == 'X' {
			p.adopt(ctx, m.Via)
			continue
		}
		if u == nil {
			continue // from a child whose announcement was lost
		}
		switch m.Words[0] {
		case 'K':
			k := u.kid(m.Via)
			if k == 0 || u.kids[k].done {
				continue
			}
			labels := uint64(m.Words[3])
			u.nodes = append(u.nodes, mstNode{c: mstCand{
				w:  math.Float64frombits(uint64(m.Words[1])),
				id: int32(m.Words[2]),
				la: int32(labels >> 32), lb: int32(labels & math.MaxUint32),
			}})
			u.enqueue(k, int32(len(u.nodes)-1))
		case 'E':
			if k := u.kid(m.Via); k != 0 && !u.kids[k].done {
				kd := &u.kids[k]
				kd.done = true
				u.live--
				if kd.head < 0 {
					u.open--
				}
			}
		case 'T':
			id := int32(m.Words[1])
			for int(u.cur) < len(u.fwd) && u.fwd[u.cur].id != id {
				u.cur++
			}
			if int(u.cur) < len(u.fwd) {
				u.route(p, u.fwd[u.cur].kid, id)
				u.cur++
			}
		}
	}
	if u != nil {
		u.pump(ctx, p)
	}
}

// route sends an accepted edge on towards the kid it came from; at the
// injecting endpoint it marks the edge and queues the far endpoint's
// notice.
func (u *mstUpcast) route(p *mstProgram, k int32, id int32) {
	if k == 0 {
		p.inTree[id] = true
		u.out = append(u.out, mstOut{edge: graph.EdgeID(id), id: -1})
		return
	}
	u.out = append(u.out, mstOut{edge: u.kids[k].edge, id: id})
}

// pump runs the k-way merge: it passes on the smallest candidate while
// every unfinished kid has one queued — one per round up the tree, all
// of them at the root — then ends the stream and flushes queued sends.
func (u *mstUpcast) pump(ctx *Ctx, p *mstProgram) {
	isRoot := ctx.V() == p.root
	sentUp := false
	for u.open == 0 && len(u.heap) > 0 && !sentUp {
		k, c := u.pop()
		if !u.union(c.la, c.lb) {
			continue
		}
		u.fwd = append(u.fwd, mstFwd{id: c.id, kid: k})
		if isRoot {
			u.route(p, k, c.id)
			continue
		}
		p.send(ctx, p.bfsParent[ctx.V()], 'K', int64(math.Float64bits(c.w)), int64(c.id), int64(c.la)<<32|int64(c.lb))
		sentUp = true
	}
	finished := u.live == 0 && len(u.heap) == 0
	if finished && !isRoot && !u.ended && !sentUp {
		p.send(ctx, p.bfsParent[ctx.V()], 'E')
		u.ended = true
	}
	kept := u.out[:0]
	for _, o := range u.out {
		var err error
		if o.id < 0 {
			err = ctx.Send(o.edge, 'X')
		} else {
			err = ctx.Send(o.edge, 'T', int64(o.id))
		}
		switch {
		case errors.Is(err, ErrEdgeBusy):
			kept = append(kept, o)
		case err != nil:
			ctx.Fail(errors.Join(errMSTEdge, err))
		}
	}
	u.out = kept
	if len(u.out) > 0 || (u.open == 0 && len(u.heap) > 0) || (finished && !isRoot && !u.ended) {
		ctx.Stay()
	}
}

// RunMST computes the MST of g (a spanning forest if g is disconnected)
// with a bfs stage from vertex 0 followed by the two-phase mst stage,
// and returns the tree edge ids and the pipeline's total statistics.
func RunMST(g *graph.Graph, seed int64) ([]graph.EdgeID, Stats, error) {
	return RunMSTWorkers(g, seed, 0)
}

// RunMSTWorkers is RunMST with an explicit engine worker-pool size
// (0 = GOMAXPROCS); results are identical for every worker count.
func RunMSTWorkers(g *graph.Graph, seed int64, workers int) ([]graph.EdgeID, Stats, error) {
	n := g.N()
	if n == 0 {
		return nil, Stats{}, nil
	}
	pipe := NewPipeline(g, Options{Seed: seed, Workers: workers, MaxRounds: 16*n + 1024})
	var pools StagePools
	parent := make([]graph.EdgeID, n)
	inTree := make([]bool, g.M())
	if _, err := pipe.RunStage("bfs", pools.BFS(n, 0, parent, make([]int32, n))); err != nil {
		return nil, pipe.Total(), err
	}
	_, err := pipe.RunStage("mst", pools.MST(n, 0, parent, seed, inTree, nil))
	var edges []graph.EdgeID
	for id, in := range inTree {
		if in {
			edges = append(edges, graph.EdgeID(id))
		}
	}
	return edges, pipe.Total(), err
}
