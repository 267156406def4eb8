package slt

// Measured-mode construction: the full §4 SLT pipeline executed as
// genuine per-vertex message passing on the CONGEST engine, composed
// with congest.Pipeline. Where the Accounted builder charges the
// paper's primitive round formulas, this path runs the primitives and
// counts the rounds and messages that actually cross the edges:
//
//	stage       program                               §/primitive
//	bfs         BFS tree of G                         Lemma 1 substrate
//	mst         two-phase MST: fragments merged up    §3 ([KP98] MST)
//	            to ⌈√n⌉ vertices, then a pipelined
//	            upcast of inter-fragment edges over
//	            the bfs tree (congest.StagePools.MST)
//	tree        BFS flood restricted to tree edges    §3 (rooting)
//	spt         Bellman-Ford on perturbed weights     §4 ([BKKL17] substitute)
//	spt-dist    true-distance downcast over the SPT   (re-measuring)
//	euler-up    subtree tour-length convergecast      §3.2 (ℓ, g)
//	euler-down  DFS interval-start downcast           §3.3 (t(v))
//	bp-walk     interval walkers along the tour       §4.1 phase 1
//	bp-heads    head-tuple upcast to rt               §4.1 phase 2 (up)
//	bp-select   central filter + reverse routing      §4.1 phase 2 (down)
//	h-mark      SPT path marking toward rt            §4.2 (ABP, building H)
//	final-spt   Bellman-Ford restricted to H          §4 step 5
//	final-dist  true-distance downcast                (re-measuring)
//
// Messages per stage: bfs, tree, spt and final-spt send receiver-aware
// (congest.Ctx.BroadcastExcept) — a vertex skips each neighbour whose
// own last announcement shows the offer cannot improve it. So bfs sends
// at most 2m−(n−1) messages (no vertex answers its parent), tree exactly
// n−1 (one per MST edge, parent to child), and each Bellman-Ford
// improvement goes only to the neighbours it can still improve; every
// output and per-vertex state trajectory is that of the always-broadcast
// programs, and a stage can only end earlier.
//
// The output tree is bit-identical to the Accounted builder's for the
// same seed (asserted by TestMeasuredMatchesAccounted): every float that
// flows into the tree is computed by the same operations in the same
// order on both paths, and the randomized ingredients (the perturbed
// substitute weights) are pure per-edge hash functions shared by both.

import (
	"fmt"
	"math"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
	"lightnet/internal/mst"
	"lightnet/internal/sssp"
)

// buildMeasured runs the pipeline above. Called from Build once the
// arguments are validated and n >= 2.
func buildMeasured(g *graph.Graph, rt graph.Vertex, eps float64, opts Options) (*Result, error) {
	if opts.SPTMode != 0 && opts.SPTMode != sssp.ModePerturbed {
		return nil, fmt.Errorf("slt: measured mode supports only the perturbed SPT substitute (mode %d requested)", opts.SPTMode)
	}
	if opts.SequentialBP {
		return nil, fmt.Errorf("slt: measured mode runs the two-phase break-point rule; SequentialBP is a sequential baseline")
	}
	n, m := g.N(), g.M()

	// Fault tolerance (see congest.FaultPlan): per-stage oracle
	// validators plus bounded retry under an active plan; crash-stop
	// faults degrade the construction to the root's surviving component.
	faults := opts.Faults
	faulty := faults.Active()
	retries := 0
	if faulty {
		if err := faults.Validate(n); err != nil {
			return nil, fmt.Errorf("slt: %w", err)
		}
		retries = opts.StageRetries
		if retries == 0 {
			retries = 3
		} else if retries < 0 {
			retries = 0
		}
	}
	var alive []bool      // nil: every vertex survives
	var aliveEdges []bool // nil: every edge usable
	compN := n
	if dead := faults.CrashStopped(n); dead != nil {
		if dead[rt] {
			return nil, fmt.Errorf("slt: root %d is crash-stopped by the fault plan", rt)
		}
		alive = g.ComponentMask(rt, dead)
		compN = 0
		for _, a := range alive {
			if a {
				compN++
			}
		}
		// Vertices cut off from the root can never coordinate with it:
		// treat them as dead from round 0 so no stage waits on them.
		deadAll := make([]bool, n)
		for v := range deadAll {
			deadAll[v] = !alive[v]
		}
		faults = faults.WithDeadFromStart(deadAll)
		aliveEdges = make([]bool, m)
		for id, e := range g.Edges() {
			aliveEdges[graph.EdgeID(id)] = alive[e.U] && alive[e.V]
		}
	}

	st := &mstate{
		g:           g,
		rt:          rt,
		eps:         eps,
		alpha:       isqrt(n),
		m:           2*n - 1,
		pw1:         sssp.PerturbedWeights(g, eps, opts.Seed),
		pw2:         sssp.PerturbedWeights(g, eps, opts.Seed+1),
		inTree:      make([]bool, m),
		treeParent:  make([]graph.EdgeID, n),
		treeDepth:   make([]int32, n),
		sptParent:   make([]graph.EdgeID, n),
		rootDist:    makeInf(n, rt),
		bfsParent:   make([]graph.EdgeID, n),
		bfsDepth:    make([]int32, n),
		vs:          make([]vtour, n),
		inH:         make([]bool, m),
		finalParent: make([]graph.EdgeID, n),
		finalDist:   makeInf(n, rt),
	}
	if alive != nil {
		// Dead vertices never run a program: pre-set their parent slots
		// to NoEdge so the assembly and the downcast oracles skip them.
		for v := 0; v < n; v++ {
			if !alive[v] {
				st.treeParent[v] = graph.NoEdge
				st.sptParent[v] = graph.NoEdge
				st.bfsParent[v] = graph.NoEdge
				st.finalParent[v] = graph.NoEdge
			}
		}
	}
	pipe := congest.NewPipeline(g, congest.Options{
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		MaxRounds: 16*n + 1024, // per stage; far above what any stage needs
		Faults:    faults,
	})
	// Stage-state pools: every stage resets per-vertex program slots in
	// place instead of allocating n fresh objects (see congest.StagePool).
	pools := &congest.StagePools{}
	sp := &sltPools{}
	run := func(name string, factory func(graph.Vertex) congest.Program, so ...congest.StageOption) error {
		_, err := pipe.RunStage(name, factory, so...)
		return err
	}
	// stage assembles one stage's option list: the edge restriction
	// (degradation intersects unrestricted stages with the surviving
	// subgraph), plus validator/retry/reset wiring under faults.
	stage := func(restrict []bool, validate func() error, reset func()) []congest.StageOption {
		if restrict == nil {
			restrict = aliveEdges
		}
		var so []congest.StageOption
		if restrict != nil {
			so = append(so, congest.Restrict(restrict))
		}
		if faulty {
			so = append(so, congest.Retries(retries))
			if validate != nil {
				so = append(so, congest.Validate(validate))
			}
			if reset != nil {
				so = append(so, congest.Reset(reset))
			}
		}
		return so
	}

	var bfsValidate func() error
	if faulty {
		wantHops := g.BFSHopsMasked(rt, aliveEdges)
		bfsValidate = func() error {
			return congest.CheckBFS(g, rt, alive, st.bfsParent, st.bfsDepth, wantHops)
		}
	}
	if err := run("bfs", pools.BFS(n, rt, st.bfsParent, st.bfsDepth),
		stage(nil, bfsValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	var mstValidate func() error
	if faulty {
		// Oracle: the spanning forest of the usable subgraph is unique
		// under the total (w, id) edge order.
		wantTree, _ := mst.KruskalSubset(g, aliveEdges)
		mstValidate = func() error {
			count := 0
			for _, in := range st.inTree {
				if in {
					count++
				}
			}
			if count != len(wantTree) {
				return fmt.Errorf("mst has %d edges, oracle has %d", count, len(wantTree))
			}
			for _, id := range wantTree {
				if !st.inTree[id] {
					return fmt.Errorf("mst is missing oracle edge %d", id)
				}
			}
			return nil
		}
	}
	mstReset := func() {
		for i := range st.inTree {
			st.inTree[i] = false
		}
	}
	if err := run("mst", pools.MST(n, rt, st.bfsParent, opts.Seed, st.inTree, nil), stage(nil, mstValidate, mstReset)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	treeEdges := 0
	for _, in := range st.inTree {
		if in {
			treeEdges++
		}
	}
	if treeEdges != compN-1 {
		return nil, fmt.Errorf("slt: %w", mst.ErrDisconnected)
	}
	var treeValidate func() error
	if faulty {
		wantHops := g.BFSHopsMasked(rt, st.inTree)
		treeValidate = func() error {
			return congest.CheckBFS(g, rt, alive, st.treeParent, st.treeDepth, wantHops)
		}
	}
	if err := run("tree", pools.BFS(n, rt, st.treeParent, st.treeDepth),
		stage(st.inTree, treeValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	var sptValidate func() error
	if faulty {
		sptValidate = func() error {
			return congest.CheckSPT(g, rt, alive, st.sptParent, st.pw1, aliveEdges)
		}
	}
	if err := run("spt", sp.sptFactory(n, rt, st.pw1, st.sptParent), stage(nil, sptValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	var sptDistValidate func() error
	if faulty {
		sptDistValidate = func() error {
			return congest.CheckDistDown(g, rt, alive, st.sptParent, st.rootDist)
		}
	}
	sptDistReset := func() { refillInf(st.rootDist, rt) }
	if err := run("spt-dist", sp.distDownFactory(n, rt, st.sptParent, st.rootDist), stage(nil, sptDistValidate, sptDistReset)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	// The tour oracle replays euler-up AND euler-down; it is built once,
	// lazily, from the already-validated tree stages.
	var tour *tourOracle
	oracle := func() *tourOracle {
		if tour == nil {
			tour = newTourOracle(st, alive)
		}
		return tour
	}
	var eulerUpValidate, eulerDownValidate func() error
	if faulty {
		eulerUpValidate = func() error { return oracle().checkUp(st, alive) }
		eulerDownValidate = func() error { return oracle().checkDown(st, alive) }
	}
	if err := run("euler-up", sp.eulerUpFactory(n, st), stage(st.inTree, eulerUpValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	if err := run("euler-down", sp.eulerDownFactory(n, st), stage(st.inTree, eulerDownValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	var walkValidate, headsValidate, selectValidate, hMarkValidate func() error
	if faulty {
		walkValidate = func() error { return checkWalk(st, alive) }
		headsValidate = func() error { return checkHeads(st, alive) }
		selectValidate = func() error { return checkSelect(st, alive) }
		hMarkValidate = func() error { return checkHMark(st, alive) }
	}
	if err := run("bp-walk", sp.bpWalkFactory(n, st), stage(st.inTree, walkValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	headsReset := func() { st.rootTuples = st.rootTuples[:0] }
	if err := run("bp-heads", sp.bpHeadsFactory(n, st), stage(nil, headsValidate, headsReset)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	if err := run("bp-select", sp.bpSelectFactory(n, st), stage(nil, selectValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	if err := run("h-mark", sp.hMarkFactory(n, st), stage(nil, hMarkValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	inHAll := make([]bool, m)
	for id := 0; id < m; id++ {
		inHAll[id] = st.inTree[id] || st.inH[id]
	}
	var finalSptValidate func() error
	if faulty {
		finalSptValidate = func() error {
			return congest.CheckSPT(g, rt, alive, st.finalParent, st.pw2, inHAll)
		}
	}
	if err := run("final-spt", sp.sptFactory(n, rt, st.pw2, st.finalParent), stage(inHAll, finalSptValidate, nil)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}
	var finalDistValidate func() error
	if faulty {
		finalDistValidate = func() error {
			return congest.CheckDistDown(g, rt, alive, st.finalParent, st.finalDist)
		}
	}
	finalDistReset := func() { refillInf(st.finalDist, rt) }
	if err := run("final-dist", sp.distDownFactory(n, rt, st.finalParent, st.finalDist), stage(inHAll, finalDistValidate, finalDistReset)...); err != nil {
		return nil, fmt.Errorf("slt: %w", err)
	}

	res := assembleMeasured(g, st)
	res.Stages = pipe.Stages()
	if faulty {
		res.Survivors = compN
		res.Alive = alive
		res.PipelineRetries = pipe.Retries()
		res.Faults = pipe.FaultStats()
	}
	if opts.Ledger != nil {
		// No formula charges on this path: the ledger records the
		// measured per-stage engine stats, label-comparable with the
		// accounted breakdown.
		for _, s := range res.Stages {
			opts.Ledger.ChargeRoundsOf("engine/"+s.Name, s.Stats)
		}
	}
	return res, nil
}

// assembleMeasured folds the distributed outputs into a Result with the
// same accumulation orders as the accounted assembly (bit-identity).
func assembleMeasured(g *graph.Graph, st *mstate) *Result {
	n := g.N()
	// MST weight in Kruskal's (w, id) order — the accounted total.
	mstWeight := mst.TreeWeight(g, st.inTree)
	breakPoints := 0
	for v := range st.vs {
		for _, b := range st.vs[v].bp {
			if b {
				breakPoints++
			}
		}
	}
	hEdges := make([]graph.EdgeID, 0, 2*n)
	for id := 0; id < g.M(); id++ {
		if st.inTree[id] || st.inH[id] {
			hEdges = append(hEdges, graph.EdgeID(id))
		}
	}
	res := &Result{
		Source:      st.rt,
		Parent:      st.finalParent,
		Dist:        st.finalDist,
		MSTWeight:   mstWeight,
		BreakPoints: breakPoints,
		HWeight:     canonicalWeight(g, hEdges),
	}
	for v := 0; v < n; v++ {
		if id := st.finalParent[v]; id != graph.NoEdge {
			res.TreeEdges = append(res.TreeEdges, id)
			res.Weight += g.Edge(id).W
		}
	}
	if mstWeight > 0 {
		res.Lightness = res.Weight / mstWeight
	} else {
		res.Lightness = 1
	}
	return res
}

// makeInf returns an all-+Inf distance slice with 0 at the root.
func makeInf(n int, rt graph.Vertex) []float64 {
	d := make([]float64, n)
	refillInf(d, rt)
	return d
}

// refillInf resets a distance slice to the makeInf state — the Reset
// closure of the downcast stages' retry path.
func refillInf(d []float64, rt graph.Vertex) {
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[rt] = 0
}
