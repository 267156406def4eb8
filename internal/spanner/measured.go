package spanner

// Measured-mode construction: the §5 light-spanner pipeline executed as
// genuine per-vertex message passing on the CONGEST engine, composed
// with congest.Pipeline — the spanner-side sibling of the slt package's
// measured pipeline. Where the Accounted builder charges the paper's
// primitive round formulas, this path runs the primitives and counts
// the rounds and messages that actually cross the edges:
//
//	stage            program                              §/primitive
//	bfs              BFS tree of G                        Lemma 1 substrate
//	mst              two-phase MST: fragments merged up   §3 ([KP98] MST)
//	                 to ⌈√n⌉ vertices, then a pipelined
//	                 upcast of inter-fragment edges over
//	                 the bfs tree (congest.StagePools.MST)
//	mst-weight-up    two-pass convergecast over the BFS   Lemma 1 upcast
//	                 tree: max of w, then Σq(w) (mstAnchor)
//	mst-weight-down  flood of L ≈ 2·w(MST)                Lemma 1 broadcast
//	bucket-low       Baswana-Sen on E′ (w ≤ L/n)          §5 low bucket
//	bucket-<i>       Baswana-Sen on E_i, one per          §5 weight scales
//	                 non-empty scale, ascending i         (ClusterBaswana)
//
// Once L is fixed, each edge's bucket is locally computable from its own
// weight (partitionEdges), so the bucket masks cost no communication.
// Each bucket stage runs the k+1-round distributed Baswana-Sen restricted
// to that bucket's edges; the spanner is the union of the kept edges with
// the MST.
//
// Messages per stage: bfs and mst-weight-down send receiver-aware
// (congest.Ctx.BroadcastExcept) — bfs skips the neighbours whose own
// depth announcement it cannot improve, mst-weight-down the neighbours
// that already sent L — so each sends at most 2m−(n−1) messages.
//
// mst-weight-up takes 3D+1 rounds on a BFS tree of depth D and sends
// 4(n−1) messages: children announce themselves, a max-convergecast of
// Float64bits(w) over each vertex's MST edges gives W_max, W_max goes
// back down the tree, and a sum-convergecast of the fixed-point terms
// q(w) at the scale W_max fixes gives Σq at the root.
//
// The output is bit-identical to the Accounted builder's with Cluster =
// ClusterBaswana for the same seed (asserted by the determinism suite):
// the MST is unique under the total (w, id) edge order, L is an integer
// max and sum over the MST edges — independent of the BFS tree and of
// arrival order — evaluated by the shared mstAnchor arithmetic, the
// bucket arithmetic is the shared partitionEdges, and the per-bucket
// clustering is driven by the pure sampling hash both executions
// evaluate.

import (
	"fmt"
	"math"
	"sort"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
	"lightnet/internal/mst"
)

// buildMeasured runs the pipeline above. Called from BuildLight once the
// arguments are validated and n > 2.
func buildMeasured(g *graph.Graph, k int, eps float64, opts Options) (*Result, error) {
	if opts.Cluster == ClusterGreedy {
		return nil, fmt.Errorf("spanner: measured mode runs the distributed per-bucket Baswana-Sen clustering; ClusterGreedy is a centralized baseline")
	}
	n, m := g.N(), g.M()
	rt := opts.Root
	if int(rt) < 0 || int(rt) >= n {
		return nil, fmt.Errorf("spanner: root %d out of range", rt)
	}

	// Fault tolerance (see congest.FaultPlan). Under an active plan each
	// stage gets an oracle validator and a bounded-retry policy; under
	// crash-stop faults the whole pipeline degrades gracefully: it is
	// restricted to the root's surviving component, and the result is a
	// certified spanner of that subgraph.
	faults := opts.Faults
	faulty := faults.Active()
	retries := 0
	if faulty {
		if err := faults.Validate(n); err != nil {
			return nil, fmt.Errorf("spanner: %w", err)
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
			return nil, fmt.Errorf("spanner: root %d is crash-stopped by the fault plan", rt)
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

	pipe := congest.NewPipeline(g, congest.Options{
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		MaxRounds: 16*n + 1024, // per stage; far above what any stage needs
		Faults:    faults,
	})
	// Stage-state pools: every stage resets per-vertex program slots in
	// place instead of allocating n fresh objects (see congest.StagePool).
	pools := &congest.StagePools{}
	run := func(name string, factory func(graph.Vertex) congest.Program, so ...congest.StageOption) error {
		_, err := pipe.RunStage(name, factory, so...)
		return err
	}
	// stage assembles the option list for one stage: the edge
	// restriction (degradation intersects every stage with the surviving
	// subgraph), plus validator/retry/reset wiring under faults.
	stage := func(restrict []bool, validate func() error, reset func()) []congest.StageOption {
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

	bfsParent := make([]graph.EdgeID, n)
	bfsDepth := make([]int32, n)
	var bfsValidate func() error
	if faulty {
		wantDepth := g.BFSHopsMasked(rt, aliveEdges)
		bfsValidate = func() error {
			return congest.CheckBFS(g, rt, alive, bfsParent, bfsDepth, wantDepth)
		}
	}
	if err := run("bfs", pools.BFS(n, rt, bfsParent, bfsDepth), stage(aliveEdges, bfsValidate, nil)...); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}

	inTree := make([]bool, m)
	var mstValidate func() error
	var wantTree []graph.EdgeID
	if faulty {
		// Oracle: the spanning forest of the usable subgraph is unique
		// under the total (w, id) edge order — the distributed MST must
		// reproduce it exactly.
		wantTree, _ = mst.KruskalSubset(g, aliveEdges)
		mstValidate = func() error {
			count := 0
			for _, in := range inTree {
				if in {
					count++
				}
			}
			if count != len(wantTree) {
				return fmt.Errorf("mst has %d edges, oracle has %d", count, len(wantTree))
			}
			for _, id := range wantTree {
				if !inTree[id] {
					return fmt.Errorf("mst is missing oracle edge %d", id)
				}
			}
			return nil
		}
	}
	mstReset := func() {
		for i := range inTree {
			inTree[i] = false
		}
	}
	if err := run("mst", pools.MST(n, rt, bfsParent, opts.Seed, inTree, nil), stage(aliveEdges, mstValidate, mstReset)...); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	treeEdges := 0
	for _, in := range inTree {
		if in {
			treeEdges++
		}
	}
	if treeEdges != compN-1 {
		return nil, fmt.Errorf("spanner: %w", mst.ErrDisconnected)
	}

	// L: the order-free two-pass convergecast of mstAnchor over the BFS
	// tree. Each tree edge is counted once, by its smaller endpoint — both
	// endpoints know the edge was adopted, so the owner is locally
	// decidable. Pass 0 is the max of Float64bits(w), pass 1 the sum of
	// the fixed-point terms at the scale W_max fixes.
	passes := []congest.CastPass{
		{Max: true, Term: func(v graph.Vertex, _ int64) int64 {
			var hi int64
			for _, h := range g.Neighbors(v) {
				if inTree[h.ID] && v < h.To {
					hi = max(hi, int64(math.Float64bits(h.W)))
				}
			}
			return hi
		}},
		{Term: func(v graph.Vertex, wmax int64) int64 {
			scale := anchorScale(n, wmax)
			var sum int64
			for _, h := range g.Neighbors(v) {
				if inTree[h.ID] && v < h.To {
					sum += anchorTerm(h.W, scale)
				}
			}
			return sum
		}},
	}
	cast := make([]int64, len(passes))
	var castValidate func() error
	if faulty {
		// Oracle: the sequential fold over the oracle's tree edges. It does
		// not depend on the BFS tree, which the bfs validator leaves free.
		wantMax, wantSum := mstAnchor(g, wantTree)
		castValidate = func() error {
			if cast[0] != wantMax || cast[1] != wantSum {
				return fmt.Errorf("mst weight convergecast gave (%#x, %d), oracle has (%#x, %d)", cast[0], cast[1], wantMax, wantSum)
			}
			return nil
		}
	}
	castReset := func() { clear(cast) }
	if err := run("mst-weight-up", pools.Convergecast(n, rt, bfsParent, passes, cast),
		stage(aliveEdges, castValidate, castReset)...); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	bigL := anchorL(cast[1], anchorScale(n, cast[0]))
	lword := make([]int64, n)
	lbits := int64(math.Float64bits(bigL))
	var floodValidate func() error
	if faulty {
		floodValidate = func() error {
			for v := 0; v < n; v++ {
				if alive != nil && !alive[v] {
					continue
				}
				if lword[v] != lbits {
					return fmt.Errorf("vertex %d did not learn L", v)
				}
			}
			return nil
		}
	}
	floodReset := func() {
		for i := range lword {
			lword[i] = 0
		}
	}
	if err := run("mst-weight-down", pools.FloodWord(n, rt, lbits, lword),
		stage(aliveEdges, floodValidate, floodReset)...); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}

	// Every vertex now knows L; bucket membership of each incident edge
	// is local arithmetic (the shared partitionEdges).
	lowIDs, buckets := partitionEdges(g, inTree, bigL, eps)
	if aliveEdges != nil {
		// Degradation: the bucket stages run on the surviving subgraph
		// only. Edges with a crashed endpoint cannot be clustered (and
		// cannot be needed: their endpoints are outside the certified
		// component).
		lowIDs = filterEdgeIDs(lowIDs, aliveEdges)
		for i, ei := range buckets {
			if kept := filterEdgeIDs(ei, aliveEdges); len(kept) > 0 {
				buckets[i] = kept
			} else {
				delete(buckets, i)
			}
		}
	}

	// w(MST) itself is assembled outside the vertices, like res.Weight:
	// in Kruskal's (w, id) order, as the accounted builder sums it.
	mstWeight := mst.TreeWeight(g, inTree)
	res := &Result{MSTWeight: mstWeight, LowBucketEdges: len(lowIDs)}
	inSpanner := make([]bool, m)
	add := func(id graph.EdgeID) {
		if !inSpanner[id] {
			inSpanner[id] = true
			res.Edges = append(res.Edges, id)
		}
	}
	for id, in := range inTree {
		if in {
			add(graph.EdgeID(id))
		}
	}

	cluster := make([]graph.Vertex, n)
	chosen := make([][]graph.EdgeID, n)
	keptMask := make([]bool, m)   // scratch for merging per-vertex choices
	bucketMask := make([]bool, m) // reused across stages: set/cleared per bucket
	// Cross-bucket program pool: every bucket stage resets the same dense
	// program slice in place (see bsFactory).
	var bsPool congest.StagePool[bsProgram]
	bsSlots := bsPool.Slots(n)
	// Participant tracking: fault-free bucket stages run only at the
	// bucket's edge endpoints (congest.Verts), so each bucket costs
	// O(bucket edges), not O(n). Non-participants have no incident bucket
	// edge — their local evolution writes only their own cluster slot,
	// which nothing downstream reads — so skipping them leaves the output
	// and the Stats bit-identical. Under faults every vertex still
	// participates: the oracle validator compares the full cluster array,
	// which needs those local evolutions to have run.
	var participants []int32
	partStamp := make([]int32, n)
	stamp := int32(0)
	// mergeChosen folds the per-vertex kept edges into one deduplicated,
	// sorted id list (keptMask is scratch, left clear). verts limits the
	// sweep to the current bucket's participants; nil means all vertices
	// (the fault path, where chosen slots are truncated at every vertex).
	mergeChosen := func(verts []int32) []graph.EdgeID {
		var kept []graph.EdgeID
		merge := func(v int32) {
			for _, id := range chosen[v] {
				if !keptMask[id] {
					keptMask[id] = true
					kept = append(kept, id)
				}
			}
		}
		if verts == nil {
			for v := range chosen {
				merge(int32(v))
			}
		} else {
			for _, v := range verts {
				merge(v)
			}
		}
		for _, id := range kept {
			keptMask[id] = false
		}
		sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
		return kept
	}
	runBucket := func(name string, seed int64, ids []graph.EdgeID) ([]graph.EdgeID, error) {
		for _, id := range ids {
			bucketMask[id] = true
		}
		defer func() {
			for _, id := range ids {
				bucketMask[id] = false
			}
		}()
		var verts []int32
		if !faulty {
			stamp++
			participants = participants[:0]
			for _, id := range ids {
				e := g.Edge(id)
				if partStamp[e.U] != stamp {
					partStamp[e.U] = stamp
					participants = append(participants, int32(e.U))
				}
				if partStamp[e.V] != stamp {
					partStamp[e.V] = stamp
					participants = append(participants, int32(e.V))
				}
			}
			sort.Slice(participants, func(a, b int) bool { return participants[a] < participants[b] })
			verts = participants
		}
		var validate func() error
		if faulty {
			// Oracle: the sequential Baswana-Sen core on the same mask and
			// seed — the distributed run reproduces its kept set and final
			// clustering exactly (the bit-identity discipline of
			// programs.go). Computed eagerly while the mask is set.
			wantKept, wantCluster := baswanaCore(g, bucketMask, k, seed)
			validate = func() error {
				got := mergeChosen(nil)
				if len(got) != len(wantKept) {
					return fmt.Errorf("%s kept %d edges, oracle keeps %d", name, len(got), len(wantKept))
				}
				for i := range got {
					if got[i] != wantKept[i] {
						return fmt.Errorf("%s kept set diverges from oracle at edge %d", name, got[i])
					}
				}
				for v := 0; v < n; v++ {
					if alive != nil && !alive[v] {
						continue
					}
					if cluster[v] != wantCluster[v] {
						return fmt.Errorf("%s clustering diverges from oracle at vertex %d", name, v)
					}
				}
				return nil
			}
		}
		// No Reset needed: every live vertex's bsProgram truncates its own
		// chosen slot and rewrites its cluster label in Init.
		so := stage(bucketMask, validate, nil)
		if verts != nil {
			so = append(so, congest.Verts(verts))
		}
		if err := run(name, bsFactory(g, k, seed, bucketMask, cluster, chosen, bsSlots), so...); err != nil {
			return nil, fmt.Errorf("spanner: %w", err)
		}
		return mergeChosen(verts), nil
	}

	if len(lowIDs) > 0 {
		kept, err := runBucket("bucket-low", opts.Seed, lowIDs)
		if err != nil {
			return nil, err
		}
		for _, id := range kept {
			add(id)
		}
		res.BaswanaEdges = len(kept)
	}
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		ei := buckets[i]
		kept, err := runBucket(fmt.Sprintf("bucket-%02d", i), bucketSeed(opts.Seed, i), ei)
		if err != nil {
			return nil, err
		}
		for _, id := range kept {
			add(id)
		}
		res.Buckets = append(res.Buckets, BucketInfo{
			Index:        i,
			WMax:         bigL / math.Pow(1+eps, float64(i)),
			Edges:        len(ei),
			Clusters:     countClusters(g, ei, cluster),
			SpannerEdges: len(kept),
		})
	}

	sort.Slice(res.Edges, func(a, b int) bool { return res.Edges[a] < res.Edges[b] })
	res.Weight = g.WeightOf(res.Edges)
	if mstWeight > 0 {
		res.Lightness = res.Weight / mstWeight
	} else {
		res.Lightness = 1
	}
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

// filterEdgeIDs returns the ids whose mask entry is set.
func filterEdgeIDs(ids []graph.EdgeID, mask []bool) []graph.EdgeID {
	out := ids[:0]
	for _, id := range ids {
		if mask[id] {
			out = append(out, id)
		}
	}
	return out
}
