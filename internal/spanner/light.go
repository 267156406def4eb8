package spanner

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"lightnet/internal/congest"
	"lightnet/internal/euler"
	"lightnet/internal/graph"
	"lightnet/internal/mst"
)

// Mode selects how BuildLight executes and how its distributed cost is
// obtained.
type Mode int

const (
	// Accounted (the default) runs the sequential builders and charges
	// the paper's primitive-level round formulas to the ledger.
	Accounted Mode = iota
	// Measured runs the full §5 pipeline as genuine per-vertex message
	// passing on the CONGEST engine (see measured.go): rounds and
	// messages are counted from actual exchanges, stage by stage, and no
	// formula charges are made. The per-bucket algorithm is the
	// distributable ClusterBaswana choice; the resulting spanner is
	// bit-identical to the Accounted builder's with Cluster =
	// ClusterBaswana for the same seed.
	Measured
)

// Result is a constructed light spanner with its diagnostics.
type Result struct {
	// Edges of the spanner (original graph ids), including the MST.
	Edges []graph.EdgeID
	// MSTWeight, Weight, Lightness certify the weight bound.
	MSTWeight float64
	Weight    float64
	Lightness float64
	// LowBucketEdges counts |E′| (weight ≤ L/n); BaswanaEdges the edges
	// the [BS07] sub-spanner kept from them.
	LowBucketEdges int
	BaswanaEdges   int
	// Buckets carries per-scale diagnostics.
	Buckets []BucketInfo
	// Stages is the per-stage measured engine cost, in pipeline order
	// (Measured mode only; nil for Accounted).
	Stages []congest.StageStats
	// Fault-tolerance diagnostics, populated in Measured mode when
	// Options.Faults is active. Survivors is the size of the root's
	// surviving component under crash-stop faults (n when nobody is
	// permanently down) and Alive its vertex mask (nil when every vertex
	// survived — the spanner then covers all of g). PipelineRetries
	// counts extra stage attempts; Faults the injected faults.
	Survivors       int
	Alive           []bool
	PipelineRetries int
	Faults          congest.FaultStats
}

// BucketInfo describes one weight scale E_i.
type BucketInfo struct {
	Index        int
	WMax         float64 // w_i = L/(1+ε)^i
	Edges        int     // |E_i|
	Clusters     int     // clusters actually touched by E_i
	CaseTwo      bool    // refined clustering with communication intervals
	SpannerEdges int     // edges kept by the per-bucket spanner
	Retries      int     // re-runs needed to meet the size bound (§5.1)
}

// ClusterAlgo selects the per-bucket spanner on the cluster graphs.
type ClusterAlgo int

// Cluster-graph spanner choices.
const (
	// ClusterEN17 (default) is the paper's choice: the [EN17b]
	// randomized distributed algorithm, simulated per §5.
	ClusterEN17 ClusterAlgo = iota
	// ClusterGreedy is the centralized greedy spanner [ADD+93] the
	// sequential constructions [ES16, ENS15] apply per bucket — the
	// E-ABL-d ablation quantifying the cost of distributability.
	ClusterGreedy
	// ClusterBaswana runs the [BS07] clustering directly on the bucket's
	// edge subset of the original graph — the O(k)-round per-bucket
	// choice the Measured pipeline executes as real message passing
	// (bucket edges are within a (1+ε) factor of the scale w_i, so the
	// per-bucket size bound still controls the bucket's weight).
	ClusterBaswana
)

// Options configure BuildLight.
type Options struct {
	Seed    int64
	Ledger  *congest.Ledger
	HopDiam int
	// Root of the MST for the Euler tour; defaults to vertex 0. In
	// Measured mode it roots the BFS tree of the weight-fixing stages.
	Root graph.Vertex
	// MaxRetries bounds the §5.1 re-run loop per bucket (default 8).
	MaxRetries int
	// Cluster selects the per-bucket spanner algorithm.
	Cluster ClusterAlgo
	// Mode selects Accounted (default) or Measured execution.
	Mode Mode
	// Workers sizes the engine worker pool in Measured mode
	// (0 = GOMAXPROCS); results are identical for every worker count.
	Workers int
	// Faults, in Measured mode, injects the deterministic fault plan
	// into the engine and arms per-stage oracle validators with bounded
	// retry; crash-stop faults degrade the build to the root's surviving
	// component (see Result.Alive). nil or an inactive plan leaves the
	// pipeline on its fault-free path, bit-identical to today's.
	Faults *congest.FaultPlan
	// StageRetries bounds the extra per-stage attempts under Faults
	// (default 3; negative disables retry).
	StageRetries int
}

// BuildLight is Theorem 2: a (2k−1)(1+ε)-spanner with O(k·n^{1+1/k})
// edges and lightness O(k·n^{1/k}), in Õ(n^{1/2+1/(4k+2)} + D) rounds
// (charged to the ledger, or measured on the engine in Measured mode).
func BuildLight(g *graph.Graph, k int, eps float64, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k %d < 1", k)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("spanner: eps %v must be in (0,1)", eps)
	}
	n := g.N()
	if n <= 2 {
		all := make([]graph.EdgeID, g.M())
		for i := range all {
			all[i] = graph.EdgeID(i)
		}
		return &Result{Edges: all, Lightness: 1}, nil
	}
	if opts.Mode == Measured {
		return buildMeasured(g, k, eps, opts)
	}
	if opts.Faults.Active() {
		return nil, fmt.Errorf("spanner: fault injection requires Measured mode (the Accounted path exchanges no messages)")
	}
	maxRetries := opts.MaxRetries
	if maxRetries == 0 {
		maxRetries = 8
	}
	// MST (§3).
	mstEdges, mstWeight, err := mst.Kruskal(g)
	if err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	if opts.Ledger != nil {
		mst.ChargeConstruction(opts.Ledger, n, opts.HopDiam)
	}
	// Fragments and the Euler tour (§3) ground the tour-based cluster
	// partitions; the ClusterBaswana choice clusters on the bucket's own
	// edges instead and needs neither.
	var tour *euler.Tour
	if opts.Cluster != ClusterBaswana {
		tree, err := mst.NewTree(g, mstEdges, opts.Root)
		if err != nil {
			return nil, fmt.Errorf("spanner: %w", err)
		}
		frags, err := mst.Decompose(tree, isqrt(n))
		if err != nil {
			return nil, fmt.Errorf("spanner: %w", err)
		}
		if tour, err = euler.Build(tree, frags, opts.Ledger, opts.HopDiam); err != nil {
			return nil, fmt.Errorf("spanner: %w", err)
		}
	}
	wmax, sum := mstAnchor(g, mstEdges)
	bigL := anchorL(sum, anchorScale(n, wmax))

	res := &Result{MSTWeight: mstWeight}
	inSpanner := make([]bool, g.M())
	add := func(id graph.EdgeID) {
		if !inSpanner[id] {
			inSpanner[id] = true
			res.Edges = append(res.Edges, id)
		}
	}
	for _, id := range mstEdges {
		add(id)
	}
	onMST := make([]bool, g.M())
	for _, id := range mstEdges {
		onMST[id] = true
	}

	lowIDs, buckets := partitionEdges(g, onMST, bigL, eps)
	res.LowBucketEdges = len(lowIDs)

	// One edge mask serves every Baswana-Sen run (each edge belongs to
	// at most one bucket): mark a bucket's ids, run, clear them — O(|E_i|)
	// per bucket instead of a fresh O(M) slice each time.
	var bsMask []bool
	maskOf := func(ids []graph.EdgeID) []bool {
		if bsMask == nil {
			bsMask = make([]bool, g.M())
		}
		for _, id := range ids {
			bsMask[id] = true
		}
		return bsMask
	}
	unmask := func(ids []graph.EdgeID) {
		for _, id := range ids {
			bsMask[id] = false
		}
	}

	// Low bucket E′: Baswana-Sen on G′ = (V, E′).
	if len(lowIDs) > 0 {
		if opts.Ledger != nil {
			opts.Ledger.Charge("spanner/low-baswana", int64(4*k+opts.HopDiam))
			opts.Ledger.ChargeMessages(int64(k) * int64(len(lowIDs)))
		}
		bsEdges, _ := baswanaCore(g, maskOf(lowIDs), k, opts.Seed)
		unmask(lowIDs)
		for _, id := range bsEdges {
			add(id)
		}
		res.BaswanaEdges = len(bsEdges)
	}

	// Weight buckets, lightest scale first (i ascending = heavier first;
	// order does not matter, keep index order for reproducibility).
	idxs := make([]int, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	caseThreshold := eps * math.Pow(float64(n), float64(k)/float64(2*k+1))
	for _, i := range idxs {
		ei := buckets[i]
		wi := bigL / math.Pow(1+eps, float64(i))
		var info BucketInfo
		if opts.Cluster == ClusterBaswana {
			info = buildBucketBaswana(g, ei, i, wi, k, opts, maskOf(ei), add)
			unmask(ei)
		} else {
			caseTwo := math.Pow(1+eps, float64(i)) >= caseThreshold
			if info, err = buildBucket(g, tour, ei, i, wi, eps, k, caseTwo, maxRetries, opts, add); err != nil {
				return nil, fmt.Errorf("spanner: bucket %d: %w", i, err)
			}
		}
		res.Buckets = append(res.Buckets, info)
	}

	sort.Slice(res.Edges, func(a, b int) bool { return res.Edges[a] < res.Edges[b] })
	res.Weight = g.WeightOf(res.Edges)
	if mstWeight > 0 {
		res.Lightness = res.Weight / mstWeight
	} else {
		res.Lightness = 1
	}
	return res, nil
}

// The §5 bucket anchor L ≈ 2·w(MST) is defined by an order-free
// fixed-point sum over the MST edges, so that the measured pipeline can
// compute it by integer convergecasts over any spanning tree and still
// agree with this builder bit for bit. With b = bits.Len(n),
//
//	S = 62 − b, E the exponent of W_max (W_max = f·2^E, f ∈ [½, 1)),
//	q(w) = ⌊w·2^(S−E)⌋ per MST edge, L = 2·float64(Σq)·2^(E−S).
//
// Each q is below 2^S and there are fewer than 2^b of them, so Σq < 2^62
// never overflows. Truncation loses less than 2^(E−S) per edge and
// w(MST) ≥ W_max ≥ 2^(E−1), so L undershoots 2·w(MST) by a relative
// error below 2^(2b−61), apart from the one rounding of Σq to float64
// (at most 2^−53 either way).

// anchorScale is S − E for a graph of n vertices whose heaviest MST
// edge has the bit pattern wmax.
func anchorScale(n int, wmax int64) int {
	_, e := math.Frexp(math.Float64frombits(uint64(wmax)))
	return 62 - bits.Len(uint(n)) - e
}

// anchorTerm is q(w) at the given scale.
func anchorTerm(w float64, scale int) int64 { return int64(math.Ldexp(w, scale)) }

// anchorL is L for the term sum at the given scale.
func anchorL(sum int64, scale int) float64 { return 2 * math.Ldexp(float64(sum), -scale) }

// mstAnchor returns the two words the measured pipeline's mst-weight-up
// convergecast delivers to the root: Float64bits(W_max) and Σq over the
// tree edges ids.
func mstAnchor(g *graph.Graph, ids []graph.EdgeID) (wmax, sum int64) {
	for _, id := range ids {
		wmax = max(wmax, int64(math.Float64bits(g.Edge(id).W)))
	}
	scale := anchorScale(g.N(), wmax)
	for _, id := range ids {
		sum += anchorTerm(g.Edge(id).W, scale)
	}
	return wmax, sum
}

// partitionEdges splits the non-MST edges by weight relative to L: E′
// (≤ L/n), the buckets (L/n, L] with i = ⌊log_{1+ε}(L/w)⌋ clamped to
// [0, ⌈log_{1+ε} n⌉], and heavy edges (> L, covered by the MST alone).
// Locally computable once L is known — both endpoints of an edge know
// its weight — so the Measured pipeline applies the identical
// arithmetic after its weight-broadcast stage.
func partitionEdges(g *graph.Graph, onMST []bool, bigL, eps float64) ([]graph.EdgeID, map[int][]graph.EdgeID) {
	n := g.N()
	var lowIDs []graph.EdgeID
	buckets := make(map[int][]graph.EdgeID)
	maxBucket := int(math.Ceil(math.Log(float64(n)) / math.Log(1+eps)))
	for id, e := range g.Edges() {
		if onMST[id] {
			continue
		}
		switch {
		case e.W <= bigL/float64(n):
			lowIDs = append(lowIDs, graph.EdgeID(id))
		case e.W <= bigL:
			i := int(math.Floor(math.Log(bigL/e.W) / math.Log(1+eps)))
			if i < 0 {
				i = 0
			}
			if i > maxBucket {
				i = maxBucket
			}
			buckets[i] = append(buckets[i], graph.EdgeID(id))
		}
	}
	return lowIDs, buckets
}

// bucketSeed derives the per-bucket sampling seed, shared by the
// accounted ClusterBaswana path and the Measured pipeline stages. The
// offset keeps every scale's seed distinct from the low bucket's
// (which samples with the base seed).
func bucketSeed(seed int64, idx int) int64 { return seed + int64(idx+1)*131 }

// buildBucketBaswana is the ClusterBaswana per-bucket step: the [BS07]
// clustering run on the bucket's edge subset of the original graph —
// O(k) rounds per bucket, executed for real by the Measured pipeline.
// sub is the bucket's edge mask (ei's ids marked, caller-owned).
func buildBucketBaswana(g *graph.Graph, ei []graph.EdgeID, idx int, wi float64,
	k int, opts Options, sub []bool, add func(graph.EdgeID)) BucketInfo {

	kept, cluster := baswanaCore(g, sub, k, bucketSeed(opts.Seed, idx))
	for _, id := range kept {
		add(id)
	}
	info := BucketInfo{
		Index:        idx,
		WMax:         wi,
		Edges:        len(ei),
		Clusters:     countClusters(g, ei, cluster),
		SpannerEdges: len(kept),
	}
	if opts.Ledger != nil {
		// k+1 rounds of local exchange on the bucket's edges (buckets run
		// back to back in the pipeline, so the rounds add up).
		opts.Ledger.Charge("spanner/bucket-baswana", int64(k+1))
		opts.Ledger.ChargeMessages(int64(k+1) * 2 * int64(len(ei)))
	}
	return info
}

// countClusters counts the distinct final cluster labels among the
// endpoints of the bucket's edges (vertices that left the process carry
// no label). The same fold runs on the Measured pipeline's per-vertex
// clustering output.
func countClusters(g *graph.Graph, ei []graph.EdgeID, cluster []graph.Vertex) int {
	seen := make(map[graph.Vertex]bool)
	for _, id := range ei {
		e := g.Edge(id)
		for _, v := range [2]graph.Vertex{e.U, e.V} {
			if c := cluster[v]; c != graph.NoVertex {
				seen[c] = true
			}
		}
	}
	return len(seen)
}

// buildBucket clusters the vertices at scale i, simulates [EN17b] on the
// cluster graph, and adds one representative edge per chosen cluster
// edge.
func buildBucket(g *graph.Graph, tour *euler.Tour, ei []graph.EdgeID,
	idx int, wi, eps float64, k int, caseTwo bool, maxRetries int,
	opts Options, add func(graph.EdgeID)) (BucketInfo, error) {

	info := BucketInfo{Index: idx, WMax: wi, Edges: len(ei), CaseTwo: caseTwo}
	clusterOf, _, intervalLen := clusterPartition(tour, wi, eps, idx, caseTwo)

	// Cluster graph over the clusters touched by E_i (dense re-index).
	denseOf := make(map[int32]graph.Vertex)
	dense := func(c int32) graph.Vertex {
		if d, ok := denseOf[c]; ok {
			return d
		}
		d := graph.Vertex(len(denseOf))
		denseOf[c] = d
		return d
	}
	type pair struct{ a, b graph.Vertex }
	rep := make(map[pair]graph.EdgeID)
	for _, id := range ei {
		e := g.Edge(id)
		ca, cb := clusterOf[e.U], clusterOf[e.V]
		if ca == cb {
			continue // intra-cluster: covered by the MST within ε·w_i
		}
		da, db := dense(ca), dense(cb)
		if db < da {
			da, db = db, da
		}
		p := pair{da, db}
		if old, ok := rep[p]; !ok || id < old {
			rep[p] = id
		}
	}
	info.Clusters = len(denseOf)
	if len(rep) == 0 {
		return info, nil
	}
	cg := graph.New(len(denseOf))
	cgRep := make([]graph.EdgeID, 0, len(rep))
	// Deterministic edge order.
	pairs := make([]pair, 0, len(rep))
	for p := range rep {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].a != pairs[y].a {
			return pairs[x].a < pairs[y].a
		}
		return pairs[x].b < pairs[y].b
	})
	for _, p := range pairs {
		if _, err := cg.AddEdge(p.a, p.b, 1); err != nil {
			return info, err
		}
		cgRep = append(cgRep, rep[p])
	}

	// [EN17b] on the cluster graph, with the §5.1 retry loop.
	var chosen []graph.EdgeID
	bound := 3*math.Pow(float64(cg.N()), 1+1/float64(k)) + 8
	for try := 0; try < maxRetries; try++ {
		var sel []graph.EdgeID
		var err error
		switch {
		case k == 1:
			// Stretch 1: keep every cluster edge.
			sel = make([]graph.EdgeID, cg.M())
			for i := range sel {
				sel[i] = graph.EdgeID(i)
			}
		case opts.Cluster == ClusterGreedy:
			sel, err = Greedy(cg, float64(2*k-1))
			if err != nil {
				return info, err
			}
		default:
			sel, _, err = congest.RunEN17Spanner(cg, k, opts.Seed+int64(idx)*131+int64(try)*17)
			if err != nil {
				return info, err
			}
		}
		info.Retries = try
		if chosen == nil || len(sel) < len(chosen) {
			chosen = sel
		}
		if float64(len(sel)) <= bound {
			chosen = sel
			break
		}
	}
	for _, cgID := range chosen {
		add(cgRep[cgID])
	}
	info.SpannerEdges = len(chosen)

	// Round accounting (§5): k+2 simulated [EN17b] rounds.
	if opts.Ledger != nil {
		d := int64(opts.HopDiam)
		if caseTwo {
			// Case 2: per round, pipelining inside communication
			// intervals plus the per-cluster spanner-edge bound.
			perRound := int64(intervalLen) + int64(math.Ceil(
				math.Pow(float64(info.Clusters+1), 1/float64(k))*math.Log2(float64(g.N()+2))))
			opts.Ledger.Charge("spanner/bucket-case2", int64(k+2)*perRound)
			opts.Ledger.ChargeMessages(int64(len(ei)) + int64(g.N()))
		} else {
			// Case 1: per round, convergecast + broadcast of |C_i|
			// messages over the BFS tree.
			opts.Ledger.ChargeBroadcast("spanner/bucket-case1-up", int64(info.Clusters), d)
			opts.Ledger.ChargeBroadcast("spanner/bucket-case1-down", int64(info.Clusters)*int64(k+2), d)
			opts.Ledger.ChargeBroadcast("spanner/bucket-edges", int64(len(chosen)), d)
		}
	}
	return info, nil
}

// clusterPartition assigns every vertex to a cluster at scale w_i with
// weak diameter ε·w_i w.r.t. the MST metric (§5 cases 1 and 2).
// Returns per-vertex cluster labels, an upper bound on the number of
// labels, and (for case 2) the maximum communication-interval length.
func clusterPartition(tour *euler.Tour, wi, eps float64, idx int, caseTwo bool) (labels []int32, numClusters int, intervalLen int) {
	n := len(tour.Idx)
	labels = make([]int32, n)
	q := eps * wi
	if !caseTwo {
		// Case 1: cluster ⌈R_x/(ε·w_i)⌉ of the first appearance.
		maxLabel := int32(0)
		for v := 0; v < n; v++ {
			x := tour.First(graph.Vertex(v))
			c := int32(math.Ceil(tour.R[x] / q))
			labels[v] = c
			if c > maxLabel {
				maxLabel = c
			}
		}
		return labels, int(maxLabel) + 1, 0
	}
	// Case 2: centers at positions crossing multiples of ε·w_i (cond 1)
	// or index multiples of ⌈ε·n/(1+ε)^i⌉ (cond 2).
	step := int(math.Ceil(eps * float64(n) / math.Pow(1+eps, float64(idx))))
	if step < 1 {
		step = 1
	}
	m := tour.Positions()
	lastCenter := make([]int32, m)
	var centers int
	prevCenter := 0
	for j := 0; j < m; j++ {
		isCenter := j == 0 || j%step == 0
		if !isCenter && j > 0 {
			// Condition 1: an integer multiple of q in (R_{j-1}, R_j].
			s := math.Floor(tour.R[j-1]/q) + 1
			if s*q <= tour.R[j] {
				isCenter = true
			}
		}
		if isCenter {
			centers++
			prevCenter = j
		}
		lastCenter[j] = int32(prevCenter)
		if gap := j - int(lastCenter[j]); gap+1 > intervalLen {
			intervalLen = gap + 1
		}
	}
	for v := 0; v < n; v++ {
		labels[v] = lastCenter[tour.First(graph.Vertex(v))]
	}
	return labels, centers, intervalLen
}

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}
