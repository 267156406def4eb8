package graph

import (
	"math"
	"math/rand"
	"sort"
)

// Generators for the workloads used throughout the evaluation. All
// generators are deterministic given the seed and produce connected
// graphs with minimum edge weight >= 1 (the paper's normalisation),
// unless documented otherwise.

// Path returns the path v0-v1-...-v_{n-1} with the given uniform weight.
func Path(n int, w float64) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(Vertex(i), Vertex(i+1), w)
	}
	return g
}

// Cycle returns the n-cycle with the given uniform weight.
func Cycle(n int, w float64) *Graph {
	g := Path(n, w)
	if n > 2 {
		g.MustAddEdge(Vertex(n-1), 0, w)
	}
	return g
}

// Star returns the star with center 0 and the given uniform weight.
func Star(n int, w float64) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, Vertex(i), w)
	}
	return g
}

// Complete returns the complete graph where w(u,v) is drawn uniformly
// from [1, maxW].
func Complete(n int, maxW float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(Vertex(u), Vertex(v), 1+rng.Float64()*(maxW-1))
		}
	}
	return g
}

// Grid returns the rows x cols grid graph with weights drawn uniformly
// from [1, maxW].
func Grid(rows, cols int, maxW float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(rows * cols)
	at := func(r, c int) Vertex { return Vertex(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(at(r, c), at(r, c+1), 1+rng.Float64()*(maxW-1))
			}
			if r+1 < rows {
				g.MustAddEdge(at(r, c), at(r+1, c), 1+rng.Float64()*(maxW-1))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random recursive tree on n vertices:
// vertex i attaches to a uniform vertex in [0, i). Weights uniform in
// [1, maxW].
func RandomTree(n int, maxW float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		p := Vertex(rng.Intn(i))
		g.MustAddEdge(p, Vertex(i), 1+rng.Float64()*(maxW-1))
	}
	return g
}

// ErdosRenyi returns a connected G(n, p) graph with weights uniform in
// [1, maxW]. Connectivity is guaranteed by first inserting a random
// spanning tree (a standard trick; for p above the connectivity
// threshold the tree edges are a vanishing fraction).
func ErdosRenyi(n int, p float64, maxW float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := Vertex(perm[i]), Vertex(perm[rng.Intn(i)])
		g.MustAddEdge(u, v, 1+rng.Float64()*(maxW-1))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(Vertex(u), Vertex(v), 1+rng.Float64()*(maxW-1))
			}
		}
	}
	return g
}

// Points is a set of points in R^dim, flattened row-major.
type Points struct {
	Dim    int
	Coords []float64 // len = n * Dim
}

// N returns the number of points.
func (p *Points) N() int { return len(p.Coords) / p.Dim }

// Dist returns the Euclidean distance between points i and j.
func (p *Points) Dist(i, j int) float64 {
	var s float64
	for d := 0; d < p.Dim; d++ {
		diff := p.Coords[i*p.Dim+d] - p.Coords[j*p.Dim+d]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// RandomPoints returns n uniform points in [0, side]^dim.
func RandomPoints(n, dim int, side float64, seed int64) *Points {
	rng := rand.New(rand.NewSource(seed))
	p := &Points{Dim: dim, Coords: make([]float64, n*dim)}
	for i := range p.Coords {
		p.Coords[i] = rng.Float64() * side
	}
	return p
}

// pe is a pending geometric edge: a point pair (i < j) and its
// Euclidean distance. The (d, i, j) tuple order over pe values (see
// peLess) is the tie-stable total order every geometric builder and
// its brute-force oracle share.
type pe struct {
	i, j int
	d    float64
}

// UnitBallGraph builds the unit-ball graph of the point set: an edge
// between every pair at Euclidean distance <= radius, weighted by that
// distance (scaled so the minimum weight is >= 1). If the result is
// disconnected, each component is connected to its nearest other
// component by the closest inter-component pair, preserving the doubling
// structure. This is the doubling-graph workload of §7 (and the graph
// family of [DPP06]).
//
// Pairs are found with a spatial-hash cell grid (cells of side radius,
// 3^dim-neighborhood probes), so construction is O(n + m) for roughly
// uniform point sets and million-point instances are practical. The
// output is bit-identical — same edges, same insertion order, same
// weights — to the O(n²) reference builder UnitBallGraphBrute, which is
// kept as the oracle for tests and benchmarks.
func UnitBallGraph(pts *Points, radius float64) *Graph {
	n := pts.N()
	g := New(n)
	var pend []pe
	minD := math.Inf(1)
	if n > 0 && radius > 0 {
		cg := newCellGrid(pts, radius)
		var cand []pairCand
		for i := 0; i < n; i++ {
			cand = cg.radiusPartners(i, radius, cand[:0])
			// Ascending j reproduces the brute-force (i, j) scan order.
			sort.Slice(cand, func(x, y int) bool { return cand[x].j < cand[y].j })
			for _, c := range cand {
				pend = append(pend, pe{i: i, j: int(c.j), d: c.d})
				if c.d < minD {
					minD = c.d
				}
			}
		}
	}
	return reconnectAndBuild(g, pts, pend, minD)
}

// reconnectAndBuild is the shared epilogue of the grid-backed
// geometric builders: stitch the components of the pending edge set
// with the exact closest-cross-pair MST, rescale so the minimum weight
// is >= 1, and materialise the edges in order.
func reconnectAndBuild(g *Graph, pts *Points, pend []pe, minD float64) *Graph {
	n := pts.N()
	uf := newUnionFind(n)
	for _, e := range pend {
		uf.union(e.i, e.j)
	}
	components := 0
	for i := 0; i < n; i++ {
		if uf.find(i) == i {
			components++
		}
	}
	if components > 1 {
		for _, e := range crossComponentMST(pts, uf) {
			pend = append(pend, e)
			if e.d > 0 && e.d < minD {
				minD = e.d
			}
		}
	}
	scale := 1.0
	if minD > 0 && minD < 1 {
		scale = 1 / minD
	}
	for _, e := range pend {
		g.MustAddEdge(Vertex(e.i), Vertex(e.j), e.d*scale)
	}
	return g
}

// UnitBallGraphBrute is the O(n²) reference implementation of
// UnitBallGraph: a full pair scan plus a quadratic closest-cross-pair
// reconnection. It defines the expected output bit for bit; the
// spatial-hash builder is oracle-tested against it and benchmarked
// against it in cmd/benchgen.
func UnitBallGraphBrute(pts *Points, radius float64) *Graph {
	n := pts.N()
	g := New(n)
	var pend []pe
	minD := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := pts.Dist(i, j)
			if d <= radius && d > 0 {
				pend = append(pend, pe{i, j, d})
				if d < minD {
					minD = d
				}
			}
		}
	}
	// Connect components via closest cross pairs: one O(n²) pass
	// computes, for every pair of radius-graph components, its closest
	// vertex pair; processing those candidates in increasing (d, i, j)
	// order with a union-find then adds exactly the edges the former
	// greedy repeat-scan loop chose (global-minimum merging is the
	// matroid greedy, i.e. Kruskal on the candidate set), in the same
	// order — identical output, but O(n² + C² log C) instead of
	// O(n² · C) for C components.
	uf := newUnionFind(n)
	for _, e := range pend {
		uf.union(e.i, e.j)
	}
	comp := make([]int32, n)
	var nComp int32
	for i := 0; i < n; i++ {
		comp[i] = -1
	}
	for i := 0; i < n; i++ {
		r := uf.find(i)
		if comp[r] < 0 {
			comp[r] = nComp
			nComp++
		}
		comp[i] = comp[r]
	}
	if nComp > 1 {
		// Closest pair per component pair; ties keep the smaller (i, j),
		// which the ascending scan visits first.
		closest := make(map[int64]pe)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := comp[i], comp[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				key := int64(a)*int64(nComp) + int64(b)
				d := pts.Dist(i, j)
				if cur, ok := closest[key]; !ok || d < cur.d {
					closest[key] = pe{i, j, d}
				}
			}
		}
		cand := make([]pe, 0, len(closest))
		for _, e := range closest {
			cand = append(cand, e)
		}
		sort.Slice(cand, func(x, y int) bool {
			if cand[x].d != cand[y].d {
				return cand[x].d < cand[y].d
			}
			if cand[x].i != cand[y].i {
				return cand[x].i < cand[y].i
			}
			return cand[x].j < cand[y].j
		})
		for _, e := range cand {
			if uf.find(e.i) == uf.find(e.j) {
				continue
			}
			uf.union(e.i, e.j)
			pend = append(pend, e)
			if e.d > 0 && e.d < minD {
				minD = e.d
			}
		}
	}
	scale := 1.0
	if minD > 0 && minD < 1 {
		scale = 1 / minD
	}
	for _, e := range pend {
		g.MustAddEdge(Vertex(e.i), Vertex(e.j), e.d*scale)
	}
	return g
}

// ConnectivityRadius is the standard random-geometric connection
// radius c·(log n / n)^{1/dim} at which n uniform points in [0,1]^dim
// are connected w.h.p. — the single source of truth for the constant,
// shared by RandomGeometric, the "ubg" scenario default and the
// generator benchmarks.
func ConnectivityRadius(n, dim int) float64 {
	return 1.6 * math.Pow(math.Log(float64(n+1))/float64(n), 1/float64(dim))
}

// RandomGeometric is a convenience wrapper: n uniform points in
// [0,1]^dim connected at ConnectivityRadius, producing a connected
// low-doubling-dimension graph.
func RandomGeometric(n, dim int, seed int64) *Graph {
	return UnitBallGraph(RandomPoints(n, dim, 1, seed), ConnectivityRadius(n, dim))
}

// KNearestNeighborGraph connects every point to its k nearest other
// points at positive Euclidean distance (ties broken towards the
// smaller index), weighted by distance and scaled so the minimum
// weight is >= 1. The per-point neighborhoods are symmetrised, so an
// edge appears once even when both endpoints select each other and
// every vertex has degree >= k (for k < n with distinct positions).
// Disconnected outputs are stitched by closest cross-component pairs
// exactly like UnitBallGraph. Built on the spatial-hash grid:
// O(n + k·n) expected for roughly uniform point sets.
func KNearestNeighborGraph(pts *Points, k int) *Graph {
	n := pts.N()
	if k >= n {
		k = n - 1
	}
	g := New(n)
	var pend []pe
	minD := math.Inf(1)
	if n > 0 && k > 0 {
		cg := newCellGrid(pts, spacingCellSize(pts))
		seen := make(map[int64]bool, n*k)
		var best []pairCand
		for i := 0; i < n; i++ {
			best = cg.kNearest(i, k, best[:0])
			for _, c := range best {
				a, b := i, int(c.j)
				if a > b {
					a, b = b, a
				}
				key := int64(a)*int64(n) + int64(b)
				if seen[key] {
					continue
				}
				seen[key] = true
				pend = append(pend, pe{i: a, j: b, d: c.d})
				if c.d < minD {
					minD = c.d
				}
			}
		}
	}
	return reconnectAndBuild(g, pts, pend, minD)
}

// BarabasiAlbert returns a preferential-attachment graph: vertices
// arrive in id order and each new vertex attaches to min(m, v)
// distinct earlier vertices sampled with probability proportional to
// their current degree (the [BA99] process, implemented with the
// standard repeated-endpoints list). The result is connected by
// construction, has m·n − O(m²) edges and a power-law degree tail —
// the overlay-network stress family with large doubling dimension.
// Weights are uniform in [1, maxW].
func BarabasiAlbert(n, m int, maxW float64, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	// chain holds every edge endpoint once; sampling a uniform entry is
	// sampling a vertex with probability proportional to its degree.
	chain := make([]int32, 0, 2*m*n)
	chosen := make([]int32, 0, m)
	for v := 1; v < n; v++ {
		mm := m
		if v < m {
			mm = v
		}
		chosen = chosen[:0]
		for len(chosen) < mm {
			var t int32
			if len(chain) == 0 {
				t = int32(rng.Intn(v))
			} else {
				t = chain[rng.Intn(len(chain))]
			}
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			g.MustAddEdge(Vertex(t), Vertex(v), 1+rng.Float64()*(maxW-1))
			chain = append(chain, t, int32(v))
		}
	}
	return g
}

// PlantedPartition returns a k-cluster planted-partition graph (the
// symmetric stochastic block model): n vertices in k contiguous
// near-equal blocks, each intra-block pair connected independently
// with probability pin and each inter-block pair with probability
// pout, plus a random recursive tree inside every block and one
// attachment edge per block so the graph is always connected. Pair
// sampling uses geometric gap skipping, so generation costs
// O(n + edges) — million-vertex instances are practical — rather than
// the O(n²) of a full pair scan. Weights are uniform in [1, maxW].
func PlantedPartition(n, k int, pin, pout, maxW float64, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	blk := (n + k - 1) / k
	w := func() float64 { return 1 + rng.Float64()*(maxW-1) }
	// Connectivity skeleton: each vertex attaches to a uniform earlier
	// vertex of its own block (random recursive tree per block); each
	// block's first vertex attaches to a uniform earlier vertex, tying
	// the blocks together.
	for v := 1; v < n; v++ {
		start := (v / blk) * blk
		if v == start {
			g.MustAddEdge(Vertex(rng.Intn(v)), Vertex(v), w())
		} else {
			g.MustAddEdge(Vertex(start+rng.Intn(v-start)), Vertex(v), w())
		}
	}
	// Planted edges. For each u the candidates v > u split into one
	// contiguous intra-block range and one contiguous inter-block range,
	// each sampled with geometric skipping.
	for u := 0; u < n; u++ {
		end := (u/blk + 1) * blk
		if end > n {
			end = n
		}
		sampleRange(rng, u+1, end, pin, func(v int) {
			g.MustAddEdge(Vertex(u), Vertex(v), w())
		})
		sampleRange(rng, end, n, pout, func(v int) {
			g.MustAddEdge(Vertex(u), Vertex(v), w())
		})
	}
	return g
}

// sampleRange invokes fn for each v in [lo, hi) independently with
// probability p. Runs of misses are skipped in O(1) each by drawing
// the geometric gap to the next hit, so the cost is proportional to
// the number of hits, not the range length.
func sampleRange(rng *rand.Rand, lo, hi int, p float64, fn func(v int)) {
	if p <= 0 || lo >= hi {
		return
	}
	if p >= 1 {
		for v := lo; v < hi; v++ {
			fn(v)
		}
		return
	}
	logq := math.Log1p(-p)
	v := lo
	for {
		gap := math.Floor(math.Log1p(-rng.Float64()) / logq)
		if gap >= float64(hi-v) {
			return
		}
		v += int(gap)
		fn(v)
		v++
		if v >= hi {
			return
		}
	}
}

// HardInstance generates the lower-bound graph family in the spirit of
// [SHK+12] / [Elk04]: sqrt(n) parallel paths of length sqrt(n) whose
// column vertices are stitched by a balanced binary "highway" tree of
// small hop-depth, with one adversarial heavy edge per path whose weight
// depends on a hidden bit. Approximating the MST weight (and hence
// computing any light object) requires transporting the Θ(sqrt n) hidden
// bits across the Θ(sqrt n)-hop paths or the congested highway.
//
// n is rounded down to a perfect square. heavy is the weight of marked
// edges (poly(n) in the reduction); bits selects which paths carry a
// heavy edge.
func HardInstance(n int, heavy float64, seed int64) *Graph {
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	rng := rand.New(rand.NewSource(seed))
	rows, cols := side, side
	total := rows*cols + (cols - 1) // grid + internal highway nodes (path of columns)
	g := New(total)
	at := func(r, c int) Vertex { return Vertex(r*cols + c) }
	hw := func(c int) Vertex { return Vertex(rows*cols + c) } // c in [0, cols-1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols-1; c++ {
			w := 1.0
			// One random heavy edge per row, position and presence
			// chosen by the hidden bits.
			if c == rng.Intn(cols-1) && rng.Intn(2) == 1 {
				w = heavy
			}
			g.MustAddEdge(at(r, c), at(r, c+1), w)
		}
	}
	// Highway: a path over column representatives with light weights and
	// spokes to every row at both ends — every hidden bit must cross
	// either its Θ(√n)-hop row or the single-capacity highway, which is
	// the congestion structure of the [SHK+12] reduction.
	for c := 0; c < cols-1; c++ {
		if c > 0 {
			g.MustAddEdge(hw(c-1), hw(c), 1)
		}
		g.MustAddEdge(hw(c), at(0, c), 1)
	}
	g.MustAddEdge(hw(cols-2), at(0, cols-1), 1)
	for r := 1; r < rows; r++ {
		g.MustAddEdge(hw(0), at(r, 0), 1)
		g.MustAddEdge(hw(cols-2), at(r, cols-1), 1)
	}
	return g
}

// unionFind is a minimal union-find for generator-internal use (the full
// featured one lives in internal/mst).
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// EstimateDoublingDimension estimates the doubling dimension of g's
// shortest-path metric by sampling: for sampled centers v and radii r,
// it greedily covers B(v, 2r) with balls of radius r and reports
// log2(max cover size). Exact doubling dimension is NP-hard; this
// estimator suffices to sanity-check that generated doubling workloads
// have small ddim and that ER graphs have large ddim.
func EstimateDoublingDimension(g *Graph, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	if g.n == 0 {
		return 0
	}
	maxCover := 1
	for s := 0; s < samples; s++ {
		v := Vertex(rng.Intn(g.n))
		t := g.Dijkstra(v)
		ecc := 0.0
		for _, d := range t.Dist {
			if !math.IsInf(d, 1) && d > ecc {
				ecc = d
			}
		}
		if ecc == 0 {
			continue
		}
		r := ecc * math.Pow(2, -float64(1+rng.Intn(4)))
		// Collect B(v, 2r), then greedily pick r-separated centers: the
		// number of centers lower-bounds (and up to constants matches)
		// the minimum cover count.
		var ball []Vertex
		for u, d := range t.Dist {
			if d <= 2*r {
				ball = append(ball, Vertex(u))
			}
		}
		var centerDists [][]float64
		for _, u := range ball {
			ok := true
			for _, cd := range centerDists {
				if cd[u] <= r {
					ok = false
					break
				}
			}
			if ok {
				centerDists = append(centerDists, g.DijkstraBounded(u, r).Dist)
				if len(centerDists) > 64 {
					break
				}
			}
		}
		if len(centerDists) > maxCover {
			maxCover = len(centerDists)
		}
	}
	return math.Log2(float64(maxCover))
}
