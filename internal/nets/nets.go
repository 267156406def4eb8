package nets

import (
	"fmt"
	"math"
	"sort"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
	"lightnet/internal/lelist"
	"lightnet/internal/sssp"
)

// Result is a constructed net with its certification data.
type Result struct {
	// Points are the net vertices, ascending.
	Points []graph.Vertex
	// JoinedAt[i] is the iteration at which Points[i] joined.
	JoinedAt []int
	// Iterations is the number of iterations executed.
	Iterations int
	// Alpha is the certified covering radius (1+δ)·Δ.
	Alpha float64
	// Beta is the certified separation Δ/(1+δ).
	Beta float64
}

// Options configure Build.
type Options struct {
	Seed    int64
	Ledger  *congest.Ledger
	HopDiam int
	// MaxIterations aborts runaway loops; default 8·log2(n)+16
	// (the algorithm terminates in O(log n) iterations w.h.p.).
	MaxIterations int
}

// Build runs the Theorem 3 algorithm on g with distance scale delta
// (Δ in the paper) and approximation parameter approx (δ in the paper).
func Build(g *graph.Graph, scale float64, approx float64, opts Options) (*Result, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("nets: scale %v must be positive", scale)
	}
	if approx <= 0 || approx >= 1 {
		return nil, fmt.Errorf("nets: approx %v must be in (0,1)", approx)
	}
	n := g.N()
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 8*int(math.Log2(float64(n+2))) + 16
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	res := &Result{Alpha: (1 + approx) * scale, Beta: scale / (1 + approx)}
	remaining := n
	for iter := 0; remaining > 0; iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("nets: no convergence after %d iterations (%d active)", iter, remaining)
		}
		res.Iterations = iter + 1
		a := make([]graph.Vertex, 0, remaining)
		for v := 0; v < n; v++ {
			if active[v] {
				a = append(a, graph.Vertex(v))
			}
		}
		// LE lists w.r.t. the active set under a fresh permutation,
		// computed in H_i with d_G <= d_H <= (1+δ)d_G.
		lists, err := lelist.Compute(g, a, approx, opts.Seed+int64(iter)*7919, opts.Ledger, opts.HopDiam)
		if err != nil {
			return nil, fmt.Errorf("nets: iteration %d: %w", iter, err)
		}
		// v joins N_i iff it is π-first within its Δ-ball in H_i.
		var joined []graph.Vertex
		for _, v := range a {
			if u, _ := lists.MinWithin(v, scale); u == v {
				joined = append(joined, v)
			}
		}
		if len(joined) == 0 {
			// Cannot happen: the π-minimal active vertex always joins.
			return nil, fmt.Errorf("nets: iteration %d made no progress", iter)
		}
		for _, v := range joined {
			res.Points = append(res.Points, v)
			res.JoinedAt = append(res.JoinedAt, iter)
		}
		// Approximate SPT T_i rooted at N_i; deactivate everything
		// within (1+δ)·Δ in T_i.
		dist, _, _, err := sssp.BoundedMultiSource(g, joined, res.Alpha, approx, sssp.Options{
			Seed:    opts.Seed + int64(iter)*104729,
			Ledger:  opts.Ledger,
			HopDiam: opts.HopDiam,
		})
		if err != nil {
			return nil, fmt.Errorf("nets: iteration %d: %w", iter, err)
		}
		for v := 0; v < n; v++ {
			if active[v] && dist[v] <= res.Alpha {
				active[v] = false
				remaining--
			}
		}
		if opts.Ledger != nil {
			opts.Ledger.Charge("nets/join-decisions", 1)
		}
	}
	ordered := make([]int, len(res.Points))
	for i := range ordered {
		ordered[i] = i
	}
	sort.Slice(ordered, func(a, b int) bool { return res.Points[ordered[a]] < res.Points[ordered[b]] })
	pts := make([]graph.Vertex, len(res.Points))
	joins := make([]int, len(res.Points))
	for i, j := range ordered {
		pts[i] = res.Points[j]
		joins[i] = res.JoinedAt[j]
	}
	res.Points, res.JoinedAt = pts, joins
	return res, nil
}

// Greedy computes a (β, β)-net sequentially: scan vertices in id order,
// adding any vertex farther than β from all chosen points. This is the
// "inherently sequential" baseline of §1.3.
func Greedy(g *graph.Graph, beta float64) *Result {
	n := g.N()
	cover := make([]float64, n)
	for i := range cover {
		cover[i] = graph.Inf
	}
	res := &Result{Alpha: beta, Beta: beta, Iterations: 1}
	for v := 0; v < n; v++ {
		if cover[v] <= beta {
			continue
		}
		res.Points = append(res.Points, graph.Vertex(v))
		res.JoinedAt = append(res.JoinedAt, 0)
		t := g.DijkstraBounded(graph.Vertex(v), beta)
		for u, d := range t.Dist {
			if d < cover[u] {
				cover[u] = d
			}
		}
	}
	return res
}

// Verify checks with exact Dijkstra computations that pts is
// alpha-covering and beta-separated in g.
func Verify(g *graph.Graph, pts []graph.Vertex, alpha, beta float64) error {
	if len(pts) == 0 {
		if g.N() == 0 {
			return nil
		}
		return fmt.Errorf("nets: empty net cannot cover %d vertices", g.N())
	}
	dist, _, _ := g.DijkstraMultiSource(pts, graph.Inf)
	for v := 0; v < g.N(); v++ {
		if dist[v] > alpha+1e-9 {
			return fmt.Errorf("nets: vertex %d at distance %v > α=%v from net", v, dist[v], alpha)
		}
	}
	for _, p := range pts {
		t := g.DijkstraBounded(p, beta)
		for _, q := range pts {
			if q != p && t.Dist[q] <= beta-1e-9 {
				return fmt.Errorf("nets: points %d,%d at distance %v <= β=%v", p, q, t.Dist[q], beta)
			}
		}
	}
	return nil
}
