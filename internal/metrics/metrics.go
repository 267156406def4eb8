// Package metrics certifies spanner/tree quality: stretch (exact per
// edge, exact all-pairs on small graphs, sampled on large), lightness
// and sparsity. All routines use exact Dijkstra — they are the ground
// truth the constructions are tested against.
package metrics

import (
	"fmt"
	"math"

	"lightnet/internal/graph"
)

// EdgeStretch returns the maximum and mean stretch of the spanner h
// over the edges of g: max_{(u,v) ∈ E(g)} d_h(u,v) / w(u,v). By the
// triangle inequality the per-edge maximum equals the all-pairs maximum
// stretch. h must be on the same vertex set.
//
// Edges are grouped by their endpoint U, and one Dijkstra search in h
// per U stops as soon as every V endpoint of U's group is settled. Settled distances are final, so the result is exactly
// that of full searches; the search scratch is reused across sources
// and reset through the list of vertices it touched.
func EdgeStretch(g, h *graph.Graph) (maxStretch, meanStretch float64, err error) {
	if g.N() != h.N() {
		return 0, 0, fmt.Errorf("metrics: vertex sets differ: %d vs %d", g.N(), h.N())
	}
	byU := make([][]graph.Edge, g.N())
	for _, e := range g.Edges() {
		byU[e.U] = append(byU[e.U], e)
	}
	s := newTargetSearch(h.N())
	var sum float64
	var count int
	maxStretch = 1
	for u := 0; u < g.N(); u++ {
		if len(byU[u]) == 0 {
			continue
		}
		dist := s.run(h, graph.Vertex(u), byU[u])
		for _, e := range byU[u] {
			d := dist[e.V]
			if math.IsInf(d, 1) {
				return 0, 0, fmt.Errorf("metrics: edge {%d,%d} disconnected in spanner", e.U, e.V)
			}
			s := d / e.W
			if s < 1 {
				s = 1 // spanner may be shorter via parallel/lighter edges
			}
			if s > maxStretch {
				maxStretch = s
			}
			sum += s
			count++
		}
	}
	if count == 0 {
		return 1, 1, nil
	}
	return maxStretch, sum / float64(count), nil
}

// targetSearch is the reusable scratch of EdgeStretch's searches.
// target[v] is src+1 if v is a target of src's search; each source is
// searched once, so stale marks never match.
type targetSearch struct {
	dist    []float64 // +Inf everywhere but at touched vertices
	target  []int32
	touched []graph.Vertex
	heap    []heapItem // lazy-deletion binary min-heap on d
}

type heapItem struct {
	d float64
	v graph.Vertex
}

func newTargetSearch(n int) *targetSearch {
	s := &targetSearch{dist: make([]float64, n), target: make([]int32, n)}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	return s
}

// run resets the previous search, then runs Dijkstra in h from src
// until the V endpoint of every edge is settled (or everything
// reachable is). The returned slice holds exact distances at those
// endpoints and is valid until the next run.
func (s *targetSearch) run(h *graph.Graph, src graph.Vertex, edges []graph.Edge) []float64 {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
	}
	s.touched, s.heap = append(s.touched[:0], src), s.heap[:0]
	stamp, left := int32(src)+1, 0
	for _, e := range edges {
		if s.target[e.V] != stamp {
			s.target[e.V] = stamp
			left++
		}
	}
	s.dist[src] = 0
	s.push(heapItem{0, src})
	for len(s.heap) > 0 && left > 0 {
		it := s.pop()
		if it.d > s.dist[it.v] {
			continue // stale: every push strictly improves d, so v settles once
		}
		if s.target[it.v] == stamp {
			left--
		}
		for _, half := range h.Neighbors(it.v) {
			if nd := it.d + half.W; nd < s.dist[half.To] {
				if math.IsInf(s.dist[half.To], 1) {
					s.touched = append(s.touched, half.To)
				}
				s.dist[half.To] = nd
				s.push(heapItem{nd, half.To})
			}
		}
	}
	return s.dist
}

func (s *targetSearch) push(it heapItem) {
	i := len(s.heap)
	s.heap = append(s.heap, it)
	for ; i > 0 && s.heap[(i-1)/2].d > it.d; i = (i - 1) / 2 {
		s.heap[i] = s.heap[(i-1)/2]
	}
	s.heap[i] = it
}

func (s *targetSearch) pop() heapItem {
	top, last := s.heap[0], s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	n, i := len(s.heap), 0
	for c := 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && s.heap[c+1].d < s.heap[c].d {
			c++
		}
		if last.d <= s.heap[c].d {
			break
		}
		s.heap[i] = s.heap[c]
	}
	if n > 0 {
		s.heap[i] = last
	}
	return top
}

// RootStretch returns the maximum stretch of root distances of a tree
// given by per-vertex distances, against exact distances in g.
func RootStretch(g *graph.Graph, root graph.Vertex, treeDist []float64) (float64, error) {
	exact := g.Dijkstra(root).Dist
	maxS := 1.0
	for v := 0; v < g.N(); v++ {
		if graph.Vertex(v) == root || math.IsInf(exact[v], 1) {
			continue
		}
		if math.IsInf(treeDist[v], 1) {
			return 0, fmt.Errorf("metrics: vertex %d unreachable in tree", v)
		}
		if s := treeDist[v] / exact[v]; s > maxS {
			maxS = s
		}
	}
	return maxS, nil
}

// StretchHistogram buckets the per-edge stretch of the spanner h into
// bins of the given width starting at 1.0, returning counts. Used by the
// benchmark harness to show that typical stretch is far below the
// worst-case bound.
func StretchHistogram(g, h *graph.Graph, binWidth float64, bins int) ([]int, error) {
	if binWidth <= 0 || bins <= 0 {
		return nil, fmt.Errorf("metrics: bad histogram shape %v/%d", binWidth, bins)
	}
	hist := make([]int, bins)
	byU := make([][]graph.Edge, g.N())
	for _, e := range g.Edges() {
		byU[e.U] = append(byU[e.U], e)
	}
	for u := 0; u < g.N(); u++ {
		if len(byU[u]) == 0 {
			continue
		}
		dist := h.Dijkstra(graph.Vertex(u)).Dist
		for _, e := range byU[u] {
			if math.IsInf(dist[e.V], 1) {
				return nil, fmt.Errorf("metrics: edge {%d,%d} disconnected", e.U, e.V)
			}
			s := dist[e.V] / e.W
			if s < 1 {
				s = 1
			}
			bin := int((s - 1) / binWidth)
			if bin >= bins {
				bin = bins - 1
			}
			hist[bin]++
		}
	}
	return hist, nil
}

// Lightness returns total weight of the edge set divided by the MST
// weight.
func Lightness(g *graph.Graph, edges []graph.EdgeID, mstWeight float64) float64 {
	if mstWeight <= 0 {
		return 1
	}
	return g.WeightOf(edges) / mstWeight
}

// Sparsity returns |edges| / n.
func Sparsity(n int, edges []graph.EdgeID) float64 {
	if n == 0 {
		return 0
	}
	return float64(len(edges)) / float64(n)
}
