package main

import (
	"math"
	"sort"

	"lightnet"
)

// The benchmark checks the program's outputs against computations of its
// own: an adjacency list, Dijkstra and Kruskal written here from the edge
// list alone, so no check reuses the code it is checking.

// adj is a compressed adjacency list over a subset of a graph's edges.
type adj struct {
	off  []int32 // neighbors of v are at [off[v], off[v+1])
	to   []int32
	w    []float64
	edge []int32 // edge id in the base graph
}

// newAdj builds the adjacency of the edges listed in ids (all edges when
// ids is nil) over n vertices.
func newAdj(n int, edges []lightnet.Edge, ids []lightnet.EdgeID) *adj {
	if ids == nil {
		ids = make([]lightnet.EdgeID, len(edges))
		for i := range ids {
			ids[i] = lightnet.EdgeID(i)
		}
	}
	a := &adj{off: make([]int32, n+1)}
	for _, id := range ids {
		e := edges[id]
		a.off[e.U+1]++
		a.off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		a.off[v+1] += a.off[v]
	}
	a.to = make([]int32, 2*len(ids))
	a.w = make([]float64, 2*len(ids))
	a.edge = make([]int32, 2*len(ids))
	next := append([]int32(nil), a.off[:n]...)
	for _, id := range ids {
		e := edges[id]
		for _, p := range [2][2]lightnet.Vertex{{e.U, e.V}, {e.V, e.U}} {
			i := next[p[0]]
			next[p[0]]++
			a.to[i], a.w[i], a.edge[i] = int32(p[1]), e.W, int32(id)
		}
	}
	return a
}

func (a *adj) n() int { return len(a.off) - 1 }

// heapItem is one entry of the lazy-deletion binary heap.
type heapItem struct {
	d float64
	v int32
}

type minHeap []heapItem

func (h *minHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].d <= s[i].d {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap) pop() heapItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s) && s[l].d < s[m].d {
			m = l
		}
		if r < len(s) && s[r].d < s[m].d {
			m = r
		}
		if m == i {
			break
		}
		s[m], s[i] = s[i], s[m]
		i = m
	}
	*h = s
	return top
}

// dijkstra returns exact distances from src (+Inf when unreachable).
func (a *adj) dijkstra(src int) []float64 {
	dist := make([]float64, a.n())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := minHeap{{0, int32(src)}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue
		}
		for i := a.off[it.v]; i < a.off[it.v+1]; i++ {
			if nd := it.d + a.w[i]; nd < dist[a.to[i]] {
				dist[a.to[i]] = nd
				h.push(heapItem{nd, a.to[i]})
			}
		}
	}
	return dist
}

// boundedSearch answers repeated "is dist(s,t) <= bound?" questions with
// scratch arrays reused across calls, so each search costs only the
// vertices within the bound.
type boundedSearch struct {
	a       *adj
	dist    []float64
	touched []int32
	h       minHeap
}

func newBoundedSearch(a *adj) *boundedSearch {
	b := &boundedSearch{a: a, dist: make([]float64, a.n())}
	for i := range b.dist {
		b.dist[i] = math.Inf(1)
	}
	return b
}

// distWithin returns dist(s,t) when it is at most bound, else +Inf.
func (b *boundedSearch) distWithin(s, t int, bound float64) float64 {
	defer b.reset()
	b.set(int32(s), 0)
	b.h = append(b.h[:0], heapItem{0, int32(s)})
	for len(b.h) > 0 {
		it := b.h.pop()
		if it.d > b.dist[it.v] {
			continue
		}
		if int(it.v) == t {
			return it.d
		}
		a := b.a
		for i := a.off[it.v]; i < a.off[it.v+1]; i++ {
			if nd := it.d + a.w[i]; nd <= bound && nd < b.dist[a.to[i]] {
				b.set(a.to[i], nd)
				b.h.push(heapItem{nd, a.to[i]})
			}
		}
	}
	return math.Inf(1)
}

func (b *boundedSearch) set(v int32, d float64) {
	if math.IsInf(b.dist[v], 1) {
		b.touched = append(b.touched, v)
	}
	b.dist[v] = d
}

func (b *boundedSearch) reset() {
	for _, v := range b.touched {
		b.dist[v] = math.Inf(1)
	}
	b.touched = b.touched[:0]
}

// kruskalWeight returns the weight of a minimum spanning forest of the
// edge list and the number of its edges.
func kruskalWeight(n int, edges []lightnet.Edge) (float64, int) {
	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := edges[order[i]], edges[order[j]]
		if a.W != b.W {
			return a.W < b.W
		}
		return order[i] < order[j]
	})
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var w float64
	k := 0
	for _, id := range order {
		e := edges[id]
		if ru, rv := find(int32(e.U)), find(int32(e.V)); ru != rv {
			parent[ru] = rv
			w += e.W
			k++
		}
	}
	return w, k
}

// approxEq reports whether a and b agree to a relative 1e-9.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
