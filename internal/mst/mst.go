package mst

import (
	"errors"
	"fmt"
	"sort"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

// ErrDisconnected is returned when a spanning tree is requested for a
// disconnected graph.
var ErrDisconnected = errors.New("mst: graph is not connected")

// UnionFind is a disjoint-set structure with union by rank and path
// compression.
type UnionFind struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int32) int32 {
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the sets of a and b; returns false if already joined.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Same reports whether a and b are in the same set.
func (u *UnionFind) Same(a, b int32) bool { return u.Find(a) == u.Find(b) }

// Kruskal computes the MST edge ids and total weight. Ties are broken by
// edge id, making the MST unique and consistent with the distributed
// construction (congest.RunMST).
func Kruskal(g *graph.Graph) ([]graph.EdgeID, float64, error) {
	out, trees := KruskalSubset(g, nil)
	if trees > 1 {
		return nil, 0, ErrDisconnected
	}
	var total float64
	for _, id := range out {
		total += g.Edge(id).W
	}
	return out, total, nil
}

// KruskalSubset computes the minimum spanning forest of the subgraph of
// g induced by the allowed edges (indexed by edge id; nil allows all),
// with the same (weight, id) total order as Kruskal. It returns the
// forest edges in the order adopted and the number of trees it spans
// (connected components of the allowed subgraph, counting isolated
// vertices). It is the sequential oracle faulted pipeline stages
// validate their distributed MST against.
func KruskalSubset(g *graph.Graph, allowed []bool) ([]graph.EdgeID, int) {
	ids := make([]graph.EdgeID, 0, g.M())
	for i := 0; i < g.M(); i++ {
		if allowed == nil || allowed[i] {
			ids = append(ids, graph.EdgeID(i))
		}
	}
	sortByWeight(g, ids)
	uf := NewUnionFind(g.N())
	out := make([]graph.EdgeID, 0, max(g.N()-1, 0))
	for _, id := range ids {
		if uf.Sets() == 1 {
			break
		}
		if e := g.Edge(id); uf.Union(int32(e.U), int32(e.V)) {
			out = append(out, id)
		}
	}
	return out, uf.Sets()
}

// sortByWeight sorts edge ids in place by the total (w, id) order —
// Kruskal's order.
func sortByWeight(g *graph.Graph, ids []graph.EdgeID) {
	edges := g.Edges()
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := edges[ids[a]], edges[ids[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ids[a] < ids[b]
	})
}

// TreeWeight sums the weights of the marked tree edges (indexed by edge
// id) in the total (w, id) order, Kruskal's accumulation order: for the
// MST it is bit-identical to the weight Kruskal returns.
func TreeWeight(g *graph.Graph, inTree []bool) float64 {
	ids := make([]graph.EdgeID, 0, max(g.N()-1, 0))
	for id, in := range inTree {
		if in {
			ids = append(ids, graph.EdgeID(id))
		}
	}
	sortByWeight(g, ids)
	var total float64
	for _, id := range ids {
		total += g.Edge(id).W
	}
	return total
}

// ChargeConstruction charges a ledger the round cost of the [Elk17b]
// deterministic distributed MST construction: Õ(√n + D).
func ChargeConstruction(l *congest.Ledger, n, d int) {
	sq := isqrt(n)
	l.Charge("mst-construction", int64(sq+d))
	l.ChargeMessages(int64(4 * n))
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

// Tree is a rooted spanning tree of a graph: parent pointers, children
// lists (sorted by vertex id, the order §3 fixes for the Euler tour),
// hop depths, and subtree weights.
type Tree struct {
	G       *graph.Graph
	Root    graph.Vertex
	Edges   []graph.EdgeID
	Parent  []graph.EdgeID   // parent edge per vertex; NoEdge at root
	ParentV []graph.Vertex   // parent vertex per vertex; NoVertex at root
	Child   [][]graph.Vertex // children sorted ascending by id
	Depth   []int32          // hop depth
	Order   []graph.Vertex   // BFS order from root (parents precede children)
	Weight  float64
}

// NewTree roots the spanning tree given by edges at root. It validates
// that the edges form a spanning tree of g.
func NewTree(g *graph.Graph, edges []graph.EdgeID, root graph.Vertex) (*Tree, error) {
	n := g.N()
	if len(edges) != n-1 {
		return nil, fmt.Errorf("mst: %d edges cannot span %d vertices", len(edges), n)
	}
	adj := make([][]graph.Half, n)
	var weight float64
	for _, id := range edges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], graph.Half{To: e.V, W: e.W, ID: id})
		adj[e.V] = append(adj[e.V], graph.Half{To: e.U, W: e.W, ID: id})
		weight += e.W
	}
	t := &Tree{
		G:       g,
		Root:    root,
		Edges:   append([]graph.EdgeID(nil), edges...),
		Parent:  make([]graph.EdgeID, n),
		ParentV: make([]graph.Vertex, n),
		Child:   make([][]graph.Vertex, n),
		Depth:   make([]int32, n),
		Weight:  weight,
	}
	for i := range t.Parent {
		t.Parent[i] = graph.NoEdge
		t.ParentV[i] = graph.NoVertex
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	queue := []graph.Vertex{root}
	t.Order = make([]graph.Vertex, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		t.Order = append(t.Order, v)
		for _, h := range adj[v] {
			if t.Depth[h.To] >= 0 {
				continue
			}
			t.Depth[h.To] = t.Depth[v] + 1
			t.Parent[h.To] = h.ID
			t.ParentV[h.To] = v
			t.Child[v] = append(t.Child[v], h.To)
			queue = append(queue, h.To)
		}
		sort.Slice(t.Child[v], func(a, b int) bool { return t.Child[v][a] < t.Child[v][b] })
	}
	if len(t.Order) != n {
		return nil, fmt.Errorf("mst: edges span only %d of %d vertices: %w", len(t.Order), n, ErrDisconnected)
	}
	return t, nil
}

// EdgeWeight returns the weight of v's parent edge (0 at the root).
func (t *Tree) EdgeWeight(v graph.Vertex) float64 {
	if t.Parent[v] == graph.NoEdge {
		return 0
	}
	return t.G.Edge(t.Parent[v]).W
}

// SubtreeSizes returns the number of vertices in each subtree.
func (t *Tree) SubtreeSizes() []int32 {
	size := make([]int32, len(t.Parent))
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		size[v]++
		if p := t.ParentV[v]; p != graph.NoVertex {
			size[p] += size[v]
		}
	}
	return size
}

// Dist returns tree distances from the root (weighted).
func (t *Tree) Dist() []float64 {
	d := make([]float64, len(t.Parent))
	for _, v := range t.Order {
		if p := t.ParentV[v]; p != graph.NoVertex {
			d[v] = d[p] + t.EdgeWeight(v)
		}
	}
	return d
}
