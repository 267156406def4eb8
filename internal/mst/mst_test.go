package mst

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("sets = %d", u.Sets())
	}
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("fresh unions must succeed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union must fail")
	}
	if u.Sets() != 3 {
		t.Fatalf("sets = %d", u.Sets())
	}
	if !u.Same(0, 1) || u.Same(1, 2) {
		t.Fatal("same-set queries wrong")
	}
	u.Union(0, 2)
	if !u.Same(1, 3) {
		t.Fatal("transitivity broken")
	}
}

// Property: union-find agrees with a naive component labelling under a
// random union sequence.
func TestUnionFindQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		u := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for i := 0; i < 3*n; i++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			merged := u.Union(a, b)
			if merged == (label[a] == label[b]) {
				return false
			}
			relabel(label[a], label[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Same(int32(i), int32(j)) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKruskalKnown(t *testing.T) {
	// Square with a diagonal: MST must pick the three lightest.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 0, 4)
	g.MustAddEdge(0, 2, 5)
	edges, w, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 6 || len(edges) != 3 {
		t.Fatalf("weight=%v edges=%v", w, edges)
	}
}

func TestKruskalDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, _, err := Kruskal(g); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
}

func TestKruskalMatchesDistributedBoruvka(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(50, 0.15, 10, seed)
		ke, kw, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		be, stats, err := congest.RunMST(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.WeightOf(be)-kw) > 1e-9 {
			t.Fatalf("seed %d: distributed MST %v vs Kruskal %v", seed, g.WeightOf(be), kw)
		}
		if len(be) != len(ke) {
			t.Fatalf("edge counts differ: %d vs %d", len(be), len(ke))
		}
		if stats.Rounds == 0 {
			t.Fatal("no rounds recorded")
		}
	}
}

func TestNewTreeStructure(t *testing.T) {
	g := graph.Path(6, 2)
	edges, _, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(g, edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 2 || tr.Parent[2] != graph.NoEdge {
		t.Fatal("root wrong")
	}
	if tr.Depth[0] != 2 || tr.Depth[5] != 3 {
		t.Fatalf("depths %v", tr.Depth)
	}
	if tr.Weight != 10 {
		t.Fatalf("weight %v", tr.Weight)
	}
	// Children sorted by id.
	for v, cs := range tr.Child {
		for i := 1; i < len(cs); i++ {
			if cs[i-1] >= cs[i] {
				t.Fatalf("children of %d unsorted: %v", v, cs)
			}
		}
	}
	// Order: parents precede children.
	pos := make([]int, g.N())
	for i, v := range tr.Order {
		pos[v] = i
	}
	for v := 0; v < g.N(); v++ {
		if p := tr.ParentV[v]; p != graph.NoVertex && pos[p] >= pos[v] {
			t.Fatalf("order violates parent-first at %d", v)
		}
	}
}

func TestNewTreeRejectsBadInput(t *testing.T) {
	g := graph.Path(4, 1)
	if _, err := NewTree(g, []graph.EdgeID{0}, 0); err == nil {
		t.Fatal("too few edges accepted")
	}
	// Right count but not spanning (duplicate edge).
	g2 := graph.New(4)
	a := g2.MustAddEdge(0, 1, 1)
	g2.MustAddEdge(1, 2, 1)
	g2.MustAddEdge(2, 3, 1)
	dup := g2.MustAddEdge(0, 1, 5)
	if _, err := NewTree(g2, []graph.EdgeID{a, dup, 2}, 0); err == nil {
		t.Fatal("non-spanning edge set accepted")
	}
}

func TestSubtreeSizesAndDist(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(1, 3, 3)
	g.MustAddEdge(1, 4, 4)
	tr, err := NewTree(g, []graph.EdgeID{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := tr.SubtreeSizes()
	if size[0] != 5 || size[1] != 3 || size[2] != 1 || size[3] != 1 {
		t.Fatalf("sizes %v", size)
	}
	d := tr.Dist()
	if d[4] != 5 || d[2] != 2 || d[0] != 0 {
		t.Fatalf("dists %v", d)
	}
}

func TestDecomposeInvariantsAcrossShapes(t *testing.T) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(100, 1)},
		{"star", graph.Star(100, 1)},
		{"caterpillar", caterpillar(60)},
		{"random-tree", graph.RandomTree(128, 5, 2)},
		{"er", graph.ErdosRenyi(120, 0.08, 7, 3)},
	}
	for _, tt := range shapes {
		t.Run(tt.name, func(t *testing.T) {
			edges, _, err := Kruskal(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTree(tt.g, edges, 0)
			if err != nil {
				t.Fatal(err)
			}
			maxSize := isqrt(tt.g.N())
			f, err := Decompose(tr, maxSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Validate(maxSize); err != nil {
				t.Fatal(err)
			}
			// Fragment roots' parents live in the parent fragment.
			for i, r := range f.Roots {
				if f.ParentFrag[i] == -1 {
					if r != tr.Root {
						t.Fatalf("rootless fragment %d rooted at %d != tree root", i, r)
					}
					continue
				}
				p := tr.ParentV[r]
				if f.Of[p] != f.ParentFrag[i] {
					t.Fatalf("fragment %d parent mismatch", i)
				}
				if f.ParentEdge[i] != tr.Parent[r] {
					t.Fatalf("fragment %d parent edge mismatch", i)
				}
			}
		})
	}
}

// caterpillar builds a path with a leaf hanging off every path vertex.
func caterpillar(spine int) *graph.Graph {
	g := graph.New(2 * spine)
	for i := 0; i < spine-1; i++ {
		g.MustAddEdge(graph.Vertex(i), graph.Vertex(i+1), 1)
	}
	for i := 0; i < spine; i++ {
		g.MustAddEdge(graph.Vertex(i), graph.Vertex(spine+i), 2)
	}
	return g
}

func TestDecomposeFragmentTreeIsAcyclic(t *testing.T) {
	g := graph.RandomTree(200, 4, 9)
	edges, _, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(g, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decompose(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Follow parent pointers from every fragment: must reach -1 without
	// visiting a fragment twice.
	for i := range f.Roots {
		seen := map[int32]bool{}
		for cur := int32(i); cur != -1; cur = f.ParentFrag[cur] {
			if seen[cur] {
				t.Fatalf("fragment tree has a cycle through %d", cur)
			}
			seen[cur] = true
		}
	}
}

func TestDecomposeMaxSizeValidation(t *testing.T) {
	g := graph.Path(5, 1)
	edges, _, _ := Kruskal(g)
	tr, _ := NewTree(g, edges, 0)
	if _, err := Decompose(tr, 0); err == nil {
		t.Fatal("maxSize 0 accepted")
	}
	// maxSize 1: every vertex its own fragment — count bound is n/1+1.
	f, err := Decompose(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != 5 {
		t.Fatalf("maxSize=1 gave %d fragments", f.Count())
	}
}

// Property: decomposition invariants hold for random trees and sizes.
func TestDecomposeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		g := graph.RandomTree(n, 6, seed)
		edges, _, err := Kruskal(g)
		if err != nil {
			return false
		}
		tr, err := NewTree(g, edges, graph.Vertex(rng.Intn(n)))
		if err != nil {
			return false
		}
		maxSize := 1 + rng.Intn(n/2+1)
		fr, err := Decompose(tr, maxSize)
		if err != nil {
			return false
		}
		return fr.Validate(maxSize) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentCountScalesAsSqrtN(t *testing.T) {
	for _, n := range []int{256, 1024} {
		g := graph.RandomTree(n, 3, 7)
		edges, _, _ := Kruskal(g)
		tr, _ := NewTree(g, edges, 0)
		f, err := Decompose(tr, isqrt(n))
		if err != nil {
			t.Fatal(err)
		}
		sq := isqrt(n)
		if f.Count() > sq+1 {
			t.Fatalf("n=%d: %d fragments > √n+1=%d", n, f.Count(), sq+1)
		}
		if f.MaxHopDiam > 2*sq {
			t.Fatalf("n=%d: fragment diameter %d > 2√n=%d", n, f.MaxHopDiam, 2*sq)
		}
	}
}

func TestChargeHelpers(t *testing.T) {
	g := graph.Path(16, 1)
	edges, _, _ := Kruskal(g)
	tr, _ := NewTree(g, edges, 0)
	f, _ := Decompose(tr, 4)
	l := congest.NewLedger()
	ChargeConstruction(l, 16, 15)
	f.ChargeFragmentBroadcast(l, "bc", 15)
	f.ChargeLocalPipeline(l, "local")
	if l.Rounds() == 0 || l.Messages() == 0 {
		t.Fatal("charges not recorded")
	}
	if l.ByLabel()["mst-construction"] != int64(isqrt(16)+15) {
		t.Fatalf("mst charge wrong: %v", l.ByLabel())
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 4: 2, 5: 3, 9: 3, 10: 4, 100: 10, 101: 11}
	for in, want := range cases {
		if got := isqrt(in); got != want {
			t.Fatalf("isqrt(%d)=%d want %d", in, got, want)
		}
	}
}
