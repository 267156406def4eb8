package nets

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

func TestBuildProducesValidNet(t *testing.T) {
	tests := []struct {
		name  string
		g     *graph.Graph
		scale float64
	}{
		{"path", graph.Path(60, 1), 5},
		{"grid", graph.Grid(8, 8, 2, 1), 4},
		{"er", graph.ErdosRenyi(80, 0.1, 9, 2), 6},
		{"geometric", graph.RandomGeometric(72, 2, 3), 0.5},
		{"tiny-scale", graph.Path(30, 1), 0.5}, // scale below min distance: all vertices
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, approx := range []float64{0.25, 0.5} {
				res, err := Build(tt.g, tt.scale, approx, Options{Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(tt.g, res.Points, res.Alpha, res.Beta); err != nil {
					t.Fatalf("approx=%v: %v", approx, err)
				}
				if res.Iterations < 1 {
					t.Fatal("no iterations recorded")
				}
				maxLog := 8*math.Log2(float64(tt.g.N()+2)) + 16
				if float64(res.Iterations) > maxLog {
					t.Fatalf("too many iterations: %d", res.Iterations)
				}
			}
		})
	}
}

func TestTinyScaleSelectsEveryVertex(t *testing.T) {
	// When Δ/(1+δ) is smaller than the minimum distance, every vertex
	// is Δ-separated from every other in H... conversely when Δ is
	// below the min edge weight nothing can cover a neighbor, so all
	// vertices must join the net eventually.
	g := graph.Path(20, 3)
	res, err := Build(g, 1, 0.5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != g.N() {
		t.Fatalf("net has %d of %d points", len(res.Points), g.N())
	}
}

func TestHugeScaleSelectsFew(t *testing.T) {
	g := graph.Path(50, 1)
	res, err := Build(g, 1000, 0.5, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("scale beyond diameter must yield a single point, got %d", len(res.Points))
	}
}

func TestBuildIterationsLogarithmic(t *testing.T) {
	g := graph.ErdosRenyi(256, 0.04, 9, 5)
	res, err := Build(g, 3, 0.5, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3*int(math.Log2(256))+4 {
		t.Fatalf("iterations %d exceed O(log n) comfort bound", res.Iterations)
	}
}

func TestBuildChargesLedger(t *testing.T) {
	g := graph.Grid(6, 6, 2, 2)
	l := congest.NewLedger()
	if _, err := Build(g, 3, 0.5, Options{Seed: 1, Ledger: l, HopDiam: 10}); err != nil {
		t.Fatal(err)
	}
	if l.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
	found := false
	for label := range l.ByLabel() {
		if strings.HasPrefix(label, "lelist/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("LE list cost missing from ledger: %v", l.String())
	}
}

func TestBuildValidation(t *testing.T) {
	g := graph.Path(5, 1)
	if _, err := Build(g, 0, 0.5, Options{}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Build(g, 1, 0, Options{}); err == nil {
		t.Fatal("zero approx accepted")
	}
	if _, err := Build(g, 1, 1.5, Options{}); err == nil {
		t.Fatal("approx >= 1 accepted")
	}
}

func TestGreedyNet(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		beta float64
	}{
		{"path", graph.Path(50, 1), 4},
		{"grid", graph.Grid(7, 7, 2, 3), 5},
		{"geometric", graph.RandomGeometric(64, 2, 4), 0.4},
	} {
		t.Run(tt.name, func(t *testing.T) {
			res := Greedy(tt.g, tt.beta)
			if err := Verify(tt.g, res.Points, tt.beta, tt.beta); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGreedyVsDistributedCardinality(t *testing.T) {
	// Both are Θ(Δ)-nets; cardinalities must be within a constant-ish
	// factor (packing): |distributed| at scale Δ vs greedy at Δ/(1+δ).
	g := graph.Grid(9, 9, 1.5, 7)
	scale := 4.0
	res, err := Build(g, scale, 0.5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	greedy := Greedy(g, scale)
	ratio := float64(len(res.Points)) / float64(len(greedy.Points))
	if ratio < 0.2 || ratio > 12 {
		t.Fatalf("cardinality ratio %v out of plausible band (%d vs %d)",
			ratio, len(res.Points), len(greedy.Points))
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(10, 1)
	// Not covering: single endpoint with tiny alpha.
	if err := Verify(g, []graph.Vertex{0}, 2, 1); err == nil {
		t.Fatal("verify missed covering violation")
	}
	// Not separated: adjacent points with big beta.
	if err := Verify(g, []graph.Vertex{0, 1}, 100, 2); err == nil {
		t.Fatal("verify missed separation violation")
	}
	// Valid: every 3rd vertex, alpha 2... distance between chosen = 3.
	if err := Verify(g, []graph.Vertex{0, 3, 6, 9}, 2, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, nil, 1, 1); err == nil {
		t.Fatal("empty net accepted for nonempty graph")
	}
}

// Property: on random geometric graphs the net properties certify for
// random scales.
func TestNetPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 30 + int(uint64(seed)%40)
		g := graph.ErdosRenyi(n, 0.15, 6, seed)
		scale := 1 + float64(uint64(seed)%50)/10
		res, err := Build(g, scale, 0.5, Options{Seed: seed})
		if err != nil {
			return false
		}
		return Verify(g, res.Points, res.Alpha, res.Beta) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Cross-iteration separation: points joining at different iterations
// must still be Δ/(1+δ)-separated (the subtle half of the paper's
// packing argument).
func TestCrossIterationSeparation(t *testing.T) {
	g := graph.RandomGeometric(80, 2, 13)
	scale := g.Eccentricity(0) / 6
	res, err := Build(g, scale, 0.5, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	multiIter := false
	for i := range res.Points {
		for j := i + 1; j < len(res.Points); j++ {
			if res.JoinedAt[i] != res.JoinedAt[j] {
				multiIter = true
				d := g.Dijkstra(res.Points[i]).Dist[res.Points[j]]
				if d <= res.Beta-1e-9 {
					t.Fatalf("cross-iteration pair (%d,%d) at distance %v < β=%v",
						res.Points[i], res.Points[j], d, res.Beta)
				}
			}
		}
	}
	if res.Iterations > 1 && !multiIter {
		t.Log("note: all points joined in one iteration")
	}
}
