package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// graphsIdentical fails the test unless got and want have identical
// vertex counts and identical edge lists (same ids, endpoints and
// weights — i.e. bit-identical builder output).
func graphsIdentical(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n=%d, want %d", label, got.N(), want.N())
	}
	if got.M() != want.M() {
		t.Fatalf("%s: m=%d, want %d", label, got.M(), want.M())
	}
	for id := 0; id < want.M(); id++ {
		if ge, we := got.Edge(EdgeID(id)), want.Edge(EdgeID(id)); ge != we {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, id, ge, we)
		}
	}
}

// TestUnitBallGridMatchesBruteFixed pins the spatial-hash builder to
// the brute-force oracle on hand-picked regimes: dense, sparse,
// shattered, near-zero radius, and dimensions 1-3.
func TestUnitBallGridMatchesBruteFixed(t *testing.T) {
	for _, tc := range []struct {
		n, dim int
		radius float64
		seed   int64
	}{
		{100, 2, 0.15, 1},  // typical connected regime
		{100, 2, 0.02, 2},  // shattered into many components
		{80, 2, 0.9, 3},    // nearly complete
		{60, 1, 0.01, 4},   // 1-D, shattered
		{60, 1, 0.2, 5},    // 1-D, dense
		{70, 3, 0.25, 6},   // 3-D
		{50, 3, 0.05, 7},   // 3-D, shattered
		{40, 2, 0.0005, 8}, // all singletons: pure reconnection
		{2, 2, 0.5, 9},     // minimal
		{1, 2, 0.5, 10},    // single point
	} {
		pts := RandomPoints(tc.n, tc.dim, 1, tc.seed)
		got := UnitBallGraph(pts, tc.radius)
		want := UnitBallGraphBrute(pts, tc.radius)
		graphsIdentical(t, "unitball", got, want)
		if tc.n > 1 && !got.Connected() {
			t.Fatalf("n=%d dim=%d r=%v: not connected", tc.n, tc.dim, tc.radius)
		}
	}
}

// TestUnitBallGridMatchesBruteRandomized sweeps random (n, dim,
// radius) configurations, including clustered (non-uniform) point
// sets, and requires bit-identical output.
func TestUnitBallGridMatchesBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(150)
		dim := 1 + rng.Intn(3)
		seed := rng.Int63()
		pts := RandomPoints(n, dim, 1, seed)
		if trial%3 == 0 {
			// Clustered points: squash a random half into a small box so
			// cell occupancy is far from uniform.
			for i := 0; i < n/2; i++ {
				for d := 0; d < dim; d++ {
					pts.Coords[i*dim+d] = 0.9 + pts.Coords[i*dim+d]*0.05
				}
			}
		}
		radius := math.Pow(10, -2+2.5*rng.Float64()) // 0.01 .. ~3
		got := UnitBallGraph(pts, radius)
		want := UnitBallGraphBrute(pts, radius)
		graphsIdentical(t, "unitball(rand)", got, want)
	}
}

// kNearestBrute is the O(n) reference for cellGrid.kNearest: all
// positive-distance partners sorted by (d, j), truncated to k.
func kNearestBrute(pts *Points, i, k int) []pairCand {
	var all []pairCand
	for j := 0; j < pts.N(); j++ {
		if j == i {
			continue
		}
		if d := pts.Dist(i, j); d > 0 {
			all = append(all, pairCand{j: int32(j), d: d})
		}
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].d != all[y].d {
			return all[x].d < all[y].d
		}
		return all[x].j < all[y].j
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestKNearestMatchesBrute: the ring search must return exactly the k
// nearest points in (d, j) order for every query point.
func TestKNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		dim := 1 + rng.Intn(3)
		k := 1 + rng.Intn(8)
		pts := RandomPoints(n, dim, 1, rng.Int63())
		cg := newCellGrid(pts, spacingCellSize(pts))
		var got []pairCand
		for i := 0; i < n; i++ {
			got = cg.kNearest(i, k, got[:0])
			want := kNearestBrute(pts, i, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d dim=%d k=%d i=%d: %d neighbors, want %d",
					n, dim, k, i, len(got), len(want))
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("n=%d dim=%d k=%d i=%d: neighbor %d = %+v, want %+v",
						n, dim, k, i, x, got[x], want[x])
				}
			}
		}
	}
}

// TestNearestForeignMatchesBrute: the outward ring search must agree
// with a full scan under the (d, min, max) tuple order.
func TestNearestForeignMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(80)
		dim := 1 + rng.Intn(3)
		pts := RandomPoints(n, dim, 1, rng.Int63())
		// Random component structure.
		uf := newUnionFind(n)
		for x := 0; x < n/2; x++ {
			uf.union(rng.Intn(n), rng.Intn(n))
		}
		cg := newCellGrid(pts, spacingCellSize(pts))
		for i := 0; i < n; i++ {
			gotJ, gotD, gotOK := cg.nearestForeign(i, uf)
			wantJ, wantD := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if j == i || uf.find(j) == uf.find(i) {
					continue
				}
				d := pts.Dist(i, j)
				if wantJ < 0 || pairLess(i, j, d, wantJ, wantD) {
					wantJ, wantD = j, d
				}
			}
			if gotOK != (wantJ >= 0) || (gotOK && (gotJ != wantJ || gotD != wantD)) {
				t.Fatalf("n=%d dim=%d i=%d: got (%d,%v,%v), want (%d,%v)",
					n, dim, i, gotJ, gotD, gotOK, wantJ, wantD)
			}
		}
	}
}

// BenchmarkUnitBallGrid measures the spatial-hash geometric builder at
// bench scale (the 100k-point brute-force comparison lives in
// `lightnet bench -kind generators` and BENCH_generators.json — too
// slow for the test suite).
func BenchmarkUnitBallGrid(b *testing.B) {
	n := 20000
	pts := RandomPoints(n, 2, 1, 1)
	radius := ConnectivityRadius(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := UnitBallGraph(pts, radius)
		if g.N() != n {
			b.Fatal("bad graph")
		}
	}
}
