package lightnet

// Soak tests: the full constructions at 4k-vertex scale, skipped under
// -short. These catch quadratic blowups and verify the guarantees keep
// holding beyond the unit-test sizes.

import (
	"testing"

	"lightnet/internal/congest"
)

func TestSoakSLTLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	g := ErdosRenyi(4096, 12.0/4096, 50, 5)
	res, err := BuildSLT(g, 0, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	light, stretch, err := VerifySLT(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if light > 1+5/0.5 {
		t.Fatalf("lightness %v", light)
	}
	if stretch > 1+60*0.5 {
		t.Fatalf("stretch %v", stretch)
	}
	// Õ(√n+D) at n=4096: √n = 64.
	if res.Cost.Rounds > 400*(64+int64(g.HopDiameterApprox())) {
		t.Fatalf("rounds %d", res.Cost.Rounds)
	}
}

func TestSoakSpannerLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	g := ErdosRenyi(2048, 16.0/2048, 100, 6)
	res, err := BuildLightSpanner(g, 2, 0.25, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Exact stretch verification over all edges.
	maxS, _, err := VerifySpanner(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if maxS > 3*(1+4*0.25) {
		t.Fatalf("stretch %v", maxS)
	}
	if res.Lightness > 12*2*45.25/0.25 { // 12·k·n^{1/k}/ε at n=2048
		t.Fatalf("lightness %v", res.Lightness)
	}
}

func TestSoakNetLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	g := RandomGeometric(2048, 2, 7)
	scale := g.Eccentricity(0) / 8
	res, err := BuildNet(g, scale, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNet(g, res); err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 40 {
		t.Fatalf("iterations %d", res.Iterations)
	}
}

func TestSoakEngineBoruvkaLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	g := ErdosRenyi(2048, 10.0/2048, 20, 8)
	edges, w, err := MST(g)
	if err != nil {
		t.Fatal(err)
	}
	be, _, err := congest.RunMST(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(be) != len(edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(be), len(edges))
	}
	var bw float64
	for _, id := range be {
		bw += g.Edge(id).W
	}
	if diff := bw - w; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("weights differ: %v vs %v", bw, w)
	}
}
