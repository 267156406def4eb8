package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightnet/internal/graph"
)

// identicalGraphs reports whether two graphs have identical edge lists.
func identicalGraphs(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for id := 0; id < a.M(); id++ {
		if a.Edge(graph.EdgeID(id)) != b.Edge(graph.EdgeID(id)) {
			return false
		}
	}
	return true
}

// TestScenarioLegacyCompat: parameterless legacy specs must rebuild
// exactly the graphs the pre-registry pipeline generated, so old grid
// CSVs stay reproducible.
func TestScenarioLegacyCompat(t *testing.T) {
	const n, seed = 96, 7
	side := isqrt(n)
	for _, tc := range []struct {
		spec string
		want *graph.Graph
	}{
		{"er", graph.ErdosRenyi(n, 12.0/float64(n), 50, seed)},
		{"geometric", graph.RandomGeometric(n, 2, seed)},
		{"grid", graph.Grid(side, side, 4, seed)},
		{"complete", graph.Complete(n, 1000, seed)},
		{"hard", graph.HardInstance(n, float64(n)*10, seed)},
		{"path", graph.Path(n, 1)},
	} {
		got, err := BuildWorkload(tc.spec, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if !identicalGraphs(got, tc.want) {
			t.Fatalf("%s: registry output differs from the legacy builder", tc.spec)
		}
	}
	// The grid side is ⌈√n⌉, so a non-square n rounds up: 18×18 at 300.
	g, err := BuildWorkload("grid", 300, seed)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 324 {
		t.Fatalf("grid at n=300 has %d vertices, want 324", g.N())
	}
}

// TestScenarioSpecParsing covers spec syntax, parameter merging and
// every rejection path.
func TestScenarioSpecParsing(t *testing.T) {
	s, p, err := ParseWorkload("ba:m=4,maxw=10")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ba" || p["m"] != "4" || p["maxw"] != "10" {
		t.Fatalf("parsed %s %v", s.Name, p)
	}
	if _, p, err := ParseWorkload("planted"); err != nil || p["k"] != "4" || p["pin"] != "" {
		t.Fatalf("defaults not merged: %v %v", p, err)
	}
	for _, bad := range []string{
		"mystery",       // unknown scenario
		"ba:q=3",        // unknown parameter
		"ba:m",          // not key=val
		"ba:m=",         // empty value
		"ba:m=three",    // non-numeric value
		"knn:k=2,zzz=1", // unknown second parameter
		"ba:m=2,m=3",    // repeated key
		"",              // empty spec
	} {
		if _, _, err := ParseWorkload(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestScenarioBuildRejections: parameter values that parse but violate
// a scenario's range contract must return an error from Build — never
// panic in the generator or hang the cell grid.
func TestScenarioBuildRejections(t *testing.T) {
	for _, bad := range []string{
		"er:p=1.5",          // probability out of range
		"er:maxw=0.5",       // weight below the min-weight-1 normalisation
		"er:maxw=-1",        // negative weight would panic in MustAddEdge
		"er:maxw=+Inf",      // parses as a float but is not a weight
		"path:w=0",          // zero weight
		"hard:heavy=-3",     // negative heavy weight
		"grid:maxw=0",       // zero weight
		"complete:maxw=0.2", // below 1
		"ba:m=0",            // no attachment edges
		"ba:maxw=-2",        // negative weight
		"planted:k=0",       // no clusters
		"planted:pin=2",     // probability out of range
		"planted:maxw=0",    // zero weight
		"knn:k=0",           // no neighbors
		"knn:dim=0",         // no dimensions
		"knn:dim=16",        // 3^16 cell probes per point would hang
		"geometric:dim=16",  // same
		"ubg:dim=16",        // same
		"ubg:radius=0",      // no edges possible, reconnect-only is a bug not a wish
		"ubg:radius=+Inf",   // infinite radius
		"lbfan:spoke=0.5",   // spokes below the unit arc weight
		"lbcycle:w=0",       // zero weight
		"lbbipartite:w=-1",  // negative weight
	} {
		if _, err := BuildWorkload(bad, 64, 1); err == nil {
			t.Fatalf("spec %q built successfully", bad)
		}
	}
}

// TestScenarioFamiliesRunnable: every registered scenario (except
// edgelist, which needs a file) builds a valid connected graph at
// small n, with parameters both defaulted and overridden.
func TestScenarioFamiliesRunnable(t *testing.T) {
	specs := []string{
		"er", "er:p=0.2,maxw=9",
		"geometric", "geometric:dim=3",
		"grid", "grid:maxw=2",
		"complete", "hard", "path", "path:w=3",
		"ubg", "ubg:dim=1,radius=0.2",
		"knn", "knn:k=3,dim=3",
		"ba", "ba:m=1", "ba:m=5,maxw=2",
		"planted", "planted:k=2,pin=0.4,pout=0.05",
		"lbfan", "lbfan:spoke=12",
		"lbcycle", "lbcycle:w=4",
		"lbbipartite", "lbbipartite:w=2",
	}
	covered := map[string]bool{"edgelist": true}
	for _, spec := range specs {
		s, _, err := ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		covered[s.Name] = true
		g, err := BuildWorkload(spec, 64, 3)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !g.Connected() {
			t.Fatalf("%s: not connected", spec)
		}
	}
	for _, s := range Scenarios() {
		if !covered[s.Name] {
			t.Fatalf("scenario %s not exercised by this test", s.Name)
		}
	}
}

// TestScenarioEdgelist: file-backed ingestion through the registry,
// including the connectivity requirement.
func TestScenarioEdgelist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("# tiny\n0 1 2\n1 2 1.5\n2 0 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := BuildWorkload("edgelist:path="+path, 999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("shape %d/%d, want 3/3", g.N(), g.M())
	}
	disc := filepath.Join(dir, "disc.txt")
	if err := os.WriteFile(disc, []byte("0 1\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWorkload("edgelist:path="+disc, 0, 1); err == nil {
		t.Fatal("disconnected edge list accepted")
	}
	if _, err := BuildWorkload("edgelist", 0, 1); err == nil {
		t.Fatal("edgelist without path accepted")
	}
}

// TestRunGridNewScenarios: the pipeline runs end to end on the new
// families and writes one CSV row per cell.
func TestRunGridNewScenarios(t *testing.T) {
	g := &Grid{
		Name:        "scenario-smoke",
		Seed:        3,
		Sizes:       []int{48},
		Workloads:   []string{"ba:m=2", "planted:k=2,pin=0.4,pout=0.05", "knn:k=3", "ubg:radius=0.3"},
		Experiments: []Spec{{Construction: "spanner", Verify: true}, {Construction: "engine", Program: "bfs"}},
	}
	dir := t.TempDir()
	if err := RunGrid(g, dir, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"01-spanner.csv", "02-engine-bfs.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 1+len(g.Workloads) {
			t.Fatalf("%s: %d lines, want %d", name, lines, 1+len(g.Workloads))
		}
	}
}

// TestGridAcceptsScenarioSpecs: grid validation must route workload
// specs through the registry — parameterised specs validate, unknown
// ones fail.
func TestGridAcceptsScenarioSpecs(t *testing.T) {
	ok := Grid{
		Sizes:       []int{48},
		Workloads:   []string{"ba:m=2", "knn:k=3", "planted:k=2"},
		Experiments: []Spec{{Construction: "spanner"}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Grid{
		Sizes:       []int{48},
		Workloads:   []string{"ba:bogus=1"},
		Experiments: []Spec{{Construction: "spanner"}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad workload spec accepted")
	}
}
