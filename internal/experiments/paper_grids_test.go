package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests at tiny sizes for the committed paper grids under
// examples/grids/: each E-* table they hold must run end to end (with
// the files' own verify flags) and write one CSV per spec with one row
// per workload × size cell. The full-size runs are the grid files as
// committed.

// runPaperGrid loads examples/grids/<file>, keeps the specs whose
// construction is in keep (all when keep is empty), shrinks the sweep
// to sizes, runs it and checks the CSV layout.
func runPaperGrid(t *testing.T, file string, sizes []int, keep ...string) {
	t.Helper()
	grid, err := LoadGrid(filepath.Join("..", "..", "examples", "grids", file))
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) > 0 {
		var specs []Spec
		for _, s := range grid.Experiments {
			for _, c := range keep {
				if s.Construction == c {
					specs = append(specs, s)
				}
			}
		}
		grid.Experiments = specs
	}
	if len(grid.Experiments) == 0 {
		t.Fatalf("%s: no specs for constructions %v", file, keep)
	}
	grid.Sizes = sizes
	dir := t.TempDir()
	if err := RunGrid(grid, dir, nil); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "csv", "*.csv"))
	if err != nil || len(csvs) != len(grid.Experiments) {
		t.Fatalf("%s: want %d CSVs, got %d (%v)", file, len(grid.Experiments), len(csvs), err)
	}
	want := 1 + len(grid.Workloads)*len(grid.Sizes)*grid.Repeats
	for _, path := range csvs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(b), "\n"); lines != want {
			t.Fatalf("%s: want %d lines (rows+header), got %d", path, want, lines)
		}
	}
}

// TestSpannerTableSmoke: E-T1.1, the spanner specs of paper.json.
func TestSpannerTableSmoke(t *testing.T) {
	runPaperGrid(t, "paper.json", []int{64}, "spanner")
}

// TestSLTTableSmoke: E-T1.2, the slt and sltinv specs of paper.json.
func TestSLTTableSmoke(t *testing.T) {
	runPaperGrid(t, "paper.json", []int{64}, "slt", "sltinv")
}

// TestNetTableSmoke: E-T1.3; paper-nets.json verifies every net with
// nets.Verify, so a covering or separation violation fails the run.
func TestNetTableSmoke(t *testing.T) {
	runPaperGrid(t, "paper-nets.json", []int{64})
}

// TestDoublingTableSmoke: E-T1.4, paper-doubling.json.
func TestDoublingTableSmoke(t *testing.T) {
	runPaperGrid(t, "paper-doubling.json", []int{64})
}

// TestStructuralTablesSmoke: the KRY trade-off (E-KRY), the bucket and
// cluster-algorithm ablations (E-ABL-b, E-ABL-d) and the engine rows
// (E-ENG) that the committed grids hold. The tables without a grid are
// covered by their benchmark and test families (see README.md, "Paper
// experiments").
func TestStructuralTablesSmoke(t *testing.T) {
	runPaperGrid(t, "paper-kry.json", []int{64})
	runPaperGrid(t, "paper-ablations.json", []int{48})
	runPaperGrid(t, "paper-engine.json", []int{64})
}
