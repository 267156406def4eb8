package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lightnet/internal/congest"
)

func TestLoadGridDefaults(t *testing.T) {
	g, err := LoadGrid(filepath.Join("testdata", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "testdata-quick" || g.Seed != 7 || g.Repeats != 2 {
		t.Fatalf("grid header mismatch: %+v", g)
	}
	if len(g.Experiments) != 6 {
		t.Fatalf("want 6 experiments, got %d", len(g.Experiments))
	}
	// Defaults must be filled for knobs the file omits.
	if g.Experiments[2].Gamma != 0.25 || g.Experiments[2].K != 2 {
		t.Fatalf("defaults not applied: %+v", g.Experiments[2])
	}
	if g.Experiments[5].Program != "boruvka" {
		t.Fatalf("engine program not parsed: %+v", g.Experiments[5])
	}
}

// TestCommittedGridsLoad: every grid under examples/grids/ parses and
// validates, including the ones that only run nightly or by hand.
func TestCommittedGridsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "grids", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no grids found under examples/grids/")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			if _, err := LoadGrid(path); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLoadGridRejectsUnknownKeys: a misspelt key fails the load with an
// error naming it, instead of leaving the knob at its default.
func TestLoadGridRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"sizes": [32], "experiments": [{"construction": "spanner", "verfy": true}]}`, "verfy"},
		{`{"size": [32], "experiments": [{"construction": "spanner"}]}`, "size"},
		{`{"sizes": [32], "experiments": [{"construction": "slt", "mode": "measured", "faults": {"dorp": 0.1}}]}`, "dorp"},
	} {
		path := filepath.Join(t.TempDir(), "grid.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadGrid(path)
		if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Fatalf("grid with key %q: err = %v, want an error naming it", tc.key, err)
		}
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	body := `{"sizes": [32], "experiments": [{"construction": "spanner"}]} {}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGrid(path); err == nil {
		t.Fatal("grid with trailing data loaded")
	}
}

func TestGridValidateRejects(t *testing.T) {
	bad := []Grid{
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "nope"}}},
		{Experiments: []Spec{{Construction: "spanner"}}},
		{Sizes: []int{64}},
		{Sizes: []int{64}, Workloads: []string{"mystery"},
			Experiments: []Spec{{Construction: "spanner"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "engine", Program: "nope"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "net", Mode: "measured"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt", Mode: "nope"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "spanner", Cluster: "nope"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt", Cluster: "baswana"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "spanner", Mode: "measured", Cluster: "en17"}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt", Quality: true}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "spanner", Quality: true, QualityPairs: -1}}},
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt",
			Faults: &congest.FaultPlan{Drop: 0.1}}}}, // faults need measured mode
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt", Mode: "measured",
			Faults: &congest.FaultPlan{Drop: 2}}}}, // malformed plan
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "spanner", Mode: "measured", Quality: true,
			Faults: &congest.FaultPlan{Drop: 0.1}}}}, // quality oracle on a faulted spec
		{Sizes: []int{64}, Experiments: []Spec{{Construction: "slt", Mode: "measured",
			StageRetries: 5}}}, // stage_retries without faults
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Fatalf("grid %d accepted: %+v", i, bad[i])
		}
	}
}

// stripWallTime removes the trailing wall_ms field of every CSV line so
// reruns can be compared byte-for-byte on the deterministic columns.
func stripWallTime(t *testing.T, csv string) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	for i, line := range lines {
		cut := strings.LastIndex(line, ",")
		if cut < 0 {
			t.Fatalf("line %d has no fields: %q", i, line)
		}
		lines[i] = line[:cut]
	}
	return strings.Join(lines, "\n")
}

// TestRunGridReproducible: the pipeline's core guarantee — the same
// grid and seed produce identical CSV content modulo the wall-time
// column, and the run folder has the documented layout.
func TestRunGridReproducible(t *testing.T) {
	grid, err := LoadGrid(filepath.Join("testdata", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := RunGrid(grid, dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"grid.json", filepath.Join("logs", "run.log")} {
		if _, err := os.Stat(filepath.Join(dirs[0], name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
	csvs, err := filepath.Glob(filepath.Join(dirs[0], "csv", "*.csv"))
	if err != nil || len(csvs) != len(grid.Experiments) {
		t.Fatalf("want %d CSVs, got %d (%v)", len(grid.Experiments), len(csvs), err)
	}
	for _, path := range csvs {
		rel, _ := filepath.Rel(dirs[0], path)
		a, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], rel))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stripWallTime(t, string(a)), stripWallTime(t, string(b)); got != want {
			t.Fatalf("%s not reproducible:\nrun1:\n%s\nrun2:\n%s", rel, got, want)
		}
		if lines := strings.Count(string(a), "\n"); lines != 1+len(grid.Workloads)*len(grid.Sizes)*grid.Repeats {
			t.Fatalf("%s: want %d rows+header, got %d lines", rel,
				len(grid.Workloads)*len(grid.Sizes)*grid.Repeats, lines)
		}
	}
}

// TestGridMeasuredSLT: a grid sweeping the same SLT spec in both modes
// writes a mode column and per-stage breakdown, and the measured rows
// certify the identical tree (size, lightness, stretch) as the
// accounted ones.
func TestGridMeasuredSLT(t *testing.T) {
	grid := &Grid{
		Seed: 3, Sizes: []int{48}, Workloads: []string{"er"},
		Experiments: []Spec{
			{Construction: "slt", Eps: 0.5, Verify: true},
			{Construction: "slt", Eps: 0.5, Verify: true, Mode: "measured"},
		},
	}
	dir := t.TempDir()
	if err := RunGrid(grid, dir, nil); err != nil {
		t.Fatal(err)
	}
	read := func(name string) [][]string {
		data, err := os.ReadFile(filepath.Join(dir, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			rows = append(rows, strings.Split(line, ","))
		}
		return rows
	}
	acc := read("01-slt.csv")
	mea := read("02-slt-measured.csv")
	col := func(name string) int {
		for i, h := range acc[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	modeC, stagesC := col("mode"), col("stages")
	for r := 1; r < len(acc); r++ {
		if acc[r][modeC] != "accounted" || mea[r][modeC] != "measured" {
			t.Fatalf("mode column wrong: %q vs %q", acc[r][modeC], mea[r][modeC])
		}
		if !strings.Contains(mea[r][stagesC], "mst:") || !strings.Contains(mea[r][stagesC], "final-spt:") {
			t.Fatalf("measured stage breakdown missing: %q", mea[r][stagesC])
		}
		if !strings.Contains(acc[r][stagesC], "sssp/approx-spt:") {
			t.Fatalf("accounted label breakdown missing: %q", acc[r][stagesC])
		}
		// Identical trees: size, lightness and verified stretch agree.
		for _, name := range []string{"size", "lightness", "stretch"} {
			c := col(name)
			if acc[r][c] != mea[r][c] {
				t.Fatalf("row %d: %s differs between modes: %q vs %q", r, name, acc[r][c], mea[r][c])
			}
		}
	}
}

// TestGridMeasuredSpanner mirrors the SLT measured-grid test for the §5
// spanner: an accounted baswana spec and a measured spec must produce
// identical identity/quality columns, with a per-bucket stage breakdown
// on the measured rows — exactly the invariant the CI measured smoke
// enforces on examples/grids/measured.json.
func TestGridMeasuredSpanner(t *testing.T) {
	grid := &Grid{
		Seed: 3, Sizes: []int{48}, Workloads: []string{"er"},
		Experiments: []Spec{
			{Construction: "spanner", K: 2, Eps: 0.25, Verify: true, Cluster: "baswana"},
			{Construction: "spanner", K: 2, Eps: 0.25, Verify: true, Mode: "measured"},
		},
	}
	dir := t.TempDir()
	if err := RunGrid(grid, dir, nil); err != nil {
		t.Fatal(err)
	}
	read := func(name string) [][]string {
		data, err := os.ReadFile(filepath.Join(dir, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			rows = append(rows, strings.Split(line, ","))
		}
		return rows
	}
	acc := read("01-spanner.csv")
	mea := read("02-spanner-measured.csv")
	col := func(name string) int {
		for i, h := range acc[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	modeC, stagesC, paramsC := col("mode"), col("stages"), col("params")
	for r := 1; r < len(acc); r++ {
		if acc[r][modeC] != "accounted" || mea[r][modeC] != "measured" {
			t.Fatalf("mode column wrong: %q vs %q", acc[r][modeC], mea[r][modeC])
		}
		if acc[r][paramsC] != mea[r][paramsC] {
			t.Fatalf("params differ: %q vs %q", acc[r][paramsC], mea[r][paramsC])
		}
		for _, stage := range []string{"mst:", "mst-weight-up:", "bucket-"} {
			if !strings.Contains(mea[r][stagesC], stage) {
				t.Fatalf("measured stage breakdown missing %q: %q", stage, mea[r][stagesC])
			}
		}
		if !strings.Contains(acc[r][stagesC], "spanner/bucket-baswana:") {
			t.Fatalf("accounted label breakdown missing: %q", acc[r][stagesC])
		}
		// Identical spanners: size, lightness and verified stretch agree.
		for _, name := range []string{"size", "lightness", "stretch"} {
			c := col(name)
			if acc[r][c] != mea[r][c] {
				t.Fatalf("row %d: %s differs between modes: %q vs %q", r, name, acc[r][c], mea[r][c])
			}
		}
	}
}

// TestDefaultGridRuns: the built-in grid covers the five headline
// constructions and validates.
func TestDefaultGridRuns(t *testing.T) {
	g := DefaultGrid()
	want := map[string]bool{"spanner": false, "slt": false, "sltinv": false, "net": false, "doubling": false}
	for _, s := range g.Experiments {
		want[s.Construction] = true
	}
	for c, seen := range want {
		if !seen {
			t.Fatalf("default grid misses construction %s", c)
		}
	}
}

// TestGridQualityColumns: a quality-enabled spanner spec fills the four
// oracle columns with parseable values honouring the oracle's own
// invariants, quality-less rows leave them empty, and the adversarial
// lbcycle workload pins ratio_vs_greedy to exactly 1 (any t < n-1
// spanner of a uniform cycle is the whole cycle, and so is greedy).
func TestGridQualityColumns(t *testing.T) {
	grid := &Grid{
		Seed: 3, Sizes: []int{48}, Workloads: []string{"lbcycle", "er"},
		Experiments: []Spec{
			{Construction: "spanner", K: 2, Eps: 0.25, Verify: true, Quality: true, Cluster: "baswana"},
			{Construction: "spanner", K: 2, Eps: 0.25},
		},
	}
	dir := t.TempDir()
	if err := RunGrid(grid, dir, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "csv", "01-spanner.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		rows = append(rows, strings.Split(line, ","))
	}
	col := func(name string) int {
		for i, h := range rows[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	wl := col("workload")
	gl, gs := col("greedy_lightness"), col("greedy_stretch")
	ratio, p99 := col("ratio_vs_greedy"), col("stretch_p99")
	stretch := col("stretch")
	parse := func(r int, c int) float64 {
		v, err := strconv.ParseFloat(rows[r][c], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %q not numeric: %v", r, c, rows[r][c], err)
		}
		return v
	}
	for r := 1; r < len(rows); r++ {
		if parse(r, gs) > 3 {
			t.Fatalf("row %d: greedy stretch %q exceeds its own bound 3", r, rows[r][gs])
		}
		if parse(r, p99) > parse(r, stretch)+1e-9 {
			t.Fatalf("row %d: p99 %q above max stretch %q", r, rows[r][p99], rows[r][stretch])
		}
		if parse(r, gl) < 1 {
			t.Fatalf("row %d: greedy lightness %q below 1", r, rows[r][gl])
		}
		if rows[r][wl] == "lbcycle" && rows[r][ratio] != "1.0000" {
			t.Fatalf("lbcycle ratio_vs_greedy %q, want exactly 1.0000", rows[r][ratio])
		}
	}
	// The quality-less experiment leaves the oracle columns empty.
	data2, err := os.ReadFile(filepath.Join(dir, "csv", "02-spanner.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data2)), "\n") {
		if i == 0 {
			continue
		}
		f := strings.Split(line, ",")
		for _, c := range []int{gl, gs, ratio, p99} {
			if f[c] != "" {
				t.Fatalf("quality-less row %d has oracle column value %q", i, f[c])
			}
		}
	}
}

// TestGridFaultColumns: a faulted measured spec fills the five fault
// columns (deterministically — the whole faulted grid reproduces modulo
// wall_ms), a crash spec reports a degraded survivor count, and
// fault-free rows leave the columns empty.
func TestGridFaultColumns(t *testing.T) {
	grid := &Grid{
		Seed: 3, Sizes: []int{40}, Workloads: []string{"er"},
		Experiments: []Spec{
			{Construction: "slt", Eps: 0.5, Verify: true, Mode: "measured",
				Faults:       &congest.FaultPlan{Seed: 9, Drop: 0.002, Duplicate: 0.002, Delay: 0.01, MaxDelay: 2},
				StageRetries: 25},
			{Construction: "spanner", K: 2, Eps: 0.25, Verify: true, Mode: "measured",
				Faults: &congest.FaultPlan{Crashes: []congest.Crash{{Vertex: 7}}}},
			{Construction: "slt", Eps: 0.5},
		},
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := RunGrid(grid, dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	read := func(dir, name string) [][]string {
		data, err := os.ReadFile(filepath.Join(dir, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			rows = append(rows, strings.Split(line, ","))
		}
		return rows
	}
	faulted := read(dirs[0], "01-slt-measured.csv")
	if got, want := strings.Join(faulted[0], ","), strings.Join(csvHeader, ","); got != want {
		t.Fatalf("header mismatch:\ngot  %s\nwant %s", got, want)
	}
	col := func(name string) int {
		for i, h := range faulted[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	drC, duC, deC := col("dropped"), col("duplicated"), col("delayed")
	reC, suC := col("retries"), col("survivors")
	parse := func(rows [][]string, r, c int) int64 {
		v, err := strconv.ParseInt(rows[r][c], 10, 64)
		if err != nil {
			t.Fatalf("row %d col %d: %q not an integer: %v", r, c, rows[r][c], err)
		}
		return v
	}
	for r := 1; r < len(faulted); r++ {
		if parse(faulted, r, drC)+parse(faulted, r, duC)+parse(faulted, r, deC) == 0 {
			t.Fatalf("faulted row %d records no injected faults", r)
		}
		if parse(faulted, r, suC) != 40 {
			t.Fatalf("faulted row %d survivors %q, want 40 (no crashes)", r, faulted[r][suC])
		}
		if parse(faulted, r, reC) < 0 {
			t.Fatalf("faulted row %d negative retries", r)
		}
	}
	crashed := read(dirs[0], "02-spanner-measured.csv")
	for r := 1; r < len(crashed); r++ {
		if s := parse(crashed, r, suC); s >= 40 || s < 2 {
			t.Fatalf("crash row %d survivors %d, want a degraded count in [2,40)", r, s)
		}
	}
	clean := read(dirs[0], "03-slt.csv")
	for r := 1; r < len(clean); r++ {
		for _, c := range []int{drC, duC, deC, reC, suC} {
			if clean[r][c] != "" {
				t.Fatalf("fault-free row %d has fault column value %q", r, clean[r][c])
			}
		}
	}
	// The faulted grid reproduces byte-for-byte modulo wall_ms.
	for _, name := range []string{"01-slt-measured.csv", "02-spanner-measured.csv"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		if stripWallTime(t, string(a)) != stripWallTime(t, string(b)) {
			t.Fatalf("%s not reproducible under faults", name)
		}
	}
}

// TestRunGridResume: kill-and-resume durability — a partial run (its
// manifest missing the cells a kill would lose, one orphan CSV row
// flushed but unrecorded) completes under resume without recomputing
// finished cells, and the resumed CSVs equal a fresh run's modulo
// wall_ms.
func TestRunGridResume(t *testing.T) {
	grid := &Grid{
		Seed: 3, Sizes: []int{32, 48}, Workloads: []string{"er"},
		Experiments: []Spec{
			{Construction: "slt", Eps: 0.5},
			{Construction: "spanner", K: 2, Eps: 0.25},
		},
	}
	ref, dir := t.TempDir(), t.TempDir()
	if err := RunGrid(grid, ref, nil); err != nil {
		t.Fatal(err)
	}
	if err := RunGrid(grid, dir, nil); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: drop the last manifest entry (its CSV row stays
	// behind as an orphan) and delete the second spec's CSV entirely (as
	// if the run never got there).
	manifest := filepath.Join(dir, "manifest.txt")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	wantCells := len(lines)
	firstSpec := lines[:len(lines)/2]
	if err := os.WriteFile(manifest, []byte(strings.Join(firstSpec[:len(firstSpec)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "csv", "02-spanner.csv")); err != nil {
		t.Fatal(err)
	}
	// Record the surviving rows: resume must keep them byte-identical
	// (wall_ms included — kept cells are not recomputed).
	before, err := os.ReadFile(filepath.Join(dir, "csv", "01-slt.csv"))
	if err != nil {
		t.Fatal(err)
	}
	keptRows := strings.Split(strings.TrimSpace(string(before)), "\n")[:len(firstSpec)] // header + all but the orphan
	var log strings.Builder
	if err := RunGridResume(grid, dir, &log, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "done (resumed)") {
		t.Fatal("resume log records no skipped cells")
	}
	after, err := os.ReadFile(filepath.Join(dir, "csv", "01-slt.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(string(after)), "\n")
	for i, want := range keptRows {
		if got[i] != want {
			t.Fatalf("kept row %d was recomputed:\ngot  %s\nwant %s", i, got[i], want)
		}
	}
	for _, name := range []string{"01-slt.csv", "02-spanner.csv"} {
		a, err := os.ReadFile(filepath.Join(ref, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "csv", name))
		if err != nil {
			t.Fatal(err)
		}
		if stripWallTime(t, string(a)) != stripWallTime(t, string(b)) {
			t.Fatalf("%s: resumed run differs from a fresh one", name)
		}
	}
	data, err = os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(string(data)), "\n")); n != wantCells {
		t.Fatalf("manifest has %d cells after resume, want %d", n, wantCells)
	}
	// A different grid must not resume into the same folder.
	other := *grid
	other.Seed = 4
	if err := RunGridResume(&other, dir, nil, true); err == nil {
		t.Fatal("resume accepted a mismatched grid")
	}
	// Resume into an empty folder simply runs fresh.
	if err := RunGridResume(grid, t.TempDir(), nil, true); err != nil {
		t.Fatalf("resume into an empty folder: %v", err)
	}
}
