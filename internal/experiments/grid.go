package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lightnet/internal/benchfmt"
	"lightnet/internal/congest"
	"lightnet/internal/doubling"
	"lightnet/internal/graph"
	"lightnet/internal/metrics"
	"lightnet/internal/nets"
	"lightnet/internal/slt"
	"lightnet/internal/spanner"
	"lightnet/internal/store"
)

// Grid is the JSON experiment-grid format consumed by `lightnet bench`:
// a base seed, a repeat count, size and workload sweeps, and one Spec
// per experiment. Every cell of spec × workload × size × repeat becomes
// one CSV row; re-running the same grid reproduces every column except
// the trailing wall-time one.
type Grid struct {
	// Name labels the run in logs; defaults to "grid".
	Name string `json:"name"`
	// Seed is the base random seed; repeat r runs with Seed+r. Default 1.
	Seed int64 `json:"seed"`
	// Repeats is how many independent seeds each cell runs. Default 1.
	Repeats int `json:"repeats"`
	// Sizes are the vertex counts swept.
	Sizes []int `json:"sizes"`
	// Workloads are the scenario specs swept: any registered scenario
	// name, optionally with parameters — "er", "geometric:dim=3",
	// "ba:m=4,maxw=10" (see the registry in scenarios.go and the
	// catalog in docs/SCENARIOS.md).
	Workloads []string `json:"workloads"`
	// Workers configures the CONGEST engine pool for engine specs
	// (0 = GOMAXPROCS). Ledger-accounted constructions ignore it.
	Workers int `json:"workers"`
	// Store persists the run's inputs and outputs under dir/store/:
	// every generated workload graph as a *.csrz snapshot (reused by
	// later cells and resumed runs instead of regenerating) and every
	// spanner/slt/sltinv cell's result as a *.art artifact pinned to
	// its graph's digest, recorded in the manifest so -resume skips
	// re-serializing cells whose artifacts already exist. Faulted
	// cells produce no artifacts (their output is diagnostic).
	Store bool `json:"store,omitempty"`
	// Experiments are the specs to run.
	Experiments []Spec `json:"experiments"`
}

// Spec is one experiment: a construction plus its knobs.
type Spec struct {
	// Construction is one of the five headline constructions —
	// spanner | slt | sltinv | net | doubling — or "engine" to run a
	// genuine message-passing program (see Program).
	Construction string `json:"construction"`
	// K is the spanner stretch parameter. Default 2.
	K int `json:"k"`
	// Eps is ε for spanner, slt and doubling. Default 0.25.
	Eps float64 `json:"eps"`
	// Gamma is γ for the inverse SLT. Default 0.25.
	Gamma float64 `json:"gamma"`
	// Delta is δ for nets. Default 0.5.
	Delta float64 `json:"delta"`
	// Scale is the net scale Δ; 0 derives it from the graph (ecc/6).
	Scale float64 `json:"scale"`
	// Verify computes exact quality metrics (stretch; net covering and
	// separation). Expensive on large graphs. Default false.
	Verify bool `json:"verify"`
	// Program selects the engine program for construction "engine":
	// bfs | boruvka | mis | en17. Default bfs.
	Program string `json:"program"`
	// Mode selects accounted (default) or measured execution for
	// constructions that support both; "measured" runs the construction
	// as genuine message passing on the CONGEST engine. Supported by
	// "slt" and "spanner".
	Mode string `json:"mode"`
	// Cluster selects the spanner's per-bucket algorithm: en17 (default,
	// the paper's choice) | greedy | baswana (the distributable [BS07]
	// choice the measured pipeline executes — a measured spanner spec
	// implies it, and its accounted twin must set it explicitly for the
	// outputs to be comparable).
	Cluster string `json:"cluster"`
	// Quality computes the independent quality-oracle columns for
	// spanner specs: the greedy [ADD+93] baseline at t = 2k−1 (lightness
	// and exact stretch), the built spanner's lightness ratio against
	// it, and the p99 of the deterministic pair-sampled stretch
	// distribution. Implies exact stretch verification of the built
	// spanner. Oracle time is excluded from wall_ms. Default false.
	Quality bool `json:"quality"`
	// QualityPairs caps the deterministic pair sample behind
	// stretch_p99 (0 = default 2000; small graphs use exact all-pairs).
	QualityPairs int `json:"quality_pairs"`
	// Faults injects a deterministic fault plan into every cell of a
	// measured slt/spanner spec (see congest.FaultPlan): the engine
	// drops/duplicates/delays messages and crashes vertices per the
	// plan, the pipeline validates and retries each stage, and the
	// fault columns of the CSV are filled. Measured mode only — the
	// accounted path exchanges no messages.
	Faults *congest.FaultPlan `json:"faults,omitempty"`
	// StageRetries bounds the per-stage validator retries when Faults
	// is set (0: the builders' default of 3; negative: no retries).
	StageRetries int `json:"stage_retries,omitempty"`
}

// LoadGrid reads and validates a JSON grid file. Decoding is strict:
// an unknown key (a misspelt "verfy", say) is an error, not a knob
// silently left at its default.
func LoadGrid(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("experiments: parse %s: trailing data after the grid object", path)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return &g, nil
}

// Validate fills defaults and rejects malformed grids.
func (g *Grid) Validate() error {
	if g.Name == "" {
		g.Name = "grid"
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Repeats <= 0 {
		g.Repeats = 1
	}
	if len(g.Sizes) == 0 {
		return fmt.Errorf("no sizes")
	}
	for _, n := range g.Sizes {
		if n < 2 {
			return fmt.Errorf("size %d too small", n)
		}
	}
	if len(g.Workloads) == 0 {
		g.Workloads = []string{"er"}
	}
	for _, w := range g.Workloads {
		if err := ValidateWorkload(w); err != nil {
			return fmt.Errorf("workload %q: %w", w, err)
		}
	}
	if len(g.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	for i := range g.Experiments {
		s := &g.Experiments[i]
		switch s.Construction {
		case "spanner", "slt", "sltinv", "net", "doubling", "engine":
		default:
			return fmt.Errorf("experiment %d: unknown construction %q", i, s.Construction)
		}
		if s.K < 0 || s.Eps < 0 || s.Gamma < 0 || s.Delta < 0 || s.Scale < 0 {
			return fmt.Errorf("experiment %d: negative parameter (zero means default)", i)
		}
		if s.K == 0 {
			s.K = 2
		}
		if s.Eps == 0 {
			s.Eps = 0.25
		}
		if s.Gamma == 0 {
			s.Gamma = 0.25
		}
		if s.Delta == 0 {
			s.Delta = 0.5
		}
		if s.Program == "" {
			s.Program = "bfs"
		}
		if s.Construction == "engine" {
			switch s.Program {
			case "bfs", "boruvka", "mis", "en17":
			default:
				return fmt.Errorf("experiment %d: unknown engine program %q", i, s.Program)
			}
		}
		switch s.Mode {
		case "", "accounted":
		case "measured":
			if s.Construction != "slt" && s.Construction != "spanner" {
				return fmt.Errorf("experiment %d: mode \"measured\" supported only for constructions \"slt\" and \"spanner\"", i)
			}
		default:
			return fmt.Errorf("experiment %d: unknown mode %q", i, s.Mode)
		}
		switch s.Cluster {
		case "":
		case "en17", "greedy", "baswana":
			if s.Construction != "spanner" {
				return fmt.Errorf("experiment %d: cluster %q applies only to construction \"spanner\"", i, s.Cluster)
			}
		default:
			return fmt.Errorf("experiment %d: unknown cluster %q (en17|greedy|baswana)", i, s.Cluster)
		}
		if s.Construction == "spanner" && s.Mode == "measured" &&
			s.Cluster != "" && s.Cluster != "baswana" {
			return fmt.Errorf("experiment %d: measured spanner runs the baswana bucket clustering (got cluster %q)", i, s.Cluster)
		}
		if s.Quality && s.Construction != "spanner" {
			return fmt.Errorf("experiment %d: quality oracle columns apply only to construction \"spanner\"", i)
		}
		if s.QualityPairs < 0 {
			return fmt.Errorf("experiment %d: negative quality_pairs", i)
		}
		if s.QualityPairs == 0 {
			s.QualityPairs = 2000
		}
		if s.Faults != nil {
			if s.Mode != "measured" {
				return fmt.Errorf("experiment %d: faults require mode \"measured\" (the accounted path exchanges no messages)", i)
			}
			if s.Quality {
				return fmt.Errorf("experiment %d: quality oracle columns are not supported on faulted specs", i)
			}
			if err := s.Faults.Validate(0); err != nil {
				return fmt.Errorf("experiment %d: %w", i, err)
			}
		}
		if s.StageRetries != 0 && s.Faults == nil {
			return fmt.Errorf("experiment %d: stage_retries applies only with a faults block", i)
		}
	}
	return nil
}

// DefaultGrid is the five-headline-construction grid used when no file
// is given: one spec per Table 1 row, small sizes, two workloads.
func DefaultGrid() *Grid {
	g := &Grid{
		Name:      "headline",
		Seed:      1,
		Repeats:   2,
		Sizes:     []int{128, 256},
		Workloads: []string{"er", "geometric"},
		Experiments: []Spec{
			{Construction: "spanner", K: 2, Eps: 0.25, Verify: true},
			{Construction: "slt", Eps: 0.5, Verify: true},
			{Construction: "sltinv", Gamma: 0.25, Verify: true},
			{Construction: "net", Delta: 0.5},
			{Construction: "doubling", Eps: 0.5, Verify: true},
		},
	}
	if err := g.Validate(); err != nil {
		panic(err) // unreachable: the literal is valid
	}
	return g
}

// Row is one CSV row of the pipeline: a single construction run with
// its parameters, measured distributed cost, certified quality, and
// wall time. WallMS is deliberately the last column so that reruns can
// be compared modulo wall time.
type Row struct {
	Construction string
	Workload     string
	N, M         int
	Seed         int64
	Repeat       int
	Params       string
	Mode         string // accounted | measured
	Rounds       int64
	Messages     int64
	Size         int     // edges of the subgraph, or net points
	Lightness    float64 // NaN when not applicable
	Stretch      float64 // NaN when not verified / not applicable
	// Quality-oracle columns (Spec.Quality, spanner only; NaN renders
	// empty otherwise): the greedy [ADD+93] baseline's lightness and
	// exact stretch on the same graph, the built spanner's lightness
	// ratio against it, and the p99 of the deterministic pair-sampled
	// stretch distribution (metrics.PairStretchStats).
	GreedyLightness float64
	GreedyStretch   float64
	RatioVsGreedy   float64
	StretchP99      float64
	// GreedyEdges is the greedy baseline's edge count. It is reported
	// in BENCH_quality.json but is not a CSV column.
	GreedyEdges int
	// Fault columns (cells run under an active Spec.Faults plan;
	// rendered empty when Faulted is false): injected message faults,
	// extra stage attempts the validators forced, and the size of the
	// root's surviving component under crash-stop faults (= n when
	// nobody is permanently down). All deterministic — the fault stream
	// is a pure hash of the plan, so faulted CSVs reproduce too.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Retries    int
	Survivors  int
	Faulted    bool
	// Stages is the per-stage round breakdown ("stage:rounds;..."):
	// pipeline order for measured runs, sorted ledger labels for
	// accounted ones. Deterministic, so CSVs reproduce byte-for-byte.
	Stages string
	WallMS float64
}

// csvHeader matches Row.Record. The fault columns sit between the
// quality-oracle block and the stage breakdown so the identity and
// quality prefixes (fields 1–17) keep their positions — the CI column
// cuts rely on that.
var csvHeader = []string{
	"construction", "workload", "n", "m", "seed", "repeat", "params", "mode",
	"rounds", "messages", "size", "lightness", "stretch",
	"greedy_lightness", "greedy_stretch", "ratio_vs_greedy", "stretch_p99",
	"dropped", "duplicated", "delayed", "retries", "survivors",
	"stages", "wall_ms",
}

// Record renders the row as CSV fields. Floats use fixed precision so
// output is byte-reproducible; NaN renders empty.
func (r Row) Record() []string {
	f := func(x float64) string {
		if math.IsNaN(x) {
			return ""
		}
		return strconv.FormatFloat(x, 'f', 4, 64)
	}
	fi := func(x int64) string {
		if !r.Faulted {
			return ""
		}
		return strconv.FormatInt(x, 10)
	}
	return []string{
		r.Construction, r.Workload,
		strconv.Itoa(r.N), strconv.Itoa(r.M),
		strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Repeat), r.Params, r.Mode,
		strconv.FormatInt(r.Rounds, 10), strconv.FormatInt(r.Messages, 10),
		strconv.Itoa(r.Size), f(r.Lightness), f(r.Stretch),
		f(r.GreedyLightness), f(r.GreedyStretch), f(r.RatioVsGreedy), f(r.StretchP99),
		fi(r.Dropped), fi(r.Duplicated), fi(r.Delayed),
		fi(int64(r.Retries)), fi(int64(r.Survivors)),
		r.Stages,
		strconv.FormatFloat(r.WallMS, 'f', 3, 64),
	}
}

// stageBreakdown renders a measured pipeline's per-stage rounds in
// execution order.
func stageBreakdown(stages []congest.StageStats) string {
	parts := make([]string, len(stages))
	for i, s := range stages {
		parts[i] = fmt.Sprintf("%s:%d", s.Name, s.Stats.Rounds)
	}
	return strings.Join(parts, ";")
}

// ledgerBreakdown renders an accounted ledger's per-label rounds in the
// canonical sorted order (Ledger.Labels), keeping CSV output
// byte-reproducible.
func ledgerBreakdown(l *congest.Ledger) string {
	by := l.ByLabel()
	labels := l.Labels()
	parts := make([]string, len(labels))
	for i, label := range labels {
		parts[i] = fmt.Sprintf("%s:%d", label, by[label])
	}
	return strings.Join(parts, ";")
}

// runCell executes one grid cell and fills every Row column except the
// identity ones the caller owns. With wantArt (store-enabled runs,
// spanner/slt/sltinv only) it additionally packages the result as a
// store artifact — built from the same in-memory result, so emission
// costs no rebuild; the caller fills GraphDigest/N/M and serializes.
func runCell(spec Spec, g *graph.Graph, seed int64, workers int, wantArt bool) (Row, *store.Artifact, error) {
	row := Row{
		Lightness: math.NaN(), Stretch: math.NaN(), Mode: "accounted",
		GreedyLightness: math.NaN(), GreedyStretch: math.NaN(),
		RatioVsGreedy: math.NaN(), StretchP99: math.NaN(),
	}
	// The quality oracle runs after the wall-time capture: it certifies
	// the construction, it is not part of it.
	var quality func() error
	if spec.Construction == "engine" {
		row.Params = fmt.Sprintf("program=%s workers=%d", spec.Program, workers)
		row.Mode = "measured" // elementary programs are always measured
		start := time.Now()
		stats, size, err := runEngineCell(spec.Program, g, seed, workers)
		if err != nil {
			return row, nil, err
		}
		row.WallMS = float64(time.Since(start).Microseconds()) / 1000
		row.Rounds, row.Messages, row.Size = int64(stats.Rounds), stats.Messages, size
		row.Stages = fmt.Sprintf("%s:%d", spec.Program, stats.Rounds) // one-stage run
		return row, nil, nil
	}
	var art *store.Artifact
	// Only the ledger-accounted constructions need the hop-diameter
	// (two BFS traversals) and a ledger.
	d := g.HopDiameterApprox()
	led := congest.NewLedger()
	start := time.Now()
	switch spec.Construction {
	case "spanner":
		cluster := spec.Cluster
		if spec.Mode == "measured" {
			cluster = "baswana" // the measured pipeline's bucket algorithm
		}
		row.Params = fmt.Sprintf("k=%d eps=%g", spec.K, spec.Eps)
		if cluster != "" && cluster != "en17" {
			row.Params += " cluster=" + cluster
		}
		sopts := spanner.Options{Seed: seed, Ledger: led, HopDiam: d}
		switch cluster {
		case "greedy":
			sopts.Cluster = spanner.ClusterGreedy
		case "baswana":
			sopts.Cluster = spanner.ClusterBaswana
		}
		if spec.Mode == "measured" {
			row.Mode = "measured"
			sopts.Mode = spanner.Measured
			sopts.Workers = workers
			sopts.Faults = spec.Faults.Clone()
			sopts.StageRetries = spec.StageRetries
		}
		res, err := spanner.BuildLight(g, spec.K, spec.Eps, sopts)
		if err != nil {
			return row, nil, err
		}
		row.Size, row.Lightness = len(res.Edges), res.Lightness
		if res.Stages != nil {
			row.Stages = stageBreakdown(res.Stages) // pipeline order
		}
		if spec.Faults.Active() {
			row.Faulted = true
			row.Dropped, row.Duplicated, row.Delayed =
				res.Faults.Dropped, res.Faults.Duplicated, res.Faults.Delayed
			row.Retries, row.Survivors = res.PipelineRetries, res.Survivors
		}
		if spec.Verify {
			// Under crash-stop degradation the spanner covers the root's
			// surviving component only; certify it on that subgraph.
			target := g
			if res.Alive != nil {
				target = g.Subgraph(aliveEdgeIDs(g, res.Alive))
			}
			maxS, _, err := metrics.EdgeStretch(target, g.Subgraph(res.Edges))
			if err != nil {
				return row, nil, err
			}
			row.Stretch = maxS
		}
		if spec.Quality {
			quality = func() error {
				return fillQuality(&row, g, res, spec, seed)
			}
		}
		if wantArt {
			art = &store.Artifact{
				Kind: "spanner", K: spec.K, Eps: spec.Eps, Root: graph.NoVertex, Seed: seed,
				Edges:  res.Edges,
				Weight: res.Weight, MSTWeight: res.MSTWeight, Lightness: res.Lightness,
				Stages: storeStages(res.Stages),
			}
		}
	case "slt":
		row.Params = fmt.Sprintf("eps=%g", spec.Eps)
		sopts := slt.Options{Seed: seed, Ledger: led, HopDiam: d}
		if spec.Mode == "measured" {
			row.Mode = "measured"
			sopts.Mode = slt.Measured
			sopts.Workers = workers
			sopts.Faults = spec.Faults.Clone()
			sopts.StageRetries = spec.StageRetries
		}
		res, err := slt.Build(g, 0, spec.Eps, sopts)
		if err != nil {
			return row, nil, err
		}
		row.Size, row.Lightness = len(res.TreeEdges), res.Lightness
		if res.Stages != nil {
			row.Stages = stageBreakdown(res.Stages) // pipeline order
		}
		if spec.Faults.Active() {
			row.Faulted = true
			row.Dropped, row.Duplicated, row.Delayed =
				res.Faults.Dropped, res.Faults.Duplicated, res.Faults.Delayed
			row.Retries, row.Survivors = res.PipelineRetries, res.Survivors
		}
		if spec.Verify {
			if res.Alive != nil {
				// Degraded run: the tree spans the root's surviving
				// component only; certify root stretch on that subgraph
				// (lightness already comes vs the component's MST).
				stretch, err := degradedSLTStretch(g, res)
				if err != nil {
					return row, nil, err
				}
				row.Stretch = stretch
			} else {
				light, stretch, err := slt.Verify(g, res)
				if err != nil {
					return row, nil, err
				}
				row.Lightness, row.Stretch = light, stretch
			}
		}
		if wantArt {
			art = sltArtifact("slt", res, spec.Eps, seed)
		}
	case "sltinv":
		row.Params = fmt.Sprintf("gamma=%g", spec.Gamma)
		res, err := slt.BuildInverse(g, 0, spec.Gamma, slt.Options{Seed: seed, Ledger: led, HopDiam: d})
		if err != nil {
			return row, nil, err
		}
		row.Size, row.Lightness = len(res.TreeEdges), res.Lightness
		if spec.Verify {
			light, stretch, err := slt.Verify(g, res)
			if err != nil {
				return row, nil, err
			}
			row.Lightness, row.Stretch = light, stretch
		}
		if wantArt {
			art = sltArtifact("sltinv", res, spec.Gamma, seed)
		}
	case "net":
		scale := spec.Scale
		if scale == 0 {
			scale = g.Eccentricity(0) / 6
		}
		row.Params = fmt.Sprintf("scale=%.4g delta=%g", scale, spec.Delta)
		res, err := nets.Build(g, scale, spec.Delta, nets.Options{Seed: seed, Ledger: led, HopDiam: d})
		if err != nil {
			return row, nil, err
		}
		row.Size = len(res.Points)
		if spec.Verify {
			if err := nets.Verify(g, res.Points, res.Alpha, res.Beta); err != nil {
				return row, nil, err
			}
		}
	case "doubling":
		row.Params = fmt.Sprintf("eps=%g", spec.Eps)
		res, err := doubling.Build(g, spec.Eps, doubling.Options{Seed: seed, Ledger: led, HopDiam: d})
		if err != nil {
			return row, nil, err
		}
		row.Size, row.Lightness = len(res.Edges), res.Lightness
		if spec.Verify {
			maxS, _, err := metrics.EdgeStretch(g, g.Subgraph(res.Edges))
			if err != nil {
				return row, nil, err
			}
			row.Stretch = maxS
		}
	default:
		return row, nil, fmt.Errorf("unknown construction %q", spec.Construction)
	}
	row.WallMS = float64(time.Since(start).Microseconds()) / 1000
	row.Rounds, row.Messages = led.Rounds(), led.Messages()
	if row.Stages == "" {
		row.Stages = ledgerBreakdown(led) // sorted-label dump
	}
	if art != nil {
		art.Rounds, art.Messages = row.Rounds, row.Messages
		art.Measured = row.Mode == "measured"
	}
	if quality != nil {
		if err := quality(); err != nil {
			return row, nil, err
		}
	}
	return row, art, nil
}

// sltArtifact packages an SLT (or inverse-SLT) result for the store.
func sltArtifact(kind string, res *slt.Result, eps float64, seed int64) *store.Artifact {
	return &store.Artifact{
		Kind: kind, Eps: eps, Root: res.Source, Seed: seed,
		Edges:  res.TreeEdges,
		Parent: res.Parent, Dist: res.Dist,
		Weight: res.Weight, MSTWeight: res.MSTWeight, Lightness: res.Lightness,
		Stages: storeStages(res.Stages),
	}
}

// storeStages converts a measured pipeline's stage stats to the store's
// stage schema (nil for accounted runs).
func storeStages(stages []congest.StageStats) []store.Stage {
	if len(stages) == 0 {
		return nil
	}
	out := make([]store.Stage, len(stages))
	for i, s := range stages {
		out[i] = store.Stage{Name: s.Name, Rounds: int64(s.Stats.Rounds), Messages: s.Stats.Messages}
	}
	return out
}

// fillQuality computes the quality-oracle columns of a spanner row: the
// greedy [ADD+93] baseline at t = 2k−1 built independently on the same
// graph, exact per-edge stretch of both spanners, and the deterministic
// pair-sampled stretch tail. Every value is a pure function of
// (graph, spec, seed), so reruns reproduce the columns byte for byte and
// the CI quality gate can diff them exactly.
func fillQuality(row *Row, g *graph.Graph, res *spanner.Result, spec Spec, seed int64) error {
	t := float64(2*spec.K - 1)
	built := g.Subgraph(res.Edges)
	if math.IsNaN(row.Stretch) {
		maxS, _, err := metrics.EdgeStretch(g, built)
		if err != nil {
			return fmt.Errorf("quality: built stretch: %w", err)
		}
		row.Stretch = maxS
	}
	stats, err := metrics.PairStretchStats(g, built, spec.QualityPairs, seed)
	if err != nil {
		return fmt.Errorf("quality: pair stretch: %w", err)
	}
	row.StretchP99 = stats.P99
	greedyIDs, err := spanner.Greedy(g, t)
	if err != nil {
		return fmt.Errorf("quality: greedy oracle: %w", err)
	}
	gMax, _, err := metrics.EdgeStretch(g, g.Subgraph(greedyIDs))
	if err != nil {
		return fmt.Errorf("quality: greedy stretch: %w", err)
	}
	row.GreedyStretch, row.GreedyEdges = gMax, len(greedyIDs)
	row.GreedyLightness = metrics.Lightness(g, greedyIDs, res.MSTWeight)
	if row.GreedyLightness > 0 {
		row.RatioVsGreedy = row.Lightness / row.GreedyLightness
	}
	return nil
}

// QualityReport runs the quality oracle over the whole scenario
// registry and returns the BENCH_quality.json report: on every scenario
// at n=128, seed 1, the §5 spanner (k=2, ε=0.25) is built accounted
// with the distributable baswana bucket clustering and then measured,
// and each build gets fillQuality's columns through the grid's own
// runCell. The edgelist scenario reads the edge-list file at
// edgelistPath; its rows are keyed "edgelist" so the report does not
// depend on where the file lives.
func QualityReport(edgelistPath string) (*benchfmt.QualityReport, error) {
	const n, seed, k, eps, pairs = 128, 1, 2, 0.25, 2000
	specs := []Spec{
		{Construction: "spanner", K: k, Eps: eps, Cluster: "baswana", Quality: true, QualityPairs: pairs},
		{Construction: "spanner", K: k, Eps: eps, Mode: "measured", Quality: true, QualityPairs: pairs},
	}
	rep := &benchfmt.QualityReport{K: k, Eps: eps, N: n, Seed: seed, Pairs: pairs}
	for _, sc := range Scenarios() {
		spec := sc.Name
		if sc.Name == "edgelist" {
			spec = "edgelist:path=" + edgelistPath
		}
		g, err := BuildWorkload(spec, n, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec, err)
		}
		for _, s := range specs {
			row, _, err := runCell(s, g, seed, 0, false)
			if err != nil {
				return nil, fmt.Errorf("scenario %s, %s: %w", spec, row.Mode, err)
			}
			rep.Rows = append(rep.Rows, benchfmt.QualityRow{
				Scenario: sc.Name, Mode: row.Mode, N: g.N(), M: g.M(), Bound: 2*k - 1,
				Edges: row.Size, Lightness: row.Lightness,
				Stretch: row.Stretch, StretchP99: row.StretchP99,
				GreedyEdges: row.GreedyEdges, GreedyLightness: row.GreedyLightness,
				GreedyStretch: row.GreedyStretch, RatioVsGreedy: row.RatioVsGreedy,
			})
		}
	}
	return rep, nil
}

// aliveEdgeIDs lists the edges with both endpoints in the surviving
// component — the subgraph a degraded construction is certified on.
func aliveEdgeIDs(g *graph.Graph, alive []bool) []graph.EdgeID {
	var ids []graph.EdgeID
	for id, e := range g.Edges() {
		if alive[e.U] && alive[e.V] {
			ids = append(ids, graph.EdgeID(id))
		}
	}
	return ids
}

// degradedSLTStretch certifies a crash-degraded SLT: every survivor must
// be reachable in the tree, and the maximum root stretch is measured
// against exact shortest paths of the surviving subgraph.
func degradedSLTStretch(g *graph.Graph, res *slt.Result) (float64, error) {
	exact := g.Subgraph(aliveEdgeIDs(g, res.Alive)).Dijkstra(res.Source).Dist
	maxS := 1.0
	for v := 0; v < g.N(); v++ {
		if !res.Alive[v] || graph.Vertex(v) == res.Source {
			continue
		}
		if math.IsInf(res.Dist[v], 1) {
			return 0, fmt.Errorf("degraded slt: survivor %d unreachable in the tree", v)
		}
		if exact[v] > 0 {
			if s := res.Dist[v] / exact[v]; s > maxS {
				maxS = s
			}
		}
	}
	return maxS, nil
}

// runEngineCell runs one genuine message-passing program on the worker
// pool and returns its stats and output size.
func runEngineCell(program string, g *graph.Graph, seed int64, workers int) (congest.Stats, int, error) {
	switch program {
	case "boruvka":
		edges, stats, err := congest.RunBoruvkaWorkers(g, 0, seed, workers)
		return stats, len(edges), err
	case "mis":
		inMIS, stats, err := congest.RunLubyMISWorkers(g, seed, workers)
		size := 0
		for _, in := range inMIS {
			if in {
				size++
			}
		}
		return stats, size, err
	case "en17":
		edges, stats, err := congest.RunEN17SpannerWorkers(g, 2, seed, workers)
		return stats, len(edges), err
	default: // bfs
		parent, _, stats, err := congest.RunBFSWorkers(g, 0, seed, workers)
		size := 0
		for _, p := range parent {
			if p != graph.NoEdge {
				size++
			}
		}
		return stats, size, err
	}
}

// RunGrid executes every cell of the grid and writes a run folder:
// dir/grid.json (the resolved grid, for provenance), dir/csv/ with one
// CSV per experiment, dir/manifest.txt recording completed cells, and
// dir/logs/run.log mirroring the progress lines written to logw.
// Identical grids and seeds reproduce identical CSV bytes except the
// trailing wall_ms column.
func RunGrid(g *Grid, dir string, logw io.Writer) error {
	return RunGridResume(g, dir, logw, false)
}

// cellKey identifies one grid cell in the completion manifest.
func cellKey(name, workload string, n, repeat int) string {
	return fmt.Sprintf("%s|%s|%d|%d", name, workload, n, repeat)
}

// readManifest loads the completed-cell map of a prior run (absent
// file: empty map). Each line is a cell key, optionally followed by a
// tab and the run-relative path of the cell's artifact (store-enabled
// runs); bare lines from pre-store manifests parse as artifact-less.
func readManifest(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	done := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			cell, artifact, _ := strings.Cut(line, "\t")
			done[cell] = artifact
		}
	}
	return done, nil
}

// openAppend opens a run-folder file for appending (resume) or afresh.
func openAppend(path string, resume bool) (*os.File, error) {
	if resume {
		return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	}
	return os.Create(path)
}

// RunGridResume is RunGrid with checkpoint/resume: every completed cell
// is appended to dir/manifest.txt with its CSV row already flushed, so a
// killed run loses at most the in-flight cell. With resume true the run
// picks up a partial folder — done cells are skipped (their rows kept),
// orphan CSV rows without a manifest entry are pruned, and the remaining
// cells run in the canonical order, so a resumed run's CSVs equal a
// fresh run's modulo wall_ms. The folder must hold the same grid:
// dir/grid.json is compared against the resolved grid and a mismatch is
// an error (an absent grid.json simply starts fresh).
func RunGridResume(g *Grid, dir string, logw io.Writer, resume bool) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, sub := range []string{"csv", "logs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	resolved, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	resolved = append(resolved, '\n')
	gridPath := filepath.Join(dir, "grid.json")
	if resume {
		prev, err := os.ReadFile(gridPath)
		switch {
		case os.IsNotExist(err):
			resume = false // nothing to resume; run fresh
		case err != nil:
			return err
		case !bytes.Equal(prev, resolved):
			return fmt.Errorf("experiments: %s holds a different grid; -resume needs the folder the run was started in", gridPath)
		}
	}
	if err := os.WriteFile(gridPath, resolved, 0o644); err != nil {
		return err
	}
	done := map[string]string{}
	if resume {
		if done, err = readManifest(filepath.Join(dir, "manifest.txt")); err != nil {
			return err
		}
	}
	if g.Store {
		if err := os.MkdirAll(filepath.Join(dir, storeDirName), 0o755); err != nil {
			return err
		}
		// A done cell whose artifact vanished must rerun (and re-emit);
		// an artifact without a manifest line is the kill-window orphan
		// and is pruned, mirroring the CSVs' ≤1-orphan-row rule.
		dropCellsMissingArtifacts(dir, done)
		if err := pruneArtifacts(dir, done); err != nil {
			return err
		}
	}
	manifest, err := openAppend(filepath.Join(dir, "manifest.txt"), resume)
	if err != nil {
		return err
	}
	defer manifest.Close()
	logFile, err := openAppend(filepath.Join(dir, "logs", "run.log"), resume)
	if err != nil {
		return err
	}
	defer logFile.Close()
	if logw == nil {
		logw = io.Discard
	}
	log := io.MultiWriter(logw, logFile)

	fmt.Fprintf(log, "grid %s: %d experiments × %d workloads × %d sizes × %d repeats\n",
		g.Name, len(g.Experiments), len(g.Workloads), len(g.Sizes), g.Repeats)
	if resume && len(done) > 0 {
		fmt.Fprintf(log, "resuming: %d cells already done\n", len(done))
	}
	graphs := make(map[graphKey]cachedGraph)
	for i, spec := range g.Experiments {
		name := fmt.Sprintf("%02d-%s", i+1, spec.Construction)
		if spec.Construction == "engine" {
			name += "-" + spec.Program
		}
		if spec.Mode == "measured" {
			name += "-measured"
		}
		if err := runSpec(g, spec, name, dir, graphs, log, done, manifest); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	fmt.Fprintf(log, "done: output in %s\n", dir)
	return nil
}

// graphKey identifies one generated workload graph so specs sharing a
// grid reuse it instead of regenerating it.
type graphKey struct {
	kind string
	n    int
	seed int64
}

// cachedGraph is one workload graph held for reuse across cells; digest
// is its snapshot's content digest (empty when Grid.Store is off).
type cachedGraph struct {
	g      *graph.Graph
	digest string
}

// resumeCSV prepares one experiment's CSV for a (possibly resumed) run:
// rows of cells the manifest marks done are kept, orphan rows a killed
// run flushed without reaching the manifest are pruned, and the file is
// returned open for appending with the header already written.
func resumeCSV(path, name string, done map[string]string) (*os.File, error) {
	var kept [][]string
	if len(done) > 0 {
		if data, err := os.ReadFile(path); err == nil {
			records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if len(records) > 0 && strings.Join(records[0], ",") != strings.Join(csvHeader, ",") {
				return nil, fmt.Errorf("%s: header does not match the current schema; resume needs a folder written by the same version", path)
			}
			for _, rec := range records[1:] {
				// construction,workload,n,m,seed,repeat,... — the cell key
				// uses the spec name plus workload, n and repeat.
				nv, _ := strconv.Atoi(rec[2])
				rv, _ := strconv.Atoi(rec[5])
				if _, ok := done[cellKey(name, rec[1], nv, rv)]; ok {
					kept = append(kept, rec)
				}
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	if err := w.Write(csvHeader); err != nil {
		f.Close()
		return nil, err
	}
	for _, rec := range kept {
		if err := w.Write(rec); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// runSpec sweeps one spec over the grid and writes its CSV, flushing
// each row and checkpointing the cell in the manifest before moving on;
// cells already in done are skipped.
func runSpec(g *Grid, spec Spec, name, dir string, graphs map[graphKey]cachedGraph, log io.Writer, done map[string]string, manifest *os.File) error {
	f, err := resumeCSV(filepath.Join(dir, "csv", name+".csv"), name, done)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	// Artifacts exist for the paper's persistent objects only, and a
	// faulted cell's output is diagnostic, not servable.
	wantArt := g.Store && spec.Faults == nil &&
		(spec.Construction == "spanner" || spec.Construction == "slt" || spec.Construction == "sltinv")
	for _, kind := range g.Workloads {
		for _, n := range g.Sizes {
			for rep := 0; rep < g.Repeats; rep++ {
				cell := cellKey(name, kind, n, rep)
				if _, ok := done[cell]; ok {
					fmt.Fprintf(log, "%s %s n=%d repeat=%d: done (resumed)\n", name, kind, n, rep)
					continue
				}
				seed := g.Seed + int64(rep)
				key := graphKey{kind, n, seed}
				cached, ok := graphs[key]
				if !ok {
					if g.Store {
						gr, digest, err := loadOrBuildSnapshot(dir, key, log)
						if err != nil {
							return err
						}
						cached = cachedGraph{g: gr, digest: digest}
					} else {
						gr, err := BuildWorkload(kind, n, seed)
						if err != nil {
							return fmt.Errorf("%s n=%d seed=%d: %w", kind, n, seed, err)
						}
						cached = cachedGraph{g: gr}
					}
					graphs[key] = cached
				}
				gr := cached.g
				row, art, err := runCell(spec, gr, seed, g.Workers, wantArt)
				if err != nil {
					return fmt.Errorf("%s n=%d seed=%d: %w", kind, n, seed, err)
				}
				row.Construction = spec.Construction
				if spec.Construction == "engine" {
					row.Construction = "engine-" + spec.Program
				}
				row.Workload, row.N, row.M = kind, gr.N(), gr.M()
				row.Seed, row.Repeat = seed, rep
				// Serialize the artifact before the row it certifies: a
				// manifest entry then implies both a durable row and a
				// durable artifact file (emission is outside the cell's
				// wall_ms, which runCell already captured).
				artLine := ""
				if art != nil {
					rel := artifactRel(name, kind, n, rep)
					art.GraphDigest = cached.digest
					art.N, art.M = gr.N(), gr.M()
					if _, err := store.WriteArtifact(filepath.Join(dir, rel), art); err != nil {
						return err
					}
					artLine = "\t" + rel
				}
				if err := w.Write(row.Record()); err != nil {
					return err
				}
				// Checkpoint: flush the row, then record the cell. A kill
				// between the two leaves an orphan row (and artifact) that
				// the next resume prunes; a manifest entry therefore
				// implies durable output.
				w.Flush()
				if err := w.Error(); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(manifest, "%s%s\n", cell, artLine); err != nil {
					return err
				}
				fmt.Fprintf(log, "%s %s n=%d repeat=%d: rounds=%d messages=%d size=%d (%.1fms)\n",
					name, kind, n, rep, row.Rounds, row.Messages, row.Size, row.WallMS)
			}
		}
	}
	return f.Close()
}
