package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lightnet"
	"lightnet/internal/benchfmt"
	"lightnet/internal/congest"
	"lightnet/internal/experiments"
	"lightnet/internal/graph"
	"lightnet/internal/profiling"
)

// kindFlags names the bench flags that belong to one kind only: passing
// one with another kind is an error, not a knob silently ignored.
var kindFlags = []struct{ flag, kind string }{
	{"grid", "grid"}, {"resume", "grid"}, {"pipeline-n", "engine"}, {"million", "generators"},
}

// runBench is the one bench front door. -kind grid (the default) sweeps
// an experiment grid into a run folder; -kind engine, generators and
// quality write the BENCH_<kind>.json report that cmd/benchdiff gates
// against the committed baseline of the same name.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	kind := fs.String("kind", "grid", "grid (experiment sweep) | engine | generators | quality (BENCH_<kind>.json reports)")
	gridPath := fs.String("grid", "", "grid: JSON experiment-grid file (default: built-in headline grid)")
	out := fs.String("out", "", "grid: output folder (default bench-<timestamp>); other kinds: report path (default BENCH_<kind>.json)")
	resume := fs.Bool("resume", false, "grid: resume a killed run: skip the cells -out's manifest marks done")
	pipelineN := fs.Int("pipeline-n", 0, "engine: also measure the single-run knn pipelines at this n (0 = skip; the committed baseline has 1000000)")
	million := fs.Bool("million", true, "generators: also record the grid-only 1M-point build (needs a few GB)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measurement; grid runs put relative paths in the run folder")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the measurement; grid runs put relative paths in the run folder")
	tracePath := fs.String("trace", "", "write a runtime execution trace of the measurement; grid runs put relative paths in the run folder")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch *kind {
	case "grid", "engine", "generators", "quality":
	default:
		return fmt.Errorf("unknown -kind %q (grid|engine|generators|quality)", *kind)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, kf := range kindFlags {
		if set[kf.flag] && *kind != kf.kind {
			return fmt.Errorf("-%s applies only to -kind %s", kf.flag, kf.kind)
		}
	}
	if *pipelineN < 0 {
		return fmt.Errorf("-pipeline-n %d: want 0 (skip) or a vertex count", *pipelineN)
	}

	path := *out
	if path == "" && *kind != "grid" {
		path = "BENCH_" + *kind + ".json"
	}
	inRun := func(p string) string { return p }
	var work func() error
	switch *kind {
	case "grid":
		if *resume && path == "" {
			return errors.New("-resume needs -out: the folder of the run to pick up")
		}
		grid := experiments.DefaultGrid()
		if *gridPath != "" {
			var err error
			if grid, err = experiments.LoadGrid(*gridPath); err != nil {
				return err
			}
		}
		if path == "" {
			path = "bench-" + time.Now().Format("20060102-150405")
		}
		// Profiles live next to the CSVs they explain: a relative profile
		// path is resolved inside the run folder, so the sweep's artifacts
		// travel as one directory.
		if err := os.MkdirAll(path, 0o755); err != nil {
			return err
		}
		inRun = func(p string) string {
			if p == "" || filepath.IsAbs(p) {
				return p
			}
			return filepath.Join(path, p)
		}
		work = func() error {
			if err := experiments.RunGridResume(grid, path, os.Stdout, *resume); err != nil {
				return err
			}
			fmt.Printf("run folder: %s (csv/ per experiment, logs/run.log, grid.json)\n", path)
			return nil
		}
	case "engine":
		work = func() error { return benchEngine(path, *pipelineN) }
	case "generators":
		work = func() error { return benchGenerators(path, *million) }
	case "quality":
		work = func() error { return benchQuality(path) }
	}
	stopProf, err := profiling.Start(inRun(*cpuprofile), inRun(*memprofile), inRun(*tracePath))
	if err != nil {
		return err
	}
	err = work()
	if perr := stopProf(); err == nil {
		err = perr
	}
	return err
}

// engineBaseline is the pre-refactor engine (commit 986341d: per-message
// heap allocation, full edge/vertex scans per round, map-keyed
// per-neighbor program state), measured on the same workload and host
// class with go test -bench BenchmarkEngineWorkers/workers=1 -benchmem.
var engineBaseline = benchfmt.Measurement{
	Commit:      "986341d",
	NsPerOp:     55582765,
	RoundsPerOp: 13,
	NsPerRound:  55582765.0 / 13,
	AllocsPerOp: 254142,
	BytesPerOp:  27322368,
	Messages:    101225,
}

// benchEngine writes the engine report: the CONGEST engine's hot path
// on the canonical 2048-vertex workload (the Luby MIS run of
// BenchmarkEngineWorkers: ErdosRenyi(2048, 24/2048, 9, seed 1), engine
// seed 3, workers=1) next to the frozen baseline, and the full
// measured-mode SLT and spanner pipelines on the same graph. With
// pipelineN > 0 it adds single-run pipeline datapoints on knn at that n
// (the committed baseline's are at n=10⁶; benchdiff refuses entries
// whose workload tag names another n).
func benchEngine(out string, pipelineN int) error {
	g := graph.ErdosRenyi(2048, 24.0/2048, 9, 1)
	const workload = "Luby MIS on ErdosRenyi(n=2048, p=24/n, maxW=9, seed=1), " +
		"engine seed 3, workers=1 (the BenchmarkEngineWorkers workload)"
	// One reference run for the round/message counts (deterministic:
	// fixed seeds, worker count does not change results).
	_, stats, err := congest.RunLubyMISWorkers(g, 3, 1)
	if err != nil {
		return err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := congest.RunLubyMISWorkers(g, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	after := benchfmt.Measurement{
		Commit:      "HEAD",
		Workload:    workload,
		NsPerOp:     res.NsPerOp(),
		RoundsPerOp: stats.Rounds,
		NsPerRound:  float64(res.NsPerOp()) / float64(stats.Rounds),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Messages:    stats.Messages,
	}
	rep := benchfmt.EngineReport{
		Workload: workload, Before: &engineBaseline, After: after,
		SpeedupNsPerRound: engineBaseline.NsPerRound / after.NsPerRound,
	}
	if rep.SLTPipeline, err = measurePipeline("slt-measured", g); err != nil {
		return err
	}
	if rep.SpannerPipeline, err = measurePipeline("spanner-measured", g); err != nil {
		return err
	}
	if pipelineN > 0 {
		big, err := experiments.BuildWorkload("knn", pipelineN, 1)
		if err != nil {
			return err
		}
		if rep.SLTPipeline1M, err = measurePipelineOnce("slt-measured", big); err != nil {
			return err
		}
		if rep.SpannerPipeline1M, err = measurePipelineOnce("spanner-measured", big); err != nil {
			return err
		}
	}
	if err := benchfmt.WriteFile(out, rep); err != nil {
		return err
	}
	fmt.Printf("workload: %s\nns/round: %.0f -> %.0f (%.2fx)\nallocs/op: %d -> %d\n",
		rep.Workload, engineBaseline.NsPerRound, after.NsPerRound, rep.SpeedupNsPerRound,
		engineBaseline.AllocsPerOp, after.AllocsPerOp)
	for _, p := range []*benchfmt.Measurement{rep.SLTPipeline1M, rep.SpannerPipeline1M} {
		if p != nil {
			fmt.Printf("%s: %.1fs rounds=%d messages=%d allocs=%d\n",
				p.Workload, float64(p.NsPerOp)/1e9, p.RoundsPerOp, p.Messages, p.AllocsPerOp)
		}
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// buildPipeline runs one full measured-mode pipeline build on g at the
// headline grid parameters (SLT: eps=0.5; spanner: k=2, eps=0.25) and
// returns its measured cost.
func buildPipeline(program string, g *graph.Graph) (lightnet.Cost, error) {
	if program == "spanner-measured" {
		res, err := lightnet.BuildLightSpanner(g, 2, 0.25, lightnet.WithSeed(1), lightnet.WithMeasured(), lightnet.WithWorkers(1))
		if err != nil {
			return lightnet.Cost{}, err
		}
		return res.Cost, nil
	}
	res, err := lightnet.BuildSLT(g, 0, 0.5, lightnet.WithSeed(1), lightnet.WithMeasured(), lightnet.WithWorkers(1))
	if err != nil {
		return lightnet.Cost{}, err
	}
	return res.Cost, nil
}

// measurePipeline benchmarks one full measured-mode pipeline (all
// engine stages on one pipeline instance, workers=1) on g: per-op wall
// time, allocations and measured round/message totals.
func measurePipeline(program string, g *graph.Graph) (*benchfmt.Measurement, error) {
	ref, err := buildPipeline(program, g)
	if err != nil {
		return nil, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := buildPipeline(program, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	rounds := int(ref.Rounds)
	return &benchfmt.Measurement{
		Commit:      "HEAD",
		Workload:    fmt.Sprintf("%s canonical-er n=%d seed=1 workers=1", program, g.N()),
		NsPerOp:     res.NsPerOp(),
		RoundsPerOp: rounds,
		NsPerRound:  float64(res.NsPerOp()) / float64(rounds),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Messages:    ref.Messages,
	}, nil
}

// measurePipelineOnce is the single-run variant for graphs where one op
// takes minutes: wall clock for ns, runtime.ReadMemStats deltas for the
// allocation columns. The deterministic columns (rounds, messages) are
// exact regardless; ns and bytes carry single-run noise, which is why
// the benchdiff gate holds 1m entries only to a coarse ns tolerance.
func measurePipelineOnce(program string, g *graph.Graph) (*benchfmt.Measurement, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	cost, err := buildPipeline(program, g)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	rounds := int(cost.Rounds)
	return &benchfmt.Measurement{
		Commit:      "HEAD",
		Workload:    fmt.Sprintf("%s knn n=%d seed=1 workers=1 (single run)", program, g.N()),
		NsPerOp:     wall.Nanoseconds(),
		RoundsPerOp: rounds,
		NsPerRound:  float64(wall.Nanoseconds()) / float64(rounds),
		AllocsPerOp: int64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  int64(m1.TotalAlloc - m0.TotalAlloc),
		Messages:    cost.Messages,
	}, nil
}

// benchGenerators writes the generators report: the spatial-hash
// geometric builder against the O(n²) brute-force reference on 10⁵
// uniform points in [0,1]² (seed 1). Both builders must produce
// bit-identical graphs, verified edge by edge, so each comparison is a
// pure same-work speed measurement. Two radius regimes are reported:
//
//   - sparse (0.3× the connectivity radius): construction is
//     scan-dominated and the point set is slightly shattered, so the
//     comparison covers both the pair scan and the component
//     reconnection — where the builders actually differ (O(n + m) grid
//     vs two O(n²) passes);
//   - dense (the connectivity radius): millions of edges, where both
//     builders share the same multi-second edge-materialization cost.
//
// With million it adds the grid-only 10⁶-point build, which the
// quadratic builder cannot attempt (5·10¹¹ distance evaluations).
func benchGenerators(out string, million bool) error {
	const n, dim, seed = 100_000, 2, 1
	rc := graph.ConnectivityRadius(n, dim)
	pts := graph.RandomPoints(n, dim, 1, seed)
	rep := benchfmt.GeneratorsReport{
		Workload: fmt.Sprintf("UnitBallGraph vs UnitBallGraphBrute on RandomPoints(n=%d, dim=%d, side=1, seed=%d); bit-identical outputs verified per run", n, dim, seed),
		N:        n,
		Dim:      dim,
	}
	sparse, err := compareGenerators("sparse (0.3x connectivity radius, exercises reconnection)", pts, 0.3*rc)
	if err != nil {
		return err
	}
	dense, err := compareGenerators("dense (connectivity radius)", pts, rc)
	if err != nil {
		return err
	}
	rep.Comparisons = []benchfmt.GeneratorComparison{sparse, dense}
	if million {
		const mn = 1_000_000
		// Half the connectivity radius: sparse enough to fit in memory
		// (the giant component plus stragglers), so the build also
		// exercises the grid-based component reconnection at scale.
		mr := 0.5 * graph.ConnectivityRadius(mn, dim)
		fmt.Printf("million-point feasibility: n=%d radius=%.6f...\n", mn, mr)
		mpts := graph.RandomPoints(mn, dim, 1, seed)
		mStart := time.Now()
		mg := graph.UnitBallGraph(mpts, mr)
		mMS := float64(time.Since(mStart).Microseconds()) / 1000
		fmt.Printf("  grid: %.0f ms, %d edges, connected=%v\n", mMS, mg.M(), mg.Connected())
		rep.MillionPoint = &benchfmt.MillionPoint{N: mn, Radius: mr, Edges: mg.M(), WallMS: mMS}
	}
	if err := benchfmt.WriteFile(out, rep); err != nil {
		return err
	}
	fmt.Printf("sparse speedup: %.1fx, dense speedup: %.1fx; wrote %s\n",
		sparse.Speedup, dense.Speedup, out)
	return nil
}

// compareGenerators builds the same unit-ball graph with both builders,
// verifies bit-identical output, and returns the timed comparison.
func compareGenerators(regime string, pts *graph.Points, radius float64) (benchfmt.GeneratorComparison, error) {
	fmt.Printf("%s: n=%d radius=%.5f\n", regime, pts.N(), radius)
	gridStart := time.Now()
	gg := graph.UnitBallGraph(pts, radius)
	gridMS := float64(time.Since(gridStart).Microseconds()) / 1000
	fmt.Printf("  grid:  %8.0f ms, %d edges\n", gridMS, gg.M())
	fmt.Println("  brute: running the O(n²) reference (this is the slow part)...")
	bruteStart := time.Now()
	bg := graph.UnitBallGraphBrute(pts, radius)
	bruteMS := float64(time.Since(bruteStart).Microseconds()) / 1000
	fmt.Printf("  brute: %8.0f ms, %d edges (%.1fx)\n", bruteMS, bg.M(), bruteMS/gridMS)
	if gg.M() != bg.M() {
		return benchfmt.GeneratorComparison{}, fmt.Errorf("%s: builders disagree: %d vs %d edges", regime, gg.M(), bg.M())
	}
	for id := 0; id < gg.M(); id++ {
		if gg.Edge(graph.EdgeID(id)) != bg.Edge(graph.EdgeID(id)) {
			return benchfmt.GeneratorComparison{}, fmt.Errorf("%s: builders disagree on edge %d", regime, id)
		}
	}
	return benchfmt.GeneratorComparison{
		Regime:  regime,
		Radius:  radius,
		Edges:   gg.M(),
		BruteMS: bruteMS,
		GridMS:  gridMS,
		Speedup: bruteMS / gridMS,
	}, nil
}

// sampleEdgeList backs the edgelist scenario of the quality report. The
// path is relative to the repository root, where the bench runs.
const sampleEdgeList = "internal/experiments/testdata/sample.edgelist"

// benchQuality writes the quality report: every registry scenario's §5
// spanner, accounted and measured, certified by the grid's quality
// oracle (experiments.QualityReport). Everything is deterministic, so
// the report reproduces the committed BENCH_quality.json byte for byte
// until a change alters spanner quality.
func benchQuality(out string) error {
	rep, err := experiments.QualityReport(sampleEdgeList)
	if err != nil {
		return err
	}
	if err := benchfmt.WriteFile(out, rep); err != nil {
		return err
	}
	fmt.Printf("quality: %d rows (%d scenarios × 2 modes) written to %s\n",
		len(rep.Rows), len(rep.Rows)/2, out)
	return nil
}
