package main

import (
	"path/filepath"
	"strings"
	"testing"

	"lightnet/internal/benchfmt"
)

func engineReport(nsPerRound float64, allocs, messages int64, rounds int) *benchfmt.EngineReport {
	m := benchfmt.Measurement{
		Commit: "x", NsPerOp: int64(nsPerRound) * int64(rounds), RoundsPerOp: rounds,
		NsPerRound: nsPerRound, AllocsPerOp: allocs, BytesPerOp: 1 << 20, Messages: messages,
	}
	p := m
	slt1m, sp1m := m, m
	slt1m.Workload = "slt-measured knn n=1000000 seed=1 workers=1 (single run)"
	sp1m.Workload = "spanner-measured knn n=1000000 seed=1 workers=1 (single run)"
	return &benchfmt.EngineReport{
		Workload: "w", After: m, SLTPipeline: &p, SpannerPipeline: &p,
		SLTPipeline1M: &slt1m, SpannerPipeline1M: &sp1m,
	}
}

func TestEngineIdenticalPasses(t *testing.T) {
	base := engineReport(1000, 500, 12345, 15)
	if v := diffEngine(base, engineReport(1000, 500, 12345, 15), 0.25, 0.01, 1.0, true); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
	// Improvements pass too.
	if v := diffEngine(base, engineReport(700, 400, 12345, 15), 0.25, 0.01, 1.0, true); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
	// Within-tolerance noise passes.
	if v := diffEngine(base, engineReport(1200, 500, 12345, 15), 0.25, 0.01, 1.0, true); len(v) != 0 {
		t.Fatalf("within-tolerance noise flagged: %v", v)
	}
}

func TestEngineSyntheticRegressionFails(t *testing.T) {
	base := engineReport(1000, 500, 12345, 15)
	cases := []struct {
		name string
		cur  *benchfmt.EngineReport
	}{
		{"ns-regress", engineReport(1300, 500, 12345, 15)},
		{"alloc-increase", engineReport(1000, 520, 12345, 15)},
		{"message-drift", engineReport(1000, 500, 12999, 15)},
		{"round-drift", engineReport(1000, 500, 12345, 17)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if v := diffEngine(base, tc.cur, 0.25, 0.01, 1.0, true); len(v) == 0 {
				t.Fatal("regression not flagged")
			}
		})
	}
	// A pipeline entry disappearing from the fresh report is a coverage
	// loss and must fail.
	cur := engineReport(1000, 500, 12345, 15)
	cur.SpannerPipeline = nil
	if v := diffEngine(base, cur, 0.25, 0.01, 1.0, true); len(v) == 0 {
		t.Fatal("missing pipeline measurement not flagged")
	}
	// The converse — baseline without the entry — is not gated yet.
	base.SpannerPipeline = nil
	if v := diffEngine(base, engineReport(1000, 500, 12345, 15), 0.25, 0.01, 1.0, true); len(v) != 0 {
		t.Fatalf("ungated new measurement flagged: %v", v)
	}
}

// TestEngineWorkloadMismatch: a fresh report from a different workload
// (e.g. one a changed harness wrote) is reported as a mismatch, not as
// algorithm drift.
func TestEngineWorkloadMismatch(t *testing.T) {
	base := engineReport(1000, 500, 12345, 15)
	cur := engineReport(1000, 500, 99999, 20)
	cur.Workload = "Luby MIS on scenario \"ba:m=4\""
	v := diffEngine(base, cur, 0.25, 0.01, 1.0, true)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("want a single workload-mismatch violation, got %v", v)
	}
}

// TestEngine1MGating: the n=10⁶ single-run entries are gated with their
// own coarse ns tolerance; their absence from the fresh report fails
// only under -require-1m (PR CI skips the runs, nightly demands them).
func TestEngine1MGating(t *testing.T) {
	base := engineReport(1000, 500, 12345, 15)
	missing := engineReport(1000, 500, 12345, 15)
	missing.SLTPipeline1M, missing.SpannerPipeline1M = nil, nil
	if v := diffEngine(base, missing, 0.25, 0.01, 1.0, false); len(v) != 0 {
		t.Fatalf("optional absent 1m entries flagged without -require-1m: %v", v)
	}
	v := diffEngine(base, missing, 0.25, 0.01, 1.0, true)
	if len(v) != 2 || !strings.Contains(v[0], "slt_pipeline_1m") {
		t.Fatalf("want 2 missing-1m violations under -require-1m, got %v", v)
	}
	// Deterministic columns of a present 1m entry are exact.
	drift := engineReport(1000, 500, 12345, 15)
	drift.SLTPipeline1M.Messages++
	v = diffEngine(base, drift, 0.25, 0.01, 1.0, false)
	if len(v) != 1 || !strings.Contains(v[0], "slt_pipeline_1m") || !strings.Contains(v[0], "knn n=1000000") {
		t.Fatalf("1m message drift not flagged with its workload, got %v", v)
	}
	// The 1m ns tolerance is independent of (and coarser than) the
	// n=2048 tolerance: +80%% passes at maxNs1m=1.0 while the same drift
	// on the 2048 entries would fail at 25%%.
	slow := engineReport(1000, 500, 12345, 15)
	slow.SLTPipeline1M.NsPerRound *= 1.8
	if v := diffEngine(base, slow, 0.25, 0.01, 1.0, false); len(v) != 0 {
		t.Fatalf("within-coarse-tolerance 1m ns flagged: %v", v)
	}
	slow.SLTPipeline1M.NsPerRound = base.SLTPipeline1M.NsPerRound * 2.5
	if v := diffEngine(base, slow, 0.25, 0.01, 1.0, false); len(v) == 0 {
		t.Fatal("1m ns blowup beyond coarse tolerance not flagged")
	}
	// A 1m entry measured on a different input (a shrunken CI smoke) is
	// never silently compared: without -require-1m it is skipped (even
	// with drifted numbers), under -require-1m it is a mismatch error.
	wrongN := engineReport(1000, 500, 12345, 15)
	wrongN.SLTPipeline1M.Workload = "slt-measured knn n=100000 seed=1 workers=1 (single run)"
	wrongN.SLTPipeline1M.Messages *= 3
	if v := diffEngine(base, wrongN, 0.25, 0.01, 1.0, false); len(v) != 0 {
		t.Fatalf("smoke-scale 1m entry compared against the 10^6 baseline: %v", v)
	}
	v = diffEngine(base, wrongN, 0.25, 0.01, 1.0, true)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("want per-measurement workload mismatch under -require-1m, got %v", v)
	}
}

func genReport(edges int, speedup float64) *benchfmt.GeneratorsReport {
	return &benchfmt.GeneratorsReport{
		Workload: "w", N: 100000, Dim: 2,
		Comparisons: []benchfmt.GeneratorComparison{
			{Regime: "sparse", Radius: 0.005, Edges: edges, BruteMS: 100 * speedup, GridMS: 100, Speedup: speedup},
		},
		MillionPoint: &benchfmt.MillionPoint{N: 1000000, Radius: 0.003, Edges: 13852117, WallMS: 20000},
	}
}

func TestGeneratorsGate(t *testing.T) {
	base := genReport(415347, 50)
	if v := diffGenerators(base, genReport(415347, 50), 0.25); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
	if v := diffGenerators(base, genReport(415347, 30), 0.25); len(v) == 0 {
		t.Fatal("speedup regression not flagged")
	}
	if v := diffGenerators(base, genReport(415000, 50), 0.25); len(v) == 0 {
		t.Fatal("edge drift not flagged")
	}
	// Fresh run without the million-point datapoint still passes (CI
	// skips it with -million=false).
	cur := genReport(415347, 50)
	cur.MillionPoint = nil
	if v := diffGenerators(base, cur, 0.25); len(v) != 0 {
		t.Fatalf("absent million-point flagged: %v", v)
	}
}

// qualityReport builds a two-scenario report whose accounted and
// measured rows agree — the shape `lightnet bench -kind quality` emits
// when the pipeline contract holds.
func qualityReport() *benchfmt.QualityReport {
	rep := &benchfmt.QualityReport{K: 2, Eps: 0.25, N: 128, Seed: 1, Pairs: 2000}
	for _, sc := range []struct {
		name      string
		edges     int
		lightness float64
		stretch   float64
	}{
		{"lbcycle", 128, 1.008, 1},
		{"lbbipartite", 1072, 8.441, 3},
	} {
		for _, mode := range []string{"accounted", "measured"} {
			rep.Rows = append(rep.Rows, benchfmt.QualityRow{
				Scenario: sc.name, Mode: mode, N: 128, M: 4096, Bound: 3,
				Edges: sc.edges, Lightness: sc.lightness,
				Stretch: sc.stretch, StretchP99: sc.stretch,
				GreedyEdges: 127, GreedyLightness: 1.0, GreedyStretch: 2.9,
				RatioVsGreedy: sc.lightness,
			})
		}
	}
	return rep
}

func TestQualityIdenticalPasses(t *testing.T) {
	if v := diffQuality(qualityReport(), qualityReport(), 0.05); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
	// Lightness improvements pass (the envelope is one-sided) as long as
	// the deterministic fields they feed move with them in the baseline —
	// here only the envelope fields move.
	cur := qualityReport()
	for i := range cur.Rows {
		cur.Rows[i].RatioVsGreedy *= 0.9
	}
	if v := diffQuality(qualityReport(), cur, 0.05); len(v) != 0 {
		t.Fatalf("ratio improvement flagged: %v", v)
	}
}

// TestQualitySyntheticRegressionFails proves the gate actually fails on
// each class of quality regression — the acceptance criterion that the
// bound check is demonstrably live, not vacuously green.
func TestQualitySyntheticRegressionFails(t *testing.T) {
	base := qualityReport()
	mutate := func(f func(*benchfmt.QualityReport)) *benchfmt.QualityReport {
		cur := qualityReport()
		f(cur)
		return cur
	}
	cases := []struct {
		name string
		cur  *benchfmt.QualityReport
		want string
	}{
		{"stretch-above-bound", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[0].Stretch = 3.2
			r.Rows[1].Stretch = 3.2 // keep modes consistent: the bound check alone must fire
		}), "exceeds the paper bound"},
		{"p99-above-bound", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[0].StretchP99 = 3.01
			r.Rows[1].StretchP99 = 3.01
		}), "stretch_p99"},
		{"ratio-inflation", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[2].RatioVsGreedy *= 1.10
			r.Rows[3].RatioVsGreedy *= 1.10
		}), "ratio_vs_greedy"},
		{"lightness-inflation", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[2].Lightness *= 1.10
			r.Rows[3].Lightness *= 1.10
		}), "lightness"},
		{"edge-drift", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[0].Edges++
			r.Rows[1].Edges++
		}), "spanner edges changed"},
		{"greedy-oracle-drift", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[0].GreedyEdges--
			r.Rows[1].GreedyEdges--
		}), "greedy oracle"},
		{"mode-divergence", mutate(func(r *benchfmt.QualityReport) {
			r.Rows[1].Lightness *= 1.001 // measured row drifts off accounted
		}), "mode-equivalence"},
		{"missing-row", mutate(func(r *benchfmt.QualityReport) {
			r.Rows = r.Rows[:2]
		}), "missing from the fresh report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := diffQuality(base, tc.cur, 0.05)
			if len(v) == 0 {
				t.Fatal("regression not flagged")
			}
			if !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Fatalf("violations %v do not mention %q", v, tc.want)
			}
		})
	}
}

// TestQualityBoundCheckIgnoresBaseline: a stretch violation fires even
// when the baseline itself carries the same bad value — committing a
// broken baseline cannot neutralise the paper-bound check.
func TestQualityBoundCheckIgnoresBaseline(t *testing.T) {
	bad := qualityReport()
	for i := range bad.Rows {
		bad.Rows[i].Stretch = 3.5
	}
	v := diffQuality(bad, bad, 0.05)
	if len(v) == 0 {
		t.Fatal("bound violation masked by a matching baseline")
	}
	if !strings.Contains(strings.Join(v, "\n"), "exceeds the paper bound") {
		t.Fatalf("violations %v do not mention the paper bound", v)
	}
}

func TestQualityWorkloadMismatch(t *testing.T) {
	cur := qualityReport()
	cur.Seed = 7
	v := diffQuality(qualityReport(), cur, 0.05)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("want a single workload-mismatch violation, got %v", v)
	}
}

// TestCommittedBaselinesSelfConsistent: diffing the committed baselines
// against themselves passes — the gate's fixed point, and a parse check
// of the real files.
func TestCommittedBaselinesSelfConsistent(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, tc := range []struct{ kind, file string }{
		{"engine", "BENCH_engine.json"},
		{"generators", "BENCH_generators.json"},
		{"quality", "BENCH_quality.json"},
		{"serve", "BENCH_serve.json"},
	} {
		path := filepath.Join(root, tc.file)
		v, err := diff(tc.kind, path, path, 0.25, 0.01, 0.05, 1.0, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s not self-consistent: %v", tc.file, v)
		}
	}
}

func serveReport() *benchfmt.ServeReport {
	return &benchfmt.ServeReport{
		Workload: "er n=512 p=0.0078 maxw=10", Object: "spanner",
		N: 512, M: 1024, K: 2, Eps: 0.25, Seed: 1,
		Edges: 900, Digest: "00000000deadbeef",
		Clients: 8, Queries: 5000, Errors: 0,
		ResponseDigest: "cafe0123cafe0123",
		QPS:            3000, P50Micros: 400, P99Micros: 2000,
	}
}

func TestServeIdenticalPasses(t *testing.T) {
	if v := diffServe(serveReport(), serveReport(), 0.25); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
	// Improvements pass too.
	better := serveReport()
	better.QPS = 9000
	better.P99Micros = 500
	if v := diffServe(serveReport(), better, 0.25); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestServeSyntheticRegressionFails(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*benchfmt.ServeReport)
	}{
		{"digest drift", "network digest changed", func(r *benchfmt.ServeReport) { r.Digest = "ffff" }},
		{"response drift", "response digest changed", func(r *benchfmt.ServeReport) { r.ResponseDigest = "ffff" }},
		{"edges drift", "served object edges changed", func(r *benchfmt.ServeReport) { r.Edges++ }},
		{"base edges drift", "base graph edges changed", func(r *benchfmt.ServeReport) { r.M++ }},
		{"qps collapse", "below", func(r *benchfmt.ServeReport) { r.QPS = 100 }},
		{"p99 blowup", "exceeds", func(r *benchfmt.ServeReport) { r.P99Micros = 99999 }},
		{"errors", "must be 0", func(r *benchfmt.ServeReport) { r.Errors = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := serveReport()
			tc.mutate(cur)
			v := diffServe(serveReport(), cur, 0.25)
			if len(v) == 0 {
				t.Fatal("regression not flagged")
			}
			if !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Fatalf("violations %v do not mention %q", v, tc.want)
			}
		})
	}
}

// TestServeErrorCheckIgnoresBaseline: a fresh run with errors fails even
// when the committed baseline itself carries errors — a bad baseline
// cannot mask a broken service.
func TestServeErrorCheckIgnoresBaseline(t *testing.T) {
	bad := serveReport()
	bad.Errors = 5
	v := diffServe(bad, bad, 0.25)
	if len(v) == 0 {
		t.Fatal("error responses masked by a matching baseline")
	}
	if !strings.Contains(strings.Join(v, "\n"), "must be 0") {
		t.Fatalf("violations %v do not mention the zero-error requirement", v)
	}
}

func TestServeWorkloadMismatch(t *testing.T) {
	cur := serveReport()
	cur.Clients = 16
	v := diffServe(serveReport(), cur, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("want a single workload-mismatch violation, got %v", v)
	}
}
