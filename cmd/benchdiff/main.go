// Command benchdiff is the CI bench-regression gate: it compares a
// fresh benchmark report against the committed baseline and exits
// non-zero when the fresh numbers regress.
//
//	go run ./cmd/lightnet bench -kind engine -out /tmp/engine.json
//	go run ./cmd/benchdiff -kind engine -baseline BENCH_engine.json -current /tmp/engine.json
//
//	go run ./cmd/lightnet bench -kind generators -million=false -out /tmp/gen.json
//	go run ./cmd/benchdiff -kind generators -baseline BENCH_generators.json -current /tmp/gen.json
//
//	go run ./cmd/lightnet bench -kind quality -out /tmp/quality.json
//	go run ./cmd/benchdiff -kind quality -baseline BENCH_quality.json -current /tmp/quality.json
//
//	lightnet serve -addr 127.0.0.1:0 -addrfile /tmp/addr &
//	lightnet loadgen -addr "http://$(cat /tmp/addr)" -out /tmp/serve.json
//	go run ./cmd/benchdiff -kind serve -baseline BENCH_serve.json -current /tmp/serve.json
//
// What is gated, per measurement present in both reports:
//
//   - deterministic fields (rounds/op, messages, edge counts) must match
//     exactly — the workloads are seed-fixed, so any drift means the
//     algorithm changed and the baseline must be regenerated in the same
//     change;
//   - allocs/op must not grow by more than -max-alloc-increase (default
//     1%): allocation counts of the deterministic single-worker runs are
//     machine-independent, so this catches a hot path starting to
//     allocate — the steady-state rounds themselves are pinned to zero
//     allocations by TestSteadyStateAllocs in internal/congest;
//   - ns/round (engine) and the brute-vs-grid speedup (generators) must
//     not regress by more than -max-ns-regress (default 25%). Wall-clock
//     ratios carry machine variance; CI passes a looser bound than the
//     default when the runner class differs from the machine that wrote
//     the baseline.
//
// The quality kind has no wall-clock at all, so its gate is strict: on
// every fresh row the measured stretch (max and p99) must sit at or
// under the paper bound 2k−1 unconditionally — this check does not
// consult the baseline, so a bound violation can never be "regenerated
// away" — the accounted and measured rows of each scenario must be
// bit-identical (the pipeline equivalence contract), deterministic
// fields must match the baseline exactly (near-exactly for floats, as
// cross-platform insurance), and lightness plus its ratio vs the greedy
// oracle must stay within -max-ratio-increase (default 5%) of the
// committed envelope.
//
// Updating the baseline: when a change intentionally alters the gated
// numbers (an engine or generator change), regenerate the committed
// files on a quiet machine and commit them with the change —
//
//	go run ./cmd/lightnet bench -kind engine -pipeline-n 1000000
//	go run ./cmd/lightnet bench -kind generators
//
// — so the gate's next comparison starts from the new trajectory. The
// docs/ARCHITECTURE.md "Performance" section describes the workflow.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"lightnet/internal/benchfmt"
)

func main() {
	kind := flag.String("kind", "engine", "report schema: engine | generators | quality | serve")
	basePath := flag.String("baseline", "", "committed baseline JSON (e.g. BENCH_engine.json)")
	curPath := flag.String("current", "", "freshly generated JSON to gate")
	maxNs := flag.Float64("max-ns-regress", 0.25, "tolerated fractional ns/round (or speedup) regression")
	maxAlloc := flag.Float64("max-alloc-increase", 0.01, "tolerated fractional allocs/op increase")
	maxRatio := flag.Float64("max-ratio-increase", 0.05, "tolerated fractional lightness (and ratio-vs-greedy) increase for -kind quality")
	maxNs1m := flag.Float64("max-ns-regress-1m", 1.0, "tolerated fractional ns/round regression for the single-run n=10^6 pipeline entries (-kind engine)")
	require1m := flag.Bool("require-1m", false, "fail when the fresh engine report lacks the n=10^6 pipeline entries the baseline carries (nightly; PR CI skips them)")
	flag.Parse()
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	violations, err := diff(*kind, *basePath, *curPath, *maxNs, *maxAlloc, *maxRatio, *maxNs1m, *require1m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) against %s:\n", len(violations), *basePath)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		fmt.Fprintln(os.Stderr, "if intentional, regenerate the baseline (see cmd/benchdiff docs)")
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %s within tolerance of %s (ns %.0f%%, allocs %.0f%%)\n",
		*curPath, *basePath, *maxNs*100, *maxAlloc*100)
}

func diff(kind, basePath, curPath string, maxNs, maxAlloc, maxRatio, maxNs1m float64, require1m bool) ([]string, error) {
	switch kind {
	case "engine":
		base, err := benchfmt.LoadEngine(basePath)
		if err != nil {
			return nil, err
		}
		cur, err := benchfmt.LoadEngine(curPath)
		if err != nil {
			return nil, err
		}
		return diffEngine(base, cur, maxNs, maxAlloc, maxNs1m, require1m), nil
	case "generators":
		base, err := benchfmt.LoadGenerators(basePath)
		if err != nil {
			return nil, err
		}
		cur, err := benchfmt.LoadGenerators(curPath)
		if err != nil {
			return nil, err
		}
		return diffGenerators(base, cur, maxNs), nil
	case "quality":
		base, err := benchfmt.LoadQuality(basePath)
		if err != nil {
			return nil, err
		}
		cur, err := benchfmt.LoadQuality(curPath)
		if err != nil {
			return nil, err
		}
		return diffQuality(base, cur, maxRatio), nil
	case "serve":
		base, err := benchfmt.LoadServe(basePath)
		if err != nil {
			return nil, err
		}
		cur, err := benchfmt.LoadServe(curPath)
		if err != nil {
			return nil, err
		}
		return diffServe(base, cur, maxNs), nil
	default:
		return nil, fmt.Errorf("unknown -kind %q (engine|generators|quality|serve)", kind)
	}
}

// diffEngine gates every measurement present in the baseline: the
// canonical after numbers plus the measured-mode pipelines. The n=10⁶
// single-run entries (slt_pipeline_1m / spanner_pipeline_1m) are gated
// with their own coarse ns tolerance, and — because PR CI cannot afford
// the runs — their absence from the fresh report is an error only under
// -require-1m (the nightly mode).
func diffEngine(base, cur *benchfmt.EngineReport, maxNs, maxAlloc, maxNs1m float64, require1m bool) []string {
	if cur.Workload != base.Workload {
		return []string{fmt.Sprintf("workload mismatch: baseline %q vs fresh %q (run lightnet bench -kind engine in the baseline's mode)",
			base.Workload, cur.Workload)}
	}
	var out []string
	out = append(out, diffMeasurement("after", &base.After, &cur.After, maxNs, maxAlloc, false)...)
	out = append(out, diffMeasurement("slt_pipeline", base.SLTPipeline, cur.SLTPipeline, maxNs, maxAlloc, false)...)
	out = append(out, diffMeasurement("spanner_pipeline", base.SpannerPipeline, cur.SpannerPipeline, maxNs, maxAlloc, false)...)
	out = append(out, diffMeasurement("slt_pipeline_1m", base.SLTPipeline1M, cur.SLTPipeline1M, maxNs1m, maxAlloc, !require1m)...)
	out = append(out, diffMeasurement("spanner_pipeline_1m", base.SpannerPipeline1M, cur.SpannerPipeline1M, maxNs1m, maxAlloc, !require1m)...)
	return out
}

// diffMeasurement gates one engine measurement. optional marks entries
// a fresh report may legitimately omit (the n=10⁶ runs on PR CI).
// Violations lead with the entry name and its recorded workload, so a
// failing gate identifies exactly which pipeline input regressed.
func diffMeasurement(name string, base, cur *benchfmt.Measurement, maxNs, maxAlloc float64, optional bool) []string {
	if base == nil {
		return nil // not gated yet: commit a regenerated baseline to start
	}
	if cur == nil {
		if optional {
			return nil
		}
		return []string{fmt.Sprintf("%s%s: measurement missing from the fresh report", name, workloadTag(base))}
	}
	if base.Workload != "" && cur.Workload != "" && base.Workload != cur.Workload {
		if optional {
			// A shrunken CI smoke (e.g. -pipeline-n 100000) measures a
			// different input; skip rather than compare apples to oranges.
			// The nightly run passes -require-1m and still gets the error.
			return nil
		}
		return []string{fmt.Sprintf("%s: workload mismatch: baseline %q vs fresh %q (not comparable; rerun lightnet bench -kind engine with the baseline's parameters)",
			name, base.Workload, cur.Workload)}
	}
	var out []string
	if cur.RoundsPerOp != base.RoundsPerOp {
		out = append(out, fmt.Sprintf("%s%s: rounds/op changed %d -> %d (deterministic workload; algorithm drift)",
			name, workloadTag(base), base.RoundsPerOp, cur.RoundsPerOp))
	}
	if cur.Messages != base.Messages {
		out = append(out, fmt.Sprintf("%s%s: messages changed %d -> %d (deterministic workload; algorithm drift)",
			name, workloadTag(base), base.Messages, cur.Messages))
	}
	if limit := float64(base.AllocsPerOp) * (1 + maxAlloc); float64(cur.AllocsPerOp) > limit {
		out = append(out, fmt.Sprintf("%s%s: allocs/op %d -> %d exceeds +%.0f%% tolerance",
			name, workloadTag(base), base.AllocsPerOp, cur.AllocsPerOp, maxAlloc*100))
	}
	if limit := base.NsPerRound * (1 + maxNs); cur.NsPerRound > limit {
		out = append(out, fmt.Sprintf("%s%s: ns/round %.0f -> %.0f exceeds +%.0f%% tolerance",
			name, workloadTag(base), base.NsPerRound, cur.NsPerRound, maxNs*100))
	}
	return out
}

// workloadTag renders the per-measurement workload for violation
// messages (empty for pre-metadata baselines).
func workloadTag(m *benchfmt.Measurement) string {
	if m.Workload == "" {
		return ""
	}
	return fmt.Sprintf(" [%s]", m.Workload)
}

// diffGenerators gates the brute-vs-grid comparisons: edge counts are
// deterministic and must match; the speedup ratio (machine-neutral: both
// builders run on the same host in the same process) must not shrink
// beyond tolerance. The million-point datapoint is compared only when
// both reports carry it (CI skips it with -million=false).
func diffGenerators(base, cur *benchfmt.GeneratorsReport, maxRegress float64) []string {
	var out []string
	if base.N != cur.N || base.Dim != cur.Dim {
		out = append(out, fmt.Sprintf("workload mismatch: baseline n=%d dim=%d vs fresh n=%d dim=%d (run lightnet bench -kind generators with the baseline's parameters)",
			base.N, base.Dim, cur.N, cur.Dim))
		return out
	}
	curBy := make(map[string]benchfmt.GeneratorComparison, len(cur.Comparisons))
	for _, c := range cur.Comparisons {
		curBy[c.Regime] = c
	}
	for _, b := range base.Comparisons {
		c, ok := curBy[b.Regime]
		if !ok {
			out = append(out, fmt.Sprintf("%s: regime missing from the fresh report", b.Regime))
			continue
		}
		if c.Edges != b.Edges {
			out = append(out, fmt.Sprintf("%s: edges changed %d -> %d (deterministic build; generator drift)",
				b.Regime, b.Edges, c.Edges))
		}
		if floor := b.Speedup / (1 + maxRegress); c.Speedup < floor {
			out = append(out, fmt.Sprintf("%s: speedup %.1fx -> %.1fx below -%.0f%% tolerance",
				b.Regime, b.Speedup, c.Speedup, maxRegress*100))
		}
	}
	if base.MillionPoint != nil && cur.MillionPoint != nil &&
		cur.MillionPoint.Edges != base.MillionPoint.Edges {
		out = append(out, fmt.Sprintf("million_point: edges changed %d -> %d (deterministic build; generator drift)",
			base.MillionPoint.Edges, cur.MillionPoint.Edges))
	}
	return out
}

// diffServe gates the query-service report. Like the quality gate it
// leads with an absolute check the baseline cannot mask: the fresh run
// must have zero error responses. Deterministic fields — the served
// graph and object (n, m, edges, network digest) and the ordered
// response digest of the seeded query stream — must match the baseline
// exactly: the stream is a counter hash and responses carry no
// timestamps, so any drift means the served answers changed. Throughput
// and tail latency are wall-clock and gated only within maxNs: QPS may
// not fall below base/(1+maxNs), p99 may not exceed base·(1+maxNs).
func diffServe(base, cur *benchfmt.ServeReport, maxNs float64) []string {
	var out []string
	if cur.Errors != 0 {
		out = append(out, fmt.Sprintf("serve: %d error response(s) in the fresh run (must be 0; service broken)", cur.Errors))
	}
	if base.Workload != cur.Workload || base.Object != cur.Object ||
		base.N != cur.N || base.K != cur.K || base.Eps != cur.Eps ||
		base.Seed != cur.Seed || base.Clients != cur.Clients || base.Queries != cur.Queries {
		out = append(out, fmt.Sprintf("workload mismatch: baseline %s/%s n=%d k=%d eps=%g seed=%d clients=%d queries=%d vs fresh %s/%s n=%d k=%d eps=%g seed=%d clients=%d queries=%d (run serve+loadgen with the baseline's parameters)",
			base.Workload, base.Object, base.N, base.K, base.Eps, base.Seed, base.Clients, base.Queries,
			cur.Workload, cur.Object, cur.N, cur.K, cur.Eps, cur.Seed, cur.Clients, cur.Queries))
		return out
	}
	if cur.M != base.M {
		out = append(out, fmt.Sprintf("serve: base graph edges changed %d -> %d (deterministic build; scenario drift)",
			base.M, cur.M))
	}
	if cur.Edges != base.Edges {
		out = append(out, fmt.Sprintf("serve: served object edges changed %d -> %d (deterministic build; algorithm drift)",
			base.Edges, cur.Edges))
	}
	if cur.Digest != base.Digest {
		out = append(out, fmt.Sprintf("serve: network digest changed %s -> %s (served object drift)",
			base.Digest, cur.Digest))
	}
	if cur.ResponseDigest != base.ResponseDigest {
		out = append(out, fmt.Sprintf("serve: response digest changed %s -> %s (served answers drifted — the service no longer reproduces the library computation)",
			base.ResponseDigest, cur.ResponseDigest))
	}
	// Store digests are exact but optional: in-memory runs leave them
	// empty, and an empty side (either one) skips the comparison so
	// snapshot-booted and in-memory runs stay mutually gateable.
	if base.SnapshotDigest != "" && cur.SnapshotDigest != "" && cur.SnapshotDigest != base.SnapshotDigest {
		out = append(out, fmt.Sprintf("serve: snapshot digest changed %s -> %s (the *.csrz bytes drifted — store format or generator change)",
			base.SnapshotDigest, cur.SnapshotDigest))
	}
	if base.ArtifactDigest != "" && cur.ArtifactDigest != "" && cur.ArtifactDigest != base.ArtifactDigest {
		out = append(out, fmt.Sprintf("serve: artifact digest changed %s -> %s (the *.art bytes drifted — store format or build change)",
			base.ArtifactDigest, cur.ArtifactDigest))
	}
	if floor := base.QPS / (1 + maxNs); cur.QPS < floor {
		out = append(out, fmt.Sprintf("serve: qps %.0f -> %.0f below -%.0f%% tolerance",
			base.QPS, cur.QPS, maxNs*100))
	}
	if limit := base.P99Micros * (1 + maxNs); cur.P99Micros > limit {
		out = append(out, fmt.Sprintf("serve: p99 %.0fµs -> %.0fµs exceeds +%.0f%% tolerance",
			base.P99Micros, cur.P99Micros, maxNs*100))
	}
	return out
}

// qualityFloatTol is the relative slack for baseline comparison of the
// deterministic float fields. The pipeline is bit-deterministic on one
// platform; the hair of tolerance only absorbs cross-platform float
// printing/summation differences, never a real quality change.
const qualityFloatTol = 1e-9

// nearlyEqual reports |a−b| within qualityFloatTol relative to scale.
func nearlyEqual(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= qualityFloatTol*math.Max(scale, 1)
}

// diffQuality gates the spanner-quality report. Three layers, strictest
// first:
//
//  1. absolute: every fresh row's stretch (max and p99) must sit at or
//     under its own bound column — checked against the CURRENT report
//     only, so committing a bad baseline cannot mask a bound violation;
//  2. cross-mode: the accounted and measured rows of each scenario in
//     the fresh report must agree bit-for-bit (the mode-equivalence
//     contract of the measured pipeline);
//  3. baseline: deterministic fields must match the committed report
//     (ints exactly, floats near-exactly), with lightness and
//     ratio_vs_greedy allowed to improve freely but to worsen only
//     within maxRatio.
func diffQuality(base, cur *benchfmt.QualityReport, maxRatio float64) []string {
	if base.K != cur.K || base.Eps != cur.Eps || base.N != cur.N ||
		base.Seed != cur.Seed || base.Pairs != cur.Pairs {
		return []string{fmt.Sprintf("workload mismatch: baseline k=%d eps=%g n=%d seed=%d pairs=%d vs fresh k=%d eps=%g n=%d seed=%d pairs=%d (run lightnet bench -kind quality with the baseline's parameters)",
			base.K, base.Eps, base.N, base.Seed, base.Pairs,
			cur.K, cur.Eps, cur.N, cur.Seed, cur.Pairs)}
	}
	var out []string
	curBy := make(map[string]benchfmt.QualityRow, len(cur.Rows))
	for _, r := range cur.Rows {
		key := r.Scenario + "/" + r.Mode
		curBy[key] = r
		if r.Stretch > r.Bound+qualityFloatTol {
			out = append(out, fmt.Sprintf("%s: stretch %.6f exceeds the paper bound %g (construction broken)",
				key, r.Stretch, r.Bound))
		}
		if r.StretchP99 > r.Bound+qualityFloatTol {
			out = append(out, fmt.Sprintf("%s: stretch_p99 %.6f exceeds the paper bound %g (construction broken)",
				key, r.StretchP99, r.Bound))
		}
	}
	for _, acc := range cur.Rows {
		if acc.Mode != "accounted" {
			continue
		}
		mea, ok := curBy[acc.Scenario+"/measured"]
		if !ok {
			out = append(out, fmt.Sprintf("%s: accounted row has no measured counterpart", acc.Scenario))
			continue
		}
		if acc.Edges != mea.Edges || acc.Lightness != mea.Lightness ||
			acc.Stretch != mea.Stretch || acc.StretchP99 != mea.StretchP99 {
			out = append(out, fmt.Sprintf("%s: accounted and measured rows diverge (edges %d vs %d, lightness %.9f vs %.9f) — mode-equivalence contract broken",
				acc.Scenario, acc.Edges, mea.Edges, acc.Lightness, mea.Lightness))
		}
	}
	for _, b := range base.Rows {
		key := b.Scenario + "/" + b.Mode
		c, ok := curBy[key]
		if !ok {
			out = append(out, fmt.Sprintf("%s: row missing from the fresh report", key))
			continue
		}
		if c.N != b.N || c.M != b.M {
			out = append(out, fmt.Sprintf("%s: input graph changed (n,m) (%d,%d) -> (%d,%d) (scenario drift)",
				key, b.N, b.M, c.N, c.M))
		}
		if c.Edges != b.Edges {
			out = append(out, fmt.Sprintf("%s: spanner edges changed %d -> %d (deterministic build; algorithm drift)",
				key, b.Edges, c.Edges))
		}
		if c.GreedyEdges != b.GreedyEdges {
			out = append(out, fmt.Sprintf("%s: greedy oracle edges changed %d -> %d (the oracle has no seed; this is a real change)",
				key, b.GreedyEdges, c.GreedyEdges))
		}
		for _, f := range []struct {
			name   string
			bv, cv float64
		}{
			{"stretch", b.Stretch, c.Stretch},
			{"stretch_p99", b.StretchP99, c.StretchP99},
			{"greedy_lightness", b.GreedyLightness, c.GreedyLightness},
			{"greedy_stretch", b.GreedyStretch, c.GreedyStretch},
		} {
			if !nearlyEqual(f.bv, f.cv) {
				out = append(out, fmt.Sprintf("%s: %s changed %.9f -> %.9f (deterministic field drift)",
					key, f.name, f.bv, f.cv))
			}
		}
		if limit := b.Lightness * (1 + maxRatio); c.Lightness > limit+qualityFloatTol {
			out = append(out, fmt.Sprintf("%s: lightness %.6f -> %.6f exceeds +%.0f%% envelope",
				key, b.Lightness, c.Lightness, maxRatio*100))
		}
		if limit := b.RatioVsGreedy * (1 + maxRatio); c.RatioVsGreedy > limit+qualityFloatTol {
			out = append(out, fmt.Sprintf("%s: ratio_vs_greedy %.6f -> %.6f exceeds +%.0f%% envelope",
				key, b.RatioVsGreedy, c.RatioVsGreedy, maxRatio*100))
		}
	}
	return out
}
