// Package benchfmt defines the JSON schemas of the repository's
// committed benchmark baselines — BENCH_engine.json,
// BENCH_generators.json and BENCH_quality.json (written by `lightnet
// bench -kind engine|generators|quality`) and BENCH_serve.json
// (`lightnet loadgen`) — shared by the writers and by the CI regression
// gate (cmd/benchdiff). Keeping the schema in one place guarantees the
// gate always parses exactly what the harnesses emit.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Measurement is one engine datapoint on a fixed workload.
type Measurement struct {
	// Commit identifies the engine version ("baseline" numbers are
	// frozen from the pre-refactor engine).
	Commit string `json:"commit"`
	// Workload names the exact input the datapoint was measured on
	// (e.g. "knn n=1000000 seed=1 k=6 eps=0.5 workers=1") so gate
	// failures identify which pipeline entry regressed. Older baselines
	// omit it; the gate treats an empty value as "unspecified" and does
	// not compare it.
	Workload    string  `json:"workload,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	RoundsPerOp int     `json:"rounds_per_op"`
	NsPerRound  float64 `json:"ns_per_round"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Messages    int64   `json:"messages"`
}

// EngineReport is the schema of BENCH_engine.json: the canonical
// workload's After numbers next to the frozen Before baseline, plus the
// measured-mode SLT and spanner pipelines so their round cost and
// allocation profile are tracked alongside the elementary hot path,
// and — with `lightnet bench -kind engine -pipeline-n N` — the
// single-run knn pipeline datapoints at n=N (measured by wall clock +
// runtime.ReadMemStats rather than testing.Benchmark, because one op
// takes minutes at n=10⁶).
type EngineReport struct {
	Workload          string       `json:"workload"`
	Before            *Measurement `json:"before,omitempty"`
	After             Measurement  `json:"after"`
	SpeedupNsPerRound float64      `json:"speedup_ns_per_round,omitempty"`
	SLTPipeline       *Measurement `json:"slt_pipeline,omitempty"`
	SpannerPipeline   *Measurement `json:"spanner_pipeline,omitempty"`
	SLTPipeline1M     *Measurement `json:"slt_pipeline_1m,omitempty"`
	SpannerPipeline1M *Measurement `json:"spanner_pipeline_1m,omitempty"`
}

// GeneratorComparison is one brute-vs-grid measurement of the same
// graph built by both generator implementations.
type GeneratorComparison struct {
	Regime  string  `json:"regime"`
	Radius  float64 `json:"radius"`
	Edges   int     `json:"edges"`
	BruteMS float64 `json:"brute_ms"`
	GridMS  float64 `json:"grid_ms"`
	Speedup float64 `json:"speedup"`
}

// MillionPoint records the grid builder alone at n = 1e6.
type MillionPoint struct {
	N      int     `json:"n"`
	Radius float64 `json:"radius"`
	Edges  int     `json:"edges"`
	WallMS float64 `json:"wall_ms"`
}

// GeneratorsReport is the schema of BENCH_generators.json.
type GeneratorsReport struct {
	Workload    string                `json:"workload"`
	N           int                   `json:"n"`
	Dim         int                   `json:"dim"`
	Comparisons []GeneratorComparison `json:"comparisons"`
	// MillionPoint is the grid-only feasibility datapoint (absent with
	// -million=false).
	MillionPoint *MillionPoint `json:"million_point,omitempty"`
}

// QualityRow is one (scenario, mode) datapoint of the quality report:
// the §5 spanner built on a registry scenario, certified against the
// paper's stretch bound and the independent greedy [ADD+93] baseline.
// Every field is deterministic — seeds are fixed and the pair sampler is
// a counter hash — so the gate compares exactly, with float tolerance
// only as cross-platform insurance.
type QualityRow struct {
	// Scenario is the registry spec string the graph was built from.
	Scenario string `json:"scenario"`
	// Mode is accounted | measured; the two rows of one scenario must be
	// bit-identical (the measured pipeline's contract).
	Mode string `json:"mode"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Bound is the paper's stretch bound for the built configuration
	// (2k−1 for the per-bucket Baswana–Sen); Stretch must never exceed it.
	Bound           float64 `json:"bound"`
	Edges           int     `json:"edges"`
	Lightness       float64 `json:"lightness"`
	Stretch         float64 `json:"stretch"`
	StretchP99      float64 `json:"stretch_p99"`
	GreedyEdges     int     `json:"greedy_edges"`
	GreedyLightness float64 `json:"greedy_lightness"`
	GreedyStretch   float64 `json:"greedy_stretch"`
	// RatioVsGreedy = Lightness / GreedyLightness — the committed
	// envelope the gate holds fresh runs to.
	RatioVsGreedy float64 `json:"ratio_vs_greedy"`
}

// QualityReport is the schema of BENCH_quality.json (`lightnet bench
// -kind quality`, filled by experiments.QualityReport).
type QualityReport struct {
	K     int          `json:"k"`
	Eps   float64      `json:"eps"`
	N     int          `json:"n"`
	Seed  int64        `json:"seed"`
	Pairs int          `json:"pairs"`
	Rows  []QualityRow `json:"rows"`
}

// ServeReport is the schema of BENCH_serve.json (lightnet loadgen): one
// loadgen run against a lightnet serve instance. The identity fields and
// the response digest are deterministic — the query stream is a seeded
// counter hash and responses carry no timestamps — so the gate
// (cmd/benchdiff -kind serve) compares them exactly; QPS and the latency
// percentiles are wall-clock and gated only within a coarse tolerance.
type ServeReport struct {
	// Workload is the scenario spec the served graph was built from;
	// Object is spanner | slt.
	Workload string  `json:"workload"`
	Object   string  `json:"object"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	K        int     `json:"k"`
	Eps      float64 `json:"eps"`
	Seed     int64   `json:"seed"`
	// Edges is the served object's edge count and Digest the network's
	// content digest — both pure functions of the build.
	Edges  int    `json:"edges"`
	Digest string `json:"digest"`
	// SnapshotDigest/ArtifactDigest name the store files the server
	// booted from (internal/store content digests); empty for
	// in-memory builds. When both the baseline and the fresh report
	// carry one, the gate compares it exactly.
	SnapshotDigest string `json:"snapshot_digest,omitempty"`
	ArtifactDigest string `json:"artifact_digest,omitempty"`
	// Clients/Queries shape the loadgen run; Errors must be zero (the
	// gate enforces this on the fresh report unconditionally).
	Clients int `json:"clients"`
	Queries int `json:"queries"`
	Errors  int `json:"errors"`
	// ResponseDigest folds every response body in query order — the
	// service-layer determinism contract in one value.
	ResponseDigest string `json:"response_digest"`
	// Wall-clock: achieved throughput and nearest-rank percentiles.
	QPS       float64 `json:"qps"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// WriteFile marshals the report (any of the schemas above) as indented
// JSON with a trailing newline — the exact format of the committed
// baselines, so regeneration produces minimal diffs.
func WriteFile(path string, report any) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}

// LoadEngine reads and parses an engine report.
func LoadEngine(path string) (*EngineReport, error) {
	var rep EngineReport
	if err := load(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// LoadQuality reads and parses a quality report.
func LoadQuality(path string) (*QualityReport, error) {
	var rep QualityReport
	if err := load(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// LoadServe reads and parses a serve report.
func LoadServe(path string) (*ServeReport, error) {
	var rep ServeReport
	if err := load(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// LoadGenerators reads and parses a generators report.
func LoadGenerators(path string) (*GeneratorsReport, error) {
	var rep GeneratorsReport
	if err := load(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func load(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	return nil
}
