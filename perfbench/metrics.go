package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the library and the service sees;
// every untraced run reports all of them. bound is the share of the
// parent's median by which a metric may worsen before a change counts
// as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slt_build_s", "s", "lower", 0.25},
	{"spanner_build_s", "s", "lower", 0.25},
	{"slt_rounds", "rounds", "lower", 0.1},
	{"spanner_rounds", "rounds", "lower", 0.1},
	{"slt_messages", "messages", "lower", 0.1},
	{"spanner_messages", "messages", "lower", 0.1},
	{"slt_lightness", "ratio", "lower", 0.05},
	{"spanner_lightness", "ratio", "lower", 0.05},
	{"spanner_edges", "edges", "lower", 0.05},
	{"alloc_mb", "MB", "lower", 0.05},
	{"cold_start_ms", "ms", "lower", 0.25},
	{"serve_qps", "1/s", "higher", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.25},
	{"serve_p99_ms", "ms", "lower", 0.25},
}

// The stages of the measured pipelines, in pipeline order. The
// spanner's per-bucket stages are summed into "buckets".
var (
	sltStages     = []string{"mst", "tree", "spt", "spt-dist", "euler-up", "euler-down", "bfs", "bp-walk", "bp-heads", "bp-select", "h-mark", "final-spt", "final-dist"}
	spannerStages = []string{"mst", "bfs", "mst-weight-up", "mst-weight-down", "buckets"}
)

// perLayer are the metrics of single layers; every traced run reports
// all of them. A layer a workload does not run reports a count of 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "experiments.build_workload_s", Unit: "s", Better: "lower"},
		{Name: "graph.freeze_s", Unit: "s", Better: "lower"},
		{Name: "congest.boruvka_s", Unit: "s", Better: "lower"},
		{Name: "congest.boruvka_rounds", Unit: "rounds", Better: "lower"},
		{Name: "congest.boruvka_messages", Unit: "messages", Better: "lower"},
		{Name: "congest.ns_per_message", Unit: "ns", Better: "lower"},
		{Name: "mst.kruskal_s", Unit: "s", Better: "lower"},
		{Name: "mst.new_tree_s", Unit: "s", Better: "lower"},
		{Name: "mst.decompose_s", Unit: "s", Better: "lower"},
		{Name: "euler.build_s", Unit: "s", Better: "lower"},
		{Name: "sssp.spt_s", Unit: "s", Better: "lower"},
		{Name: "store.write_graph_s", Unit: "s", Better: "lower"},
		{Name: "store.write_artifact_ms", Unit: "ms", Better: "lower"},
		{Name: "store.open_graph_ms", Unit: "ms", Better: "lower"},
		{Name: "store.open_artifact_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.network_from_artifact_ms", Unit: "ms", Better: "lower"},
		{Name: "store.snapshot_bytes", Unit: "bytes", Better: "lower"},
		{Name: "store.artifact_bytes", Unit: "bytes", Better: "lower"},
		{Name: "serve.sweep_ms", Unit: "ms", Better: "lower"},
		{Name: "graph.dijkstra_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.handler_us", Unit: "us", Better: "lower"},
		{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
		{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serve.sweeps_per_query", Unit: "ratio", Better: "lower"},
		{Name: "serve.batch_mean", Unit: "queries", Better: "higher"},
	}
	for _, p := range []struct {
		name   string
		stages []string
	}{{"slt", sltStages}, {"spanner", spannerStages}} {
		for _, s := range p.stages {
			defs = append(defs,
				metricDef{Name: stageMetric(p.name, s, "rounds"), Unit: "rounds", Better: "lower"},
				metricDef{Name: stageMetric(p.name, s, "messages"), Unit: "messages", Better: "lower"})
		}
	}
	return defs
}()

func stageMetric(pipeline, stage, what string) string {
	return "congest.stage." + pipeline + "." + stage + "." + what
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
