// Command perfbench is the repository's benchmark. One run takes one
// workload: it generates the workload's knn graph, builds the §4
// shallow-light tree and the §5 light spanner, writes the spanner to the
// store, cold-starts a query network from the files, serves a seeded
// query stream to closed-loop clients over loopback HTTP, and checks
// every output against computations of its own. The last line of
// standard output is one JSON object with the operations attempted and
// failed and the metrics of the run. See README.md.
//
// Usage (run.sh builds the binary and passes the flags through):
//
//	perfbench --workload pipeline-knn --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lightnet"
	"lightnet/internal/experiments"
	"lightnet/internal/serve"
)

// procStart approximates the process start; set-up is timed from it.
var procStart = time.Now()

// coldSetups is the number of cold set-ups setup_s is the median of: this
// process's own and the rest each in a fresh process, since a second
// set-up in one process would find its heap and caches warm.
const coldSetups = 3

// Build parameters, the same on every workload.
const (
	sltRoot    = 0
	sltEps     = 0.5
	spannerK   = 2
	spannerEps = 0.25
	clients    = 2 // closed-loop clients, one per core of the reference host
	// graphSeed fixes each workload's graph: rounds, messages and build
	// times depend on the instance far more than on the builders' seed,
	// and runs with different seeds must agree. --seed drives the
	// builders, the query stream and the sample of checked answers.
	graphSeed = 1
)

// workload is one input of the benchmark.
type workload struct {
	name string
	why  string
	n    int // vertices of the knn graph (dim 2, k 6)
	// measured builds with the CONGEST pipelines at Workers=1 (and checks
	// them against their accounted twins); otherwise the accounted
	// builders run.
	measured bool
	// A round is split into slices. Each slice runs boots cold starts
	// and serves its share of the queries; builds SLT-and-spanner builds
	// are spread evenly over the slices. So every metric's samples span
	// the whole round.
	slices  int
	builds  int // divides slices
	boots   int // cold starts per slice
	queries int // queries per round
	// roundSeconds is how long a round takes on the reference host.
	// --seconds sets the number of rounds from it, so that a run's work
	// does not depend on how fast the host happens to be.
	roundSeconds float64
}

var workloads = []workload{
	{
		name: "pipeline-knn", n: 50_000, measured: true,
		slices: 6, builds: 3, boots: 4, queries: 1200, roundSeconds: 57,
		why: "knn n=5e4 built by the measured CONGEST pipelines at Workers=1: the engine and its stage programs do the building, and count the paper's rounds and messages",
	},
	{
		name: "serve-knn", n: 20_000,
		slices: 25, builds: 25, boots: 2, queries: 5000, roundSeconds: 29,
		why: "knn n=2e4 and 5000 queries from 2 closed-loop clients: HTTP, the cache, the batcher and Dijkstra sweeps set the latency",
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: pipeline-knn | serve-knn")
	seed := flag.Int64("seed", 1, "seed of the builders, the query stream and the sample of checked answers")
	seconds := flag.Float64("seconds", 40, "run length on the reference host; sets the number of rounds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	setupOnly := flag.Bool("setup-only", false, "only generate and freeze the workload's graph, and print the seconds since the process started")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (pipeline-knn|serve-knn), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if *setupOnly {
		g, err := experiments.BuildWorkload("knn", w.n, graphSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		g.Freeze()
		fmt.Println(time.Since(procStart).Seconds())
		return
	}
	b := &bench{w: *w, seed: *seed, trace: &tracer{enabled: *trace == 1, workload: w.name}, samples: map[string][]float64{}}
	res, err := b.run(max(1, int(math.Round(*seconds/w.roundSeconds))))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// coldSetup runs the workload's set-up in a fresh process of this program
// and returns the seconds from that process's start to its frozen graph.
func coldSetup(workload string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one run.
type bench struct {
	w     workload
	seed  int64
	trace *tracer
	dir   string // the run's output folder

	g        *lightnet.Graph
	edges    []lightnet.Edge
	gAdj     *adj      // G, built by the benchmark
	mstW     float64   // w(MST) by the benchmark's Kruskal
	rootDist []float64 // exact distances from the SLT root
	queries  []serve.Query
	checked  []bool // the queries whose answers are checked

	attempted, failed int

	// The last round's outputs.
	slt *lightnet.SLTResult
	sp  *lightnet.SpannerResult
	nw  *serve.Network

	// Samples pooled over the rounds; each metric is their median.
	samples map[string][]float64
	lat     []time.Duration // every query's client latency
}

func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// op counts one operation, failed when err is not nil.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
		}
	}
}

func (b *bench) run(rounds int) (*result, error) {
	// Set-up: generate and freeze the graph, timed from the process start.
	b.trace.begin("experiments.BuildWorkload", "experiments")
	t0 := time.Now()
	g, err := experiments.BuildWorkload("knn", b.w.n, graphSeed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	b.trace.end()
	b.trace.begin("graph.Freeze", "graph")
	t0 = time.Now()
	g.Freeze()
	freezeS := time.Since(t0).Seconds()
	b.trace.end()
	b.sample("setup_s", time.Since(procStart).Seconds())
	b.g, b.edges = g, g.Edges()
	for i := 1; i < coldSetups; i++ {
		b.trace.begin("cold set-up in a fresh process", "experiments")
		s, err := coldSetup(b.w.name)
		b.trace.end()
		if err != nil {
			return nil, err
		}
		b.sample("setup_s", s)
	}

	b.dir = filepath.Join("perfbench-out", fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}

	// The benchmark's own view of G, computed once and not timed.
	b.trace.begin("oracles", "perfbench")
	b.gAdj = newAdj(g.N(), b.edges, nil)
	var forest int
	b.mstW, forest = kruskalWeight(g.N(), b.edges)
	if forest != g.N()-1 {
		return nil, fmt.Errorf("generated graph is not connected (%d MST edges)", forest)
	}
	b.rootDist = b.gAdj.dijkstra(sltRoot)
	b.queries = queryStream(b.seed, b.w.queries, g.N())
	b.checked = checkedQueries(b.seed, b.queries)
	b.trace.end()

	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		if err := b.round(); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		fmt.Fprintf(os.Stderr, "round %d took %.1f s\n", round, time.Since(t0).Seconds())
	}
	// The store's files are rewritten by every run; only the samples and
	// spans are kept.
	for _, path := range []string{b.snapPath(), b.artPath()} {
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}

	if b.trace.enabled {
		b.sample("experiments.build_workload_s", genS)
		b.sample("graph.freeze_s", freezeS)
		if err := b.layers(); err != nil {
			return nil, err
		}
		if err := b.trace.write(filepath.Join(b.dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	b.endToEndValues()
	metrics, err := b.values(endToEnd)
	if err != nil {
		return nil, err
	}
	if b.trace.enabled {
		// Traced runs report the layers; their end-to-end values go to
		// standard error, to compare with an untraced run.
		for _, d := range endToEnd {
			fmt.Fprintf(os.Stderr, "traced %s %.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
		}
		if metrics, err = b.values(perLayer); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(b.dir, "samples.json"), b.samples); err != nil {
		return nil, err
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// values returns every metric of defs, each the median of its samples.
func (b *bench) values(defs []metricDef) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	var missing []string
	for _, d := range defs {
		xs := b.samples[d.Name]
		if len(xs) == 0 {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: median(xs), Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no value for %v", missing)
	}
	return out, nil
}

// endToEndValues adds the metrics read off the last round's outputs,
// and the latency percentiles over every query of the run.
func (b *bench) endToEndValues() {
	c := b.slt.Cost
	b.samples["slt_rounds"] = []float64{float64(c.Rounds)}
	b.samples["slt_messages"] = []float64{float64(c.Messages)}
	b.samples["slt_lightness"] = []float64{b.slt.Lightness}
	c = b.sp.Cost
	b.samples["spanner_rounds"] = []float64{float64(c.Rounds)}
	b.samples["spanner_messages"] = []float64{float64(c.Messages)}
	b.samples["spanner_lightness"] = []float64{b.sp.Lightness}
	b.samples["spanner_edges"] = []float64{float64(len(b.sp.Edges))}
	b.samples["serve_p50_ms"] = []float64{ms(percentile(b.lat, 50))}
	b.samples["serve_p99_ms"] = []float64{ms(percentile(b.lat, 99))}
}

// writeJSON stores v in the run's output folder, for a reader who wants
// the samples behind a median.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs f after a garbage collection and returns its wall time
// and the bytes it allocated.
func measure(f func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc
}

// round builds, checks, stores, cold-starts and serves once. The first
// slice also checks the builds, writes the files and starts the server
// on the network it cold-started; later slices rebuild, reboot and serve
// the next part of the query stream on the same server.
func (b *bench) round() (err error) {
	qs := b.queries
	bodies, lat, errs := make([][]byte, len(qs)), make([]time.Duration, len(qs)), make([]error, len(qs))
	var srv *loadServer
	defer func() {
		if srv == nil {
			return
		}
		stats, stopErr := srv.stop()
		if err == nil {
			err = stopErr
		}
		b.serveStats(stats, srv.elapsed)
	}()
	per := (len(qs) + b.w.slices - 1) / b.w.slices
	for s := 0; s < b.w.slices; s++ {
		if s%(b.w.slices/b.w.builds) == 0 {
			prevSLT, prevSp := b.slt, b.sp
			if err := b.build(); err != nil {
				return err
			}
			if s == 0 {
				b.checkBuilds()
			} else {
				b.op("rebuild", checkRebuild(prevSLT, b.slt, prevSp, b.sp))
			}
		}
		if s == 0 {
			if err := b.write(); err != nil {
				return err
			}
		}
		if err := b.boot(); err != nil {
			return err
		}
		if s == 0 {
			if srv, err = startServer(b.nw); err != nil {
				return err
			}
		}
		lo, hi := min(len(qs), s*per), min(len(qs), (s+1)*per)
		runtime.GC()
		b.trace.begin("serve queries", "serve")
		srv.replay(qs[lo:hi], clients, bodies[lo:hi], lat[lo:hi], errs[lo:hi])
		b.trace.end()
	}
	b.lat = append(b.lat, lat...)
	b.checkAnswers(bodies, errs)
	return nil
}

// build runs one timed SLT build and one timed spanner build.
func (b *bench) build() error {
	opts := []lightnet.Option{lightnet.WithSeed(b.seed)}
	if b.w.measured {
		opts = append(opts, lightnet.WithMeasured(), lightnet.WithWorkers(1))
	}
	var err error
	b.trace.begin("lightnet.BuildSLT", "slt")
	d, a1 := measure(func() { b.slt, err = lightnet.BuildSLT(b.g, sltRoot, sltEps, opts...) })
	b.trace.end()
	if err != nil {
		return err
	}
	b.sample("slt_build_s", d.Seconds())
	b.trace.begin("lightnet.BuildLightSpanner", "spanner")
	d, a2 := measure(func() { b.sp, err = lightnet.BuildLightSpanner(b.g, spannerK, spannerEps, opts...) })
	b.trace.end()
	if err != nil {
		return err
	}
	b.sample("spanner_build_s", d.Seconds())
	b.sample("alloc_mb", float64(a1+a2)/(1<<20))
	return nil
}

// checkBuilds checks the round's first SLT and spanner against the
// benchmark's own computations; a measured build must also equal its
// accounted twin.
func (b *bench) checkBuilds() {
	b.trace.begin("check builds", "perfbench")
	defer b.trace.end()
	b.op("slt", checkSLT(b.edges, b.slt, b.rootDist, b.mstW, sltEps))
	edgeErr := checkEdgeSet(len(b.edges), b.sp.Edges)
	b.op("spanner edge set", edgeErr)
	if edgeErr != nil { // the other spanner checks cannot index its edges
		b.op("spanner stretch", edgeErr)
		b.op("spanner weights", edgeErr)
	} else {
		b.op("spanner stretch", checkSpannerStretch(b.g.N(), b.edges, b.sp.Edges, spannerK, spannerEps))
		b.op("spanner weights", checkWeights(b.edges, b.sp.Edges, b.mstW, b.sp.Weight, b.sp.MSTWeight, b.sp.Lightness))
	}
	if !b.w.measured {
		return
	}
	slt, err := lightnet.BuildSLT(b.g, sltRoot, sltEps, lightnet.WithSeed(b.seed))
	if err == nil {
		err = checkSameSLT(b.slt, slt)
	}
	b.op("measured slt = accounted slt", err)
	sp, err := lightnet.BuildLightSpanner(b.g, spannerK, spannerEps, lightnet.WithSeed(b.seed), lightnet.WithBucketAlgo(lightnet.BucketBaswana))
	if err == nil {
		err = checkSameSpanner(b.sp, sp)
	}
	b.op("measured spanner = accounted spanner", err)
}

// serveStats records a round's throughput and the server's counters.
func (b *bench) serveStats(st serve.Stats, elapsed time.Duration) {
	b.sample("serve_qps", float64(len(b.queries))/elapsed.Seconds())
	b.sample("serve.cache_hit_ratio", float64(st.CacheHits)/float64(max(1, st.CacheHits+st.CacheMisses)))
	b.sample("serve.sweeps_per_query", float64(st.Sweeps)/float64(max(1, st.Queries)))
	b.sample("serve.batch_mean", float64(st.BatchedQueries)/float64(max(1, st.Batches)))
}

// checkAnswers checks a round's answers: every hot query and a seeded
// sample of the rest against Dijkstra on H and G, run here.
func (b *bench) checkAnswers(bodies [][]byte, errs []error) {
	b.trace.begin("check answers", "perfbench")
	defer b.trace.end()
	bySource := map[int][]int{}
	for i, q := range b.queries {
		if errs[i] != nil {
			b.op(describe(q), errs[i])
		} else if !b.checked[i] {
			b.op(describe(q), nil)
		} else {
			bySource[int(q.U)] = append(bySource[int(q.U)], i)
		}
	}
	sources := make([]int, 0, len(bySource))
	for u := range bySource {
		sources = append(sources, u)
	}
	sort.Ints(sources)
	h := newAdj(b.g.N(), b.edges, b.sp.Edges)
	bound := float64(2*spannerK-1) * (1 + spannerEps)
	for _, u := range sources {
		dH := h.dijkstra(u)
		var dG []float64
		for _, i := range bySource[u] {
			q := b.queries[i]
			if q.Kind == serve.KindStretch && dG == nil {
				dG = b.gAdj.dijkstra(u)
			}
			b.op(describe(q), checkAnswer(q, bodies[i], h, dH, dG, bound))
		}
	}
}
