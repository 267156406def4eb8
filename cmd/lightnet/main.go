// Command lightnet builds any of the paper's objects on a generated
// graph and prints certified quality plus distributed cost.
//
// Usage:
//
//	lightnet -obj spanner   -graph er -n 512 -k 2 -eps 0.25
//	lightnet -obj spanner   -graph er -n 512 -k 2 -mode measured
//	lightnet -obj slt       -graph geometric -n 512 -eps 0.5 -root 0
//	lightnet -obj slt       -graph er -n 512 -eps 0.5 -mode measured
//	lightnet -obj sltinv    -graph er -n 512 -gamma 0.25
//	lightnet -obj net       -graph grid -n 400 -scale 10 -delta 0.5
//	lightnet -obj doubling  -graph geometric -n 256 -eps 0.5
//	lightnet -obj psi       -graph hard -n 400
//	lightnet -obj mst       -graph er -n 1024
//
// The SLT and the spanner support two execution modes: -mode accounted
// (default) charges the paper's primitive round formulas to a ledger;
// -mode measured runs the full §4/§5 pipeline as genuine per-vertex
// message passing on the CONGEST engine and reports measured rounds,
// messages and a per-stage breakdown. A measured run builds the
// identical object, bit for bit, as its accounted twin (for the
// spanner: the accounted run with -cluster baswana, the distributable
// per-bucket choice the pipeline executes).
//
// Measured runs accept -faults with a deterministic fault spec — the
// engine then drops/duplicates/delays messages and crashes vertices per
// the plan, every pipeline stage is validated and retried, and crash
// faults degrade the build to the surviving component:
//
//	lightnet -obj slt -graph er -n 512 -mode measured -faults drop=0.002,delay=0.01
//	lightnet -obj spanner -graph er -n 512 -mode measured -faults crash=17@0
//
// -graph accepts any scenario spec from the registry — a name plus
// optional parameters, e.g. "ba:m=4,maxw=10" or "knn:k=6,dim=3". The
// scenarios subcommand lists the catalog (full details in
// docs/SCENARIOS.md):
//
//	lightnet scenarios
//	lightnet -obj spanner -graph ba:m=4 -n 4096
//	lightnet -obj mst -graph edgelist:path=road.txt
//
// The bench subcommand is the one bench front door. Its default kind,
// -kind grid, runs the reproducible experiment pipeline: a JSON grid
// file (seed, repeats, sizes, workloads, per-construction knobs) is
// swept and a timestamped run folder of per-experiment CSVs plus logs
// is written. Re-running the same grid reproduces identical CSV content
// modulo the wall-time column.
//
// Each completed cell is checkpointed in the run folder's manifest, so
// a killed run resumes in seconds without recomputing finished cells:
//
//	lightnet bench -grid examples/grids/quick.json
//	lightnet bench -grid grid.json -out results/nightly
//	lightnet bench -grid grid.json -out results/nightly -resume
//	lightnet bench                      (built-in headline grid)
//
// The other kinds write the committed baselines that cmd/benchdiff
// gates (-out defaults to BENCH_<kind>.json in the current directory;
// run them from the repository root):
//
//	lightnet bench -kind engine                      (MIS hot path + measured pipelines, n=2048)
//	lightnet bench -kind engine -pipeline-n 1000000  (plus the single-run knn pipelines)
//	lightnet bench -kind generators -million=false   (spatial hash vs brute force)
//	lightnet bench -kind quality                     (every scenario vs the greedy oracle)
//
// Every kind takes -cpuprofile, -memprofile and -trace, which wrap
// exactly the measured work; a grid run puts relative profile paths in
// its run folder:
//
//	lightnet bench -kind engine -pipeline-n 1000000 -cpuprofile /tmp/engine.pprof -out /tmp/e.json
//	go tool pprof -top /tmp/engine.pprof
//
// The serve subcommand is the build-once, query-many service: it builds
// the spanner (or SLT) once at startup and answers /distance, /path and
// /stretch queries over HTTP, with request batching and an LRU response
// cache on the hot path; loadgen replays a seeded deterministic query
// stream against it and reports QPS, p50/p99 latency and the ordered
// response digest (written as BENCH_serve.json with -out, gated in CI by
// cmd/benchdiff -kind serve):
//
//	lightnet serve -graph er -n 512 -k 2 -eps 0.25 -addr 127.0.0.1:8080
//	lightnet loadgen -addr http://127.0.0.1:8080 -clients 8 -queries 5000 -out BENCH_serve.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"lightnet"
	"lightnet/internal/benchfmt"
	"lightnet/internal/congest"
	"lightnet/internal/experiments"
	"lightnet/internal/serve"
	"lightnet/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBench(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "build" {
		if err := runBuild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet build:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := runLoadgen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		printScenarios()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lightnet:", err)
		os.Exit(1)
	}
}

// runServe is the build-once, query-many service: it builds (or loads)
// a graph, builds the spanner or SLT once, and serves distance/path/
// stretch queries over HTTP until SIGINT/SIGTERM, then drains in-flight
// batches and exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using -addr :0)")
		obj      = fs.String("obj", "spanner", "served object: spanner | slt")
		kind     = fs.String("graph", "er", "scenario spec (see `lightnet scenarios`)")
		n        = fs.Int("n", 512, "number of vertices")
		k        = fs.Int("k", 2, "spanner stretch parameter")
		eps      = fs.Float64("eps", 0.25, "ε")
		root     = fs.Int("root", 0, "SLT root")
		seed     = fs.Int64("seed", 1, "build seed")
		load     = fs.String("load", "", "load the graph from this file instead of generating")
		snapPath = fs.String("snapshot", "", "cold-start: load the base graph from this *.csrz snapshot (see `lightnet build`)")
		artPath  = fs.String("artifact", "", "cold-start: load the served object from this *.art artifact (requires -snapshot)")
		cacheSz  = fs.Int("cache", 0, "LRU response-cache capacity (0 = default 65536, negative = disabled)")
		window   = fs.Duration("batch-window", 0, "batcher coalescing window (0 = default 200µs)")
		maxBatch = fs.Int("batch-max", 0, "flush a batch at this many pending queries (0 = default 256)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *artPath != "" && *snapPath == "" {
		return errors.New("-artifact requires -snapshot: an artifact only makes sense against its parent snapshot")
	}
	if *snapPath != "" && *load != "" {
		return errors.New("-snapshot and -load are mutually exclusive")
	}

	var g *lightnet.Graph
	var err error
	var snap *store.Snapshot
	workload := *kind
	switch {
	case *snapPath != "":
		// Cold start: the graph comes from a store snapshot, not a
		// generator — millisecond boot instead of regeneration.
		if snap, err = store.OpenGraph(*snapPath); err != nil {
			return err
		}
		g = snap.Graph
		workload = snap.Meta.Workload
	case *load != "":
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		g, err = lightnet.ReadGraph(f)
		f.Close()
		workload = "load:" + *load
	default:
		g, err = makeGraph(*kind, *n, *seed)
	}
	if err != nil {
		return err
	}

	var nw *serve.Network
	if *artPath != "" {
		// Full cold start: served object from the artifact too — no
		// spanner/SLT rebuild. The artifact's GraphDigest must pin
		// exactly this snapshot.
		art, aerr := store.OpenArtifact(*artPath)
		if aerr != nil {
			return aerr
		}
		nw, err = serve.NetworkFromArtifact(snap, art)
	} else {
		switch *obj {
		case "spanner":
			nw, err = serve.BuildSpannerNetwork(g, workload, *k, *eps, *seed)
		case "slt":
			nw, err = serve.BuildSLTNetwork(g, workload, lightnet.Vertex(*root), *eps, *seed)
		default:
			return fmt.Errorf("unknown -obj %q (spanner|slt)", *obj)
		}
		if err == nil && snap != nil {
			nw.SnapshotDigest = snap.Digest
		}
	}
	if err != nil {
		return err
	}

	srv := serve.NewServer(nw, serve.Options{
		CacheSize: *cacheSz,
		Batch:     serve.BatcherOptions{Window: *window, MaxBatch: *maxBatch},
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			l.Close()
			return err
		}
	}
	fmt.Printf("serving %s on %s: n=%d m=%d edges=%d lightness=%.2f digest=%s\n",
		nw.Object, l.Addr(), g.N(), g.M(), nw.Edges, nw.Lightness, nw.Digest)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(l); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("drained: queries=%d cache hit/miss=%d/%d batches=%d sweeps=%d\n",
		st.Queries, st.CacheHits, st.CacheMisses, st.Batches, st.Sweeps)
	return nil
}

// runLoadgen replays the seeded deterministic query stream against a
// running lightnet serve instance and reports throughput, latency
// percentiles and the ordered response digest; -out writes the
// BENCH_serve.json report the CI gate compares.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "base URL of the server")
		clients = fs.Int("clients", 8, "concurrent closed-loop workers")
		queries = fs.Int("queries", 5000, "total queries to issue")
		seed    = fs.Int64("seed", 1, "query-stream seed")
		out     = fs.String("out", "", "write a BENCH_serve.json report here")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	res, err := serve.RunLoadgen(serve.LoadgenOptions{
		BaseURL: *addr, Clients: *clients, Queries: *queries, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %s %s n=%d edges=%d\n",
		res.Info.Object, res.Info.Workload, res.Info.N, res.Info.Edges)
	fmt.Printf("queries=%d errors=%d clients=%d elapsed=%s\n",
		res.Queries, res.Errors, *clients, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("qps=%.0f p50=%s p99=%s digest=%s\n",
		res.QPS, res.P50, res.P99, res.ResponseDigest)
	if res.Errors > 0 {
		return fmt.Errorf("%d queries failed", res.Errors)
	}
	if *out != "" {
		rep := benchfmt.ServeReport{
			Workload: res.Info.Workload, Object: res.Info.Object,
			N: res.Info.N, M: res.Info.M, K: res.Info.K,
			Eps: res.Info.Eps, Seed: res.Info.Seed,
			Edges: res.Info.Edges, Digest: res.Info.Digest,
			SnapshotDigest: res.Info.SnapshotDigest,
			ArtifactDigest: res.Info.ArtifactDigest,
			Clients:        *clients, Queries: res.Queries, Errors: res.Errors,
			ResponseDigest: res.ResponseDigest,
			QPS:            res.QPS,
			P50Micros:      float64(res.P50.Nanoseconds()) / 1e3,
			P99Micros:      float64(res.P99.Nanoseconds()) / 1e3,
		}
		if err := benchfmt.WriteFile(*out, rep); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", *out)
	}
	return nil
}

func run() error {
	var (
		obj   = flag.String("obj", "spanner", "spanner|slt|sltinv|net|doubling|psi|mst")
		kind  = flag.String("graph", "er", "scenario spec, e.g. er, geometric:dim=3, ba:m=4 (see `lightnet scenarios`)")
		n     = flag.Int("n", 512, "number of vertices")
		k     = flag.Int("k", 2, "spanner stretch parameter")
		eps   = flag.Float64("eps", 0.25, "ε")
		gamma = flag.Float64("gamma", 0.25, "γ for the inverse SLT")
		scale = flag.Float64("scale", 0, "net scale Δ (default: diameter/6)")
		delta = flag.Float64("delta", 0.5, "net approximation δ")
		root  = flag.Int("root", 0, "SLT root")
		mode  = flag.String("mode", "accounted", "slt/spanner execution: accounted (ledger formulas) | measured (genuine engine message passing)")
		clust = flag.String("cluster", "en17", "spanner per-bucket algorithm: en17 | greedy | baswana (measured mode implies baswana)")
		work  = flag.Int("workers", 0, "engine worker pool for measured runs (0 = GOMAXPROCS)")
		fspec = flag.String("faults", "", "fault spec for measured runs, e.g. drop=0.01,crash=5@10 (docs/ARCHITECTURE.md)")
		retry = flag.Int("retries", 0, "per-stage validator retry budget for -faults runs (0 = default)")
		seed  = flag.Int64("seed", 1, "random seed")
		nover = flag.Bool("noverify", false, "skip exact verification (large graphs)")
		load  = flag.String("load", "", "load the graph from this file instead of generating")
		save  = flag.String("save", "", "save the generated graph to this file")
	)
	flag.Parse()

	// Fail fast on mode misuse: only the SLT and the spanner support
	// measured execution, matching the grid format's validation.
	switch *mode {
	case "accounted":
	case "measured":
		if *obj != "slt" && *obj != "spanner" {
			return fmt.Errorf("-mode measured is supported only for -obj slt and -obj spanner (got %q)", *obj)
		}
	default:
		return fmt.Errorf("unknown -mode %q (accounted|measured)", *mode)
	}
	switch *clust {
	case "en17", "greedy", "baswana":
	default:
		return fmt.Errorf("unknown -cluster %q (en17|greedy|baswana)", *clust)
	}
	// Mirror the grid format's validation: -cluster applies only to the
	// spanner, and a measured spanner always runs the baswana bucket
	// clustering — an explicitly different -cluster is a contradiction,
	// not something to override silently.
	clusterSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cluster" {
			clusterSet = true
		}
	})
	if clusterSet && *obj != "spanner" {
		return fmt.Errorf("-cluster applies only to -obj spanner (got %q)", *obj)
	}
	if *mode == "measured" && clusterSet && *clust != "baswana" {
		return fmt.Errorf("-mode measured runs the baswana bucket clustering (got -cluster %q)", *clust)
	}
	if *fspec != "" && *mode != "measured" {
		return fmt.Errorf("-faults requires -mode measured (the accounted path exchanges no messages)")
	}
	if *retry != 0 && *fspec == "" {
		return fmt.Errorf("-retries requires -faults (fault-free stages do not retry)")
	}

	var g *lightnet.Graph
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		g, err = lightnet.ReadGraph(f)
		f.Close()
	} else {
		g, err = makeGraph(*kind, *n, *seed)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			return ferr
		}
		if err := lightnet.WriteGraph(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("graph %s: n=%d m=%d\n", *kind, g.N(), g.M())

	switch *obj {
	case "spanner":
		spOpts := []lightnet.Option{lightnet.WithSeed(*seed)}
		switch *clust {
		case "greedy":
			spOpts = append(spOpts, lightnet.WithBucketAlgo(lightnet.BucketGreedy))
		case "baswana":
			spOpts = append(spOpts, lightnet.WithBucketAlgo(lightnet.BucketBaswana))
		}
		if *mode == "measured" {
			spOpts = append(spOpts, lightnet.WithMeasured(), lightnet.WithWorkers(*work))
		}
		if *fspec != "" {
			spOpts = append(spOpts, lightnet.WithFaultSpec(*fspec), lightnet.WithStageRetries(*retry))
		}
		res, err := lightnet.BuildLightSpanner(g, *k, *eps, spOpts...)
		if err != nil {
			return err
		}
		fmt.Printf("spanner: edges=%d lightness=%.2f rounds=%d messages=%d mode=%s\n",
			len(res.Edges), res.Lightness, res.Cost.Rounds, res.Cost.Messages, *mode)
		if res.Cost.Measured {
			printBreakdown(res.Cost)
		}
		printFaults(res.Faults)
		if !*nover {
			if res.Faults != nil && res.Faults.Survivors < g.N() {
				fmt.Printf("degraded to %d/%d survivors: skipping full-graph verification\n",
					res.Faults.Survivors, g.N())
			} else {
				maxS, meanS, err := lightnet.VerifySpanner(g, res)
				if err != nil {
					return err
				}
				fmt.Printf("verified: stretch max=%.3f mean=%.3f (bound %.3f)\n",
					maxS, meanS, float64(2**k-1)*(1+*eps))
			}
		}
	case "slt":
		sltOpts := []lightnet.Option{lightnet.WithSeed(*seed)}
		if *mode == "measured" {
			sltOpts = append(sltOpts, lightnet.WithMeasured(), lightnet.WithWorkers(*work))
		}
		if *fspec != "" {
			sltOpts = append(sltOpts, lightnet.WithFaultSpec(*fspec), lightnet.WithStageRetries(*retry))
		}
		res, err := lightnet.BuildSLT(g, lightnet.Vertex(*root), *eps, sltOpts...)
		if err != nil {
			return err
		}
		fmt.Printf("slt: lightness=%.3f rounds=%d messages=%d mode=%s\n",
			res.Lightness, res.Cost.Rounds, res.Cost.Messages, *mode)
		printBreakdown(res.Cost)
		printFaults(res.Faults)
		if !*nover {
			if res.Faults != nil && res.Faults.Survivors < g.N() {
				fmt.Printf("degraded to %d/%d survivors: skipping full-graph verification\n",
					res.Faults.Survivors, g.N())
			} else {
				light, stretch, err := lightnet.VerifySLT(g, res)
				if err != nil {
					return err
				}
				fmt.Printf("verified: lightness=%.3f rootStretch=%.3f\n", light, stretch)
			}
		}
	case "sltinv":
		res, err := lightnet.BuildSLTInverse(g, lightnet.Vertex(*root), *gamma, lightnet.WithSeed(*seed))
		if err != nil {
			return err
		}
		light, stretch, err := lightnet.VerifySLT(g, res)
		if err != nil {
			return err
		}
		fmt.Printf("slt-inverse: lightness=%.4f (≤1+γ=%.4f) rootStretch=%.2f\n",
			light, 1+*gamma, stretch)
	case "net":
		s := *scale
		if s == 0 {
			s = g.WeightedDiameterApprox() / 6
		}
		res, err := lightnet.BuildNet(g, s, *delta, lightnet.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("net: |N|=%d covering=%.2f separation=%.2f iterations=%d rounds=%d\n",
			len(res.Points), res.Alpha, res.Beta, res.Iterations, res.Cost.Rounds)
		if !*nover {
			if err := lightnet.VerifyNet(g, res); err != nil {
				return err
			}
			fmt.Println("verified: covering and separation hold")
		}
	case "doubling":
		res, err := lightnet.BuildDoublingSpanner(g, *eps, lightnet.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("doubling spanner: edges=%d lightness=%.2f rounds=%d\n",
			len(res.Edges), res.Lightness, res.Cost.Rounds)
		if !*nover {
			maxS, _, err := lightnet.VerifySpanner(g, res)
			if err != nil {
				return err
			}
			fmt.Printf("verified: stretch=%.3f\n", maxS)
		}
	case "psi":
		psi, mstW, err := lightnet.EstimateMSTWeight(g, lightnet.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("psi: Ψ=%.0f L=%.0f ratio=%.2f (bound O(α·log n)≈%.0f)\n",
			psi, mstW, psi/mstW, 2.25*4*math.Log2(float64(g.N())))
	case "mst":
		edges, w, err := lightnet.MST(g)
		if err != nil {
			return err
		}
		fmt.Printf("mst: edges=%d weight=%.1f\n", len(edges), w)
	case "engine":
		return runEngineDemos(g, *seed)
	default:
		return fmt.Errorf("unknown object %q", *obj)
	}
	return nil
}

// runEngineDemos executes the genuine message-passing programs on the
// graph and prints their measured CONGEST costs.
func runEngineDemos(g *lightnet.Graph, seed int64) error {
	fmt.Printf("%-22s %8s %10s %8s\n", "program", "rounds", "messages", "phases")
	if _, _, s, err := congest.RunBFS(g, 0, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "bfs-tree", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunFloodMin(g, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "leader-election", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunMST(g, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "mst", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunLubyMIS(g, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "luby-mis", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunRulingSet(g, 3, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "ruling-set(k=3)", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunEN17Spanner(g, 2, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "en17-spanner(k=2)", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, _, s, err := congest.RunNearestSource(g, []lightnet.Vertex{0}, g.N(), seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "nearest-source-bf", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	return nil
}

// printBreakdown dumps a cost's per-stage breakdown one line deep:
// measured pipelines in stage-execution order, accounted ledgers in the
// canonical sorted-label order (Ledger.Labels) — both deterministic, so
// CLI output is reproducible byte-for-byte.
func printBreakdown(c lightnet.Cost) {
	parts := make([]string, 0, len(c.Breakdown))
	if c.Measured {
		for _, s := range c.Stages {
			parts = append(parts, fmt.Sprintf("%s:%d", s.Stage, s.Rounds))
		}
		fmt.Printf("stages: %s\n", strings.Join(parts, ";"))
		return
	}
	labels := make([]string, 0, len(c.Breakdown))
	for label := range c.Breakdown {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		parts = append(parts, fmt.Sprintf("%s:%d", label, c.Breakdown[label]))
	}
	fmt.Printf("breakdown: %s\n", strings.Join(parts, ";"))
}

// printFaults dumps a faulted measured run's diagnostics (no-op for
// fault-free runs).
func printFaults(f *lightnet.FaultReport) {
	if f == nil {
		return
	}
	fmt.Printf("faults: dropped=%d duplicated=%d delayed=%d retries=%d survivors=%d\n",
		f.Dropped, f.Duplicated, f.Delayed, f.Retries, f.Survivors)
}

// makeGraph resolves -graph through the scenario registry, so the CLI
// accepts exactly the specs the grid format does.
func makeGraph(kind string, n int, seed int64) (*lightnet.Graph, error) {
	return experiments.BuildWorkload(kind, n, seed)
}

// printScenarios lists the scenario catalog: every registered family
// with its parameters and defaults.
func printScenarios() {
	fmt.Println("scenario specs: name or name:key=val,key=val (docs/SCENARIOS.md)")
	fmt.Println()
	for _, s := range experiments.Scenarios() {
		fmt.Printf("%-10s %s\n", s.Name, s.Summary)
		for _, p := range s.Params {
			if p.Default == "" {
				fmt.Printf("    %-8s %s\n", p.Name, p.Doc)
			} else {
				fmt.Printf("    %-8s %s (default %s)\n", p.Name, p.Doc, p.Default)
			}
		}
	}
}
