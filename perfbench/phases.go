package main

import (
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lightnet"
	"lightnet/internal/euler"
	"lightnet/internal/experiments"
	"lightnet/internal/mst"
	"lightnet/internal/serve"
	"lightnet/internal/sssp"
	"lightnet/internal/store"
)

// write stores the graph snapshot and the spanner artifact.
func (b *bench) write() error {
	var digest string
	var err error
	b.trace.begin("store.WriteGraph", "store")
	d, _ := measure(func() {
		digest, err = store.WriteGraph(b.snapPath(), b.g, store.GraphMeta{Workload: "knn", Seed: graphSeed})
	})
	b.trace.end()
	if err != nil {
		return err
	}
	b.sample("store.write_graph_s", d.Seconds())
	art := lightnet.SpannerArtifact(b.sp, b.g, digest, spannerK, spannerEps, b.seed)
	b.trace.begin("store.WriteArtifact", "store")
	d, _ = measure(func() { _, err = store.WriteArtifact(b.artPath(), art) })
	b.trace.end()
	if err != nil {
		return err
	}
	b.sample("store.write_artifact_ms", ms(d))
	for path, metric := range map[string]string{b.snapPath(): "store.snapshot_bytes", b.artPath(): "store.artifact_bytes"} {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		b.sample(metric, float64(fi.Size()))
	}
	return nil
}

func (b *bench) snapPath() string { return filepath.Join(b.dir, "graph.csrz") }
func (b *bench) artPath() string  { return filepath.Join(b.dir, "spanner.art") }

// boot cold-starts a query network from the two files, boots times.
func (b *bench) boot() error {
	snapPath, artPath := b.snapPath(), b.artPath()
	b.trace.begin("cold starts", "serve")
	defer b.trace.end()
	for i := 0; i < b.w.boots; i++ {
		runtime.GC()
		b.trace.begin("store.OpenGraph", "store")
		t0 := time.Now()
		snap, err := store.OpenGraph(snapPath)
		t1 := time.Now()
		b.trace.end()
		if err != nil {
			return err
		}
		b.trace.begin("store.OpenArtifact", "store")
		a, err := store.OpenArtifact(artPath)
		t2 := time.Now()
		b.trace.end()
		if err != nil {
			return err
		}
		b.trace.begin("serve.NetworkFromArtifact", "serve")
		nw, err := serve.NetworkFromArtifact(snap, a)
		t3 := time.Now()
		b.trace.end()
		if err != nil {
			return err
		}
		b.sample("cold_start_ms", ms(t3.Sub(t0)))
		b.sample("store.open_graph_ms", ms(t1.Sub(t0)))
		b.sample("store.open_artifact_ms", ms(t2.Sub(t1)))
		b.sample("serve.network_from_artifact_ms", ms(t3.Sub(t2)))
		b.nw = nw
	}
	var err error
	if b.nw.Edges != len(b.sp.Edges) || b.nw.Base.N() != b.g.N() || b.nw.Base.M() != len(b.edges) {
		err = fmt.Errorf("booted network has n=%d m=%d and %d served edges, built graph n=%d m=%d and %d",
			b.nw.Base.N(), b.nw.Base.M(), b.nw.Edges, b.g.N(), len(b.edges), len(b.sp.Edges))
	}
	b.op("cold start", err)
	return nil
}

// layers runs, in traced runs only, the per-layer measurements that the
// end-to-end path does not already give: generation repeated, the
// measured Borůvka MST, the sequential substrates of the accounted
// builders, serve-side sweeps and the handler without a socket.
func (b *bench) layers() error {
	for rep := 0; rep < 2; rep++ {
		b.trace.begin("experiments.BuildWorkload", "experiments")
		t0 := time.Now()
		g, err := experiments.BuildWorkload("knn", b.w.n, graphSeed)
		t1 := time.Now()
		b.trace.end()
		if err != nil {
			return err
		}
		b.trace.begin("graph.Freeze", "graph")
		g.Freeze()
		t2 := time.Now()
		b.trace.end()
		b.sample("experiments.build_workload_s", t1.Sub(t0).Seconds())
		b.sample("graph.freeze_s", t2.Sub(t1).Seconds())
	}

	// The engine: Borůvka on one worker (DistributedMST sizes its pool by
	// GOMAXPROCS).
	prev := runtime.GOMAXPROCS(1)
	b.trace.begin("lightnet.DistributedMST", "congest")
	var st lightnet.EngineStats
	var err error
	d, _ := measure(func() { _, st, err = lightnet.DistributedMST(b.g, b.seed) })
	b.trace.end()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	b.sample("congest.boruvka_s", d.Seconds())
	b.sample("congest.boruvka_rounds", float64(st.Rounds))
	b.sample("congest.boruvka_messages", float64(st.Messages))
	b.sample("congest.ns_per_message", float64(d.Nanoseconds())/float64(max(1, st.Messages)))
	b.stageCounts()

	// The sequential substrates, in the order the accounted SLT calls them.
	for rep := 0; rep < 3; rep++ {
		if err := b.substrates(); err != nil {
			return err
		}
	}
	return b.serveLayers()
}

// stageCounts records the measured pipelines' per-stage rounds and
// messages; accounted builds run no stages and report 0.
func (b *bench) stageCounts() {
	for _, p := range []struct {
		name   string
		stages []string
		cost   lightnet.Cost
	}{{"slt", sltStages, b.slt.Cost}, {"spanner", spannerStages, b.sp.Cost}} {
		rounds, messages := map[string]int64{}, map[string]int64{}
		for _, s := range p.cost.Stages {
			name := s.Stage
			if p.name == "spanner" && len(name) > 7 && name[:7] == "bucket-" {
				name = "buckets"
			}
			rounds[name] += s.Rounds
			messages[name] += s.Messages
		}
		for _, s := range p.stages {
			b.sample(stageMetric(p.name, s, "rounds"), float64(rounds[s]))
			b.sample(stageMetric(p.name, s, "messages"), float64(messages[s]))
		}
	}
}

func (b *bench) substrates() error {
	var err error
	timed := func(name, layer, metric string, f func()) {
		if err != nil {
			return
		}
		b.trace.begin(name, layer)
		d, _ := measure(f)
		b.trace.end()
		b.sample(metric, d.Seconds())
	}
	var edges []lightnet.EdgeID
	var tree *mst.Tree
	var frags *mst.Fragments
	timed("mst.Kruskal", "mst", "mst.kruskal_s", func() { edges, _, err = mst.Kruskal(b.g) })
	timed("mst.NewTree", "mst", "mst.new_tree_s", func() { tree, err = mst.NewTree(b.g, edges, sltRoot) })
	timed("mst.Decompose", "mst", "mst.decompose_s", func() { frags, err = mst.Decompose(tree, ceilSqrt(b.g.N())) })
	timed("euler.Build", "euler", "euler.build_s", func() { _, err = euler.Build(tree, frags, nil, b.g.HopDiameterApprox()) })
	timed("sssp.SPTOnWeights", "sssp", "sssp.spt_s", func() {
		_, err = sssp.SPTOnWeights(b.g, sltRoot, sssp.PerturbedWeights(b.g, sltEps, b.seed))
	})
	return err
}

// ceilSqrt is the fragment size bound the accounted SLT passes to
// mst.Decompose.
func ceilSqrt(n int) int {
	x := int(math.Sqrt(float64(n)))
	for x*x < n {
		x++
	}
	return x
}

// serveLayers times one sweep per distinct source of the stream (up to
// 32) and the handler without a socket, on the stream's first 200
// queries: once on a fresh server, as the stream meets it, then again
// with every answer cached, through the handler and through a loopback
// socket by one client. With nothing left to compute, the socket's p50
// minus the handler's p50 is what HTTP adds to a query.
func (b *bench) serveLayers() error {
	bySource := map[int][]serve.Query{}
	var sources []int
	for _, q := range b.queries {
		u := int(q.U)
		if _, ok := bySource[u]; !ok {
			if len(sources) == 32 {
				continue
			}
			sources = append(sources, u)
		}
		bySource[u] = append(bySource[u], q)
	}
	for _, u := range sources {
		b.trace.begin("serve.Network.Sweep", "serve")
		t0 := time.Now()
		b.nw.Sweep(lightnet.Vertex(u), bySource[u])
		t1 := time.Now()
		b.trace.end()
		b.trace.begin("graph.Dijkstra", "graph")
		b.nw.Sub.Dijkstra(lightnet.Vertex(u))
		t2 := time.Now()
		b.trace.end()
		b.sample("serve.sweep_ms", ms(t1.Sub(t0)))
		b.sample("graph.dijkstra_ms", ms(t2.Sub(t1)))
	}

	qs := b.queries[:min(200, len(b.queries))]
	srv, err := startServer(b.nw)
	if err != nil {
		return err
	}
	handle := func() ([]time.Duration, error) {
		lat := make([]time.Duration, len(qs))
		for i, q := range qs {
			rec := httptest.NewRecorder()
			b.trace.begin("serve.Server.Handler", "serve")
			t0 := time.Now()
			srv.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", q.Path(), nil))
			lat[i] = time.Since(t0)
			b.trace.end()
			if rec.Code != 200 {
				return nil, fmt.Errorf("handler: %s: status %d", describe(q), rec.Code)
			}
		}
		return lat, nil
	}
	fresh, err := handle()
	var cached []time.Duration
	if err == nil {
		cached, err = handle()
	}
	socket, errs := make([]time.Duration, len(qs)), make([]error, len(qs))
	if err == nil {
		b.trace.begin("serve queries, cached", "serve")
		srv.replay(qs, 1, make([][]byte, len(qs)), socket, errs)
		b.trace.end()
	}
	if _, stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("%s: %w", describe(qs[i]), e)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.sample("serve.handler_us", us(percentile(fresh, 50)))
	b.sample("serve.http_overhead_us", us(percentile(socket, 50))-us(percentile(cached, 50)))
	return nil
}
