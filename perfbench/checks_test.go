package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"lightnet"
	"lightnet/internal/experiments"
	"lightnet/internal/serve"
)

// Each check must pass on the program's real output and fail once that
// output is corrupted; a check that cannot fail shows nothing.

func testGraph(t *testing.T, n int) *lightnet.Graph {
	t.Helper()
	g, err := experiments.BuildWorkload("knn", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

// withPendant returns g plus one vertex joined to vertex 0 by a single
// edge, which every spanner must keep.
func withPendant(g *lightnet.Graph) *lightnet.Graph {
	h := lightnet.NewGraph(g.N() + 1)
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, e.W)
	}
	h.MustAddEdge(0, lightnet.Vertex(g.N()), 1)
	h.Freeze()
	return h
}

func TestSpannerChecksFailOnCorruption(t *testing.T) {
	g := withPendant(testGraph(t, 400))
	edges := g.Edges()
	res, err := lightnet.BuildLightSpanner(g, spannerK, spannerEps, lightnet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	mstW, _ := kruskalWeight(g.N(), edges)
	if err := checkEdgeSet(g.M(), res.Edges); err != nil {
		t.Fatalf("edge set of a real spanner: %v", err)
	}
	if err := checkSpannerStretch(g.N(), edges, res.Edges, spannerK, spannerEps); err != nil {
		t.Fatalf("stretch of a real spanner: %v", err)
	}
	if err := checkWeights(edges, res.Edges, mstW, res.Weight, res.MSTWeight, res.Lightness); err != nil {
		t.Fatalf("weights of a real spanner: %v", err)
	}

	pendant := lightnet.EdgeID(g.M() - 1)
	var without []lightnet.EdgeID
	for _, id := range res.Edges {
		if id != pendant {
			without = append(without, id)
		}
	}
	if len(without) != len(res.Edges)-1 {
		t.Fatal("the spanner does not hold the pendant edge")
	}
	if checkSpannerStretch(g.N(), edges, without, spannerK, spannerEps) == nil {
		t.Error("stretch check passed a spanner with a needed edge removed")
	}
	if checkEdgeSet(g.M(), append(res.Edges[:len(res.Edges):len(res.Edges)], res.Edges[0])) == nil {
		t.Error("edge-set check passed a repeated edge")
	}
	if checkWeights(edges, res.Edges, mstW, res.Weight, res.MSTWeight, res.Lightness*(1+1e-6)) == nil {
		t.Error("weight check passed a lightness that disagrees with the weights")
	}
	if checkWeights(edges, res.Edges, mstW, res.Weight*(1+1e-6), res.MSTWeight, res.Lightness) == nil {
		t.Error("weight check passed a wrong spanner weight")
	}
}

func TestSLTChecksFailOnCorruption(t *testing.T) {
	g := testGraph(t, 400)
	edges := g.Edges()
	res, err := lightnet.BuildSLT(g, sltRoot, sltEps, lightnet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	mstW, _ := kruskalWeight(g.N(), edges)
	exact := newAdj(g.N(), edges, nil).dijkstra(sltRoot)
	if err := checkSLT(edges, res, exact, mstW, sltEps); err != nil {
		t.Fatalf("a real SLT: %v", err)
	}
	corrupt := func(what string, f func(r *lightnet.SLTResult)) {
		t.Helper()
		r := *res
		r.TreeEdges = append([]lightnet.EdgeID(nil), res.TreeEdges...)
		r.Parent = append([]lightnet.EdgeID(nil), res.Parent...)
		r.Dist = append([]float64(nil), res.Dist...)
		f(&r)
		if checkSLT(edges, &r, exact, mstW, sltEps) == nil {
			t.Errorf("SLT check passed %s", what)
		}
	}
	corrupt("a lowered Dist entry", func(r *lightnet.SLTResult) { r.Dist[17] *= 1 - 1e-6 })
	corrupt("a Dist entry below the exact distance", func(r *lightnet.SLTResult) { r.Dist[17] = exact[17] / 2 })
	corrupt("a lightness that disagrees with the tree", func(r *lightnet.SLTResult) { r.Lightness *= 1 + 1e-6 })
	corrupt("a tree with an edge missing", func(r *lightnet.SLTResult) { r.TreeEdges = r.TreeEdges[1:] })
	corrupt("a parent that is not the tree edge", func(r *lightnet.SLTResult) {
		for v, p := range r.Parent {
			if p != lightnet.NoEdge {
				r.Parent[v] = r.Parent[(v+1)%len(r.Parent)]
				return
			}
		}
	})

	twin := *res
	if err := checkSameSLT(res, &twin); err != nil {
		t.Fatalf("identical SLTs: %v", err)
	}
	sp, err := lightnet.BuildLightSpanner(g, spannerK, spannerEps, lightnet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRebuild(res, &twin, sp, sp); err != nil {
		t.Fatalf("identical rebuilds: %v", err)
	}
	twin.Cost.Messages++
	if checkRebuild(res, &twin, sp, sp) == nil {
		t.Error("rebuild check passed an SLT charged one more message")
	}
	twin.Cost = res.Cost
	twin.Dist = append([]float64(nil), res.Dist...)
	twin.Dist[5] *= 1 + 1e-15
	if checkSameSLT(res, &twin) == nil {
		t.Error("identity check passed SLTs whose Dist differs in the last bit")
	}
}

func TestMeasuredSpannerEqualsAccounted(t *testing.T) {
	g := testGraph(t, 300)
	m, err := lightnet.BuildLightSpanner(g, spannerK, spannerEps, lightnet.WithSeed(1), lightnet.WithMeasured(), lightnet.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := lightnet.BuildLightSpanner(g, spannerK, spannerEps, lightnet.WithSeed(1), lightnet.WithBucketAlgo(lightnet.BucketBaswana))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameSpanner(m, a); err != nil {
		t.Fatalf("measured and accounted spanner: %v", err)
	}
	b := *a
	b.Edges = a.Edges[1:]
	if checkSameSpanner(m, &b) == nil {
		t.Error("identity check passed spanners that differ by an edge")
	}
}

func TestAnswerChecksFailOnCorruption(t *testing.T) {
	g := testGraph(t, 500)
	nw, err := serve.BuildSpannerNetwork(g, "knn", spannerK, spannerEps, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lightnet.BuildLightSpanner(g, spannerK, spannerEps, lightnet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	h := newAdj(g.N(), edges, res.Edges)
	gAdj := newAdj(g.N(), edges, nil)
	bound := float64(2*spannerK-1) * (1 + spannerEps)
	srv := serve.NewServer(nw, serve.Options{})
	defer srv.Shutdown(context.Background())

	for _, kind := range []serve.Kind{serve.KindDistance, serve.KindPath, serve.KindStretch} {
		q := serve.Query{Kind: kind, U: 3, V: 250}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", q.Path(), nil))
		body := rec.Body.Bytes()
		dH, dG := h.dijkstra(3), gAdj.dijkstra(3)
		if err := checkAnswer(q, body, h, dH, dG, bound); err != nil {
			t.Fatalf("a real answer: %v", err)
		}
		var a wireAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		corrupt := func(what string, f func(a *wireAnswer)) {
			t.Helper()
			c := a
			d, e, s := *a.Dist, 0.0, 0.0
			c.Dist = &d
			if a.Exact != nil {
				e, s = *a.Exact, *a.Stretch
				c.Exact, c.Stretch = &e, &s
			}
			c.Path = append([]int(nil), a.Path...)
			f(&c)
			bad, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if checkAnswer(q, bad, h, dH, dG, bound) == nil {
				t.Errorf("%s: answer check passed %s", describe(q), what)
			}
		}
		corrupt("a distance perturbed by a relative 1e-6", func(a *wireAnswer) { *a.Dist *= 1 + 1e-6 })
		switch kind {
		case serve.KindPath:
			corrupt("a path with a vertex dropped", func(a *wireAnswer) { a.Path = append(a.Path[:1], a.Path[2:]...) })
		case serve.KindStretch:
			corrupt("a stretch perturbed by a relative 1e-6", func(a *wireAnswer) { *a.Stretch *= 1 + 1e-6 })
			corrupt("an exact distance perturbed by a relative 1e-6", func(a *wireAnswer) { *a.Exact *= 1 + 1e-6 })
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables of this program in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", spec.PerLayer, perLayer)
	}
}
