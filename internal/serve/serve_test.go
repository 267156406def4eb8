package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lightnet"
	"lightnet/internal/graph"
)

// testGraph builds the standard test input: a connected Erdős–Rényi
// graph, the same family the committed BENCH_serve.json baseline uses.
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	return lightnet.ErdosRenyi(n, 4/float64(n), 10, seed)
}

func spannerNetwork(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	nw, err := BuildSpannerNetwork(testGraph(t, n, seed), "er", 2, 0.25, seed)
	if err != nil {
		t.Fatalf("BuildSpannerNetwork: %v", err)
	}
	return nw
}

func TestNetworkBuildSpanner(t *testing.T) {
	nw := spannerNetwork(t, 96, 1)
	if nw.Object != "spanner" || nw.Edges == 0 || nw.Edges != nw.Sub.M() {
		t.Fatalf("bad network: object=%q edges=%d sub.M=%d", nw.Object, nw.Edges, nw.Sub.M())
	}
	if nw.Sub.N() != nw.Base.N() {
		t.Fatalf("subgraph changed the vertex set: %d vs %d", nw.Sub.N(), nw.Base.N())
	}
	if len(nw.Digest) != 16 {
		t.Fatalf("digest %q not 16 hex chars", nw.Digest)
	}
	info := nw.Info()
	if info.N != 96 || info.K != 2 || info.Digest != nw.Digest || info.Bound != 3*(1+0.25) {
		t.Fatalf("bad info: %+v", info)
	}
}

func TestNetworkBuildSLT(t *testing.T) {
	g := testGraph(t, 64, 2)
	nw, err := BuildSLTNetwork(g, "er", 0, 0.5, 2)
	if err != nil {
		t.Fatalf("BuildSLTNetwork: %v", err)
	}
	if nw.Object != "slt" || nw.Edges != g.N()-1 {
		t.Fatalf("SLT network should serve a spanning tree: object=%q edges=%d n=%d",
			nw.Object, nw.Edges, g.N())
	}
	// A tree still answers every pair.
	a := nw.Answer(Query{Kind: KindDistance, U: 5, V: 60})
	if !a.Reachable || a.Dist <= 0 {
		t.Fatalf("tree query unreachable: %+v", a)
	}
}

func TestNetworkDigestsDiffer(t *testing.T) {
	a := spannerNetwork(t, 96, 1)
	b := spannerNetwork(t, 96, 2) // different seed, different graph
	if a.Digest == b.Digest {
		t.Fatalf("different builds share digest %s", a.Digest)
	}
	// Same graph, different served object: digest must differ too.
	g := testGraph(t, 96, 1)
	c, err := BuildSLTNetwork(g, "er", 0, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("spanner and SLT over the same graph share digest %s", a.Digest)
	}
	// Determinism: rebuilding identically reproduces the digest.
	a2 := spannerNetwork(t, 96, 1)
	if a2.Digest != a.Digest {
		t.Fatalf("identical builds disagree on digest: %s vs %s", a.Digest, a2.Digest)
	}
}

// TestServedAnswersBitIdenticalToLibrary is the acceptance criterion:
// every served distance/path/stretch answer equals the direct library
// computation — lightnet.BuildLightSpanner plus exact Dijkstra — bit for
// bit. The oracle below is computed independently of the serve package's
// own Sweep/Answer code: a second BuildLightSpanner call, g.Subgraph,
// and graph.Dijkstra, exactly what a library user would write.
func TestServedAnswersBitIdenticalToLibrary(t *testing.T) {
	const n, seed = 96, 7
	nw := spannerNetwork(t, n, seed)
	srv := NewServer(nw, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Independent oracle from the public API.
	g := testGraph(t, n, seed)
	res, err := lightnet.BuildLightSpanner(g, 2, 0.25, lightnet.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Subgraph(res.Edges)

	for qi := 0; qi < 300; qi++ {
		q := QueryAt(seed, qi, n)
		body, err := get(http.DefaultClient, ts.URL+q.Path())
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, q.Path(), err)
		}
		var w struct {
			U, V      int
			Reachable bool
			Dist      *float64
			Path      []int
			Exact     *float64
			Stretch   *float64
		}
		if err := json.Unmarshal(body, &w); err != nil {
			t.Fatalf("query %d: parse %s: %v", qi, body, err)
		}
		tree := sub.Dijkstra(q.U)
		wantDist := tree.Dist[q.V]
		if !w.Reachable {
			if !math.IsInf(wantDist, 1) {
				t.Fatalf("query %d: served unreachable, library says %v", qi, wantDist)
			}
			continue
		}
		if w.Dist == nil || math.Float64bits(*w.Dist) != math.Float64bits(wantDist) {
			t.Fatalf("query %d (%s): served dist %v, library %v (bit mismatch)",
				qi, q.Path(), w.Dist, wantDist)
		}
		switch q.Kind {
		case KindPath:
			want := tree.PathTo(sub, q.V)
			if len(w.Path) != len(want) {
				t.Fatalf("query %d: path length %d, library %d", qi, len(w.Path), len(want))
			}
			for i := range want {
				if w.Path[i] != int(want[i]) {
					t.Fatalf("query %d: path[%d]=%d, library %d", qi, i, w.Path[i], want[i])
				}
			}
		case KindStretch:
			wantExact := g.Dijkstra(q.U).Dist[q.V]
			if w.Exact == nil || math.Float64bits(*w.Exact) != math.Float64bits(wantExact) {
				t.Fatalf("query %d: served exact %v, library %v", qi, w.Exact, wantExact)
			}
			wantStretch := 1.0
			if wantExact != 0 {
				wantStretch = wantDist / wantExact
			}
			if w.Stretch == nil || math.Float64bits(*w.Stretch) != math.Float64bits(wantStretch) {
				t.Fatalf("query %d: served stretch %v, library %v", qi, w.Stretch, wantStretch)
			}
			if nw.Bound > 0 && *w.Stretch > nw.Bound+1e-9 {
				t.Fatalf("query %d: stretch %v exceeds the served bound %v", qi, *w.Stretch, nw.Bound)
			}
		}
	}
}

func TestHandlerErrors(t *testing.T) {
	srv := NewServer(spannerNetwork(t, 32, 1), Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/distance?u=0&v=1", http.StatusOK},
		{"/distance?u=0", http.StatusBadRequest},
		{"/distance?v=1", http.StatusBadRequest},
		{"/distance?u=0&v=99", http.StatusBadRequest},
		{"/distance?u=-1&v=1", http.StatusBadRequest},
		{"/distance?u=zero&v=1", http.StatusBadRequest},
		{"/distance?u=99999999999999999999&v=1", http.StatusBadRequest},
		{"/path?u=0&v=0&u=1", http.StatusBadRequest},
		{"/stretch?u=31&v=0", http.StatusOK},
		{"/healthz", http.StatusOK},
		{"/info", http.StatusOK},
		{"/stats", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	// Non-GET on a query endpoint.
	resp, err := http.Post(ts.URL+"/distance?u=0&v=1", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /distance: status %d, want 405", resp.StatusCode)
	}

	st := srv.Stats()
	if st.BadRequests == 0 {
		t.Fatalf("bad requests not counted: %+v", st)
	}
}

func TestHealthzCarriesDigest(t *testing.T) {
	nw := spannerNetwork(t, 32, 1)
	srv := NewServer(nw, Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := rec.Body.String(); got != "ok "+nw.Digest+"\n" {
		t.Fatalf("healthz = %q", got)
	}
}

// TestServerBoundsHeaderRead: the HTTP server drops connections whose
// request headers do not arrive within readHeaderTimeout.
func TestServerBoundsHeaderRead(t *testing.T) {
	srv := NewServer(spannerNetwork(t, 32, 1), Options{})
	if got := srv.httpSrv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
}

func TestStatsCountCacheAndBatches(t *testing.T) {
	srv := NewServer(spannerNetwork(t, 32, 1), Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ { // same query: 1 miss, 2 hits
		if _, err := get(http.DefaultClient, ts.URL+"/distance?u=1&v=2"); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Queries != 3 || st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want queries=3 hits=2 misses=1", st)
	}
	if st.Sweeps != 1 || st.BatchedQueries != 1 {
		t.Fatalf("stats = %+v, want exactly one sweep for one uncached query", st)
	}
	// The wire form decodes to the same counters.
	body, err := get(http.DefaultClient, ts.URL+"/stats")
	if err != nil {
		t.Fatal(err)
	}
	var wire Stats
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.CacheHits != 2 || wire.Queries != 3 { // /stats itself is not a query
		t.Fatalf("wire stats = %+v", wire)
	}
}

func TestQueryAtDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 16, 64, 1000} {
		for i := 0; i < 200; i++ {
			q := QueryAt(42, i, n)
			if int(q.U) >= n || int(q.V) >= n || q.Kind >= numKinds {
				t.Fatalf("n=%d i=%d: out-of-range query %+v", n, i, q)
			}
			if q2 := QueryAt(42, i, n); q2 != q {
				t.Fatalf("QueryAt not deterministic: %+v vs %+v", q, q2)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("QueryAt(seed, 0, 0) should panic")
		}
	}()
	QueryAt(1, 0, 0)
}

func TestKindString(t *testing.T) {
	if KindDistance.String() != "distance" || KindPath.String() != "path" ||
		KindStretch.String() != "stretch" {
		t.Fatalf("kind names wrong")
	}
	if s := Kind(9).String(); s != "kind(9)" {
		t.Fatalf("invalid kind string %q", s)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(0)                             // clamps into bucket 0
	h.Add(1500 * 1000)                   // 1500µs → bucket 10
	h.Add(3 * 1000 * 1000 * 1000 * 1000) // absurd latency clamps to last bucket
	if h.Buckets[0] != 1 || h.Buckets[10] != 1 || h.Buckets[31] != 1 {
		t.Fatalf("histogram buckets %v", h.Buckets)
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 50) != 0 {
		t.Fatalf("empty percentile not 0")
	}
	// nearest-rank: p50 of {1,2,3,4} is the 2nd value, p99 the 4th.
	sorted := []time.Duration{1, 2, 3, 4}
	if got := percentile(sorted, 50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := percentile(sorted, 99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := percentile(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1 (rank clamps to 1)", got)
	}
}
