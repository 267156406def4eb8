package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestEndToEndLoadgen is the full integration loop on a real socket:
// listen on an ephemeral port, serve, run the loadgen, assert non-zero
// throughput with zero errors, then shut down gracefully.
func TestEndToEndLoadgen(t *testing.T) {
	nw := spannerNetwork(t, 96, 12)
	srv := NewServer(nw, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	res, err := RunLoadgen(LoadgenOptions{
		BaseURL: "http://" + l.Addr().String(),
		Clients: 8, Queries: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors = %d", res.Errors)
	}
	if res.Queries != 2000 {
		t.Fatalf("queries = %d, want 2000", res.Queries)
	}
	if res.QPS <= 0 {
		t.Fatalf("qps = %v", res.QPS)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.P50, res.P99)
	}
	if res.Info.Digest != nw.Digest {
		t.Fatalf("served digest %s != built digest %s", res.Info.Digest, nw.Digest)
	}
	if res.ResponseDigest == "" {
		t.Fatal("empty response digest")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
}

// TestShutdownDrainsInFlightBatches waits until every request has been
// accepted and reached its handler, shuts the server down while the last
// batch is still parked in the batcher, and requires every accepted
// request to complete with a correct answer — Shutdown must wait for
// the batcher, not abandon it. Connections not yet accepted when
// Shutdown starts are refused by contract, so the test never races the
// accept loop.
func TestShutdownDrainsInFlightBatches(t *testing.T) {
	const n, inflight = 64, 30
	nw := spannerNetwork(t, n, 13)
	// The wait below first ensures every request was accepted; the long
	// window then only keeps the last batch parked in the batcher while
	// Shutdown lands.
	srv := NewServer(nw, Options{Batch: BatcherOptions{Window: 50 * time.Millisecond, MaxBatch: 1 << 20}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	trees := oracleTrees(nw)
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		q := QueryAt(31, i, n)
		q.Kind = KindDistance
		wg.Add(1)
		go func(q Query) {
			defer wg.Done()
			body, err := get(http.DefaultClient, base+q.Path())
			if err != nil {
				errs <- fmt.Errorf("in-flight query %s failed: %v", q.Path(), err)
				return
			}
			var w struct {
				Reachable bool
				Dist      *float64
			}
			if err := json.Unmarshal(body, &w); err != nil {
				errs <- err
				return
			}
			want := trees[q.U].Dist[q.V]
			if w.Reachable != !math.IsInf(want, 1) {
				errs <- fmt.Errorf("query %s: reachable=%v, oracle %v", q.Path(), w.Reachable, want)
				return
			}
			if w.Reachable && math.Float64bits(*w.Dist) != math.Float64bits(want) {
				errs <- fmt.Errorf("query %s: drained dist %v, oracle %v", q.Path(), *w.Dist, want)
			}
		}(q)
	}

	// Wait until every request has been accepted and reached its handler
	// (each handler does exactly one cache lookup), then shut down while
	// the last arrival's 50ms window is still open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		arrived := st.CacheHits + st.CacheMisses
		if arrived == inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached a handler", arrived, inflight)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	// Everything accepted was answered.
	if got := srv.Stats().Queries; got != inflight {
		t.Fatalf("answered %d of %d in-flight queries", got, inflight)
	}
}
