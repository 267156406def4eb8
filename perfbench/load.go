package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lightnet/internal/serve"
)

// The query stream is the service's own load generator, serve.QueryAt,
// from the run's seed: half the queries come from 16 hot sources × 64
// hot targets, half are uniform over all vertices, and distance, path
// and stretch queries each make up a third.

// queryStream returns queries [0, count) of the seeded stream over n
// vertices.
func queryStream(seed int64, count, n int) []serve.Query {
	qs := make([]serve.Query, count)
	for i := range qs {
		qs[i] = serve.QueryAt(seed, i, n)
	}
	return qs
}

// hot reports whether q falls in the stream's hot set (QueryAt draws the
// hot half from the first 16 sources and 64 targets; a uniform query
// lands there too with probability 1024/n²).
func hot(q serve.Query) bool { return q.U < 16 && q.V < 64 }

// sampleEvery: about one in sampleEvery queries outside the hot set has
// its answer checked.
const sampleEvery = 16

// checkedQueries marks the queries whose answers are checked: every hot
// query, and a seeded sample of the rest.
func checkedQueries(seed int64, qs []serve.Query) []bool {
	r := rand.New(rand.NewSource(seed))
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = r.Intn(sampleEvery) == 0 || hot(q)
	}
	return out
}

func describe(q serve.Query) string { return fmt.Sprintf("%s(%d,%d)", q.Kind, q.U, q.V) }

// loadServer is a fresh server (empty cache, new batcher) over one
// network, listening on a loopback socket, with the HTTP client that
// queries it.
type loadServer struct {
	srv       *serve.Server
	served    chan error
	transport *http.Transport
	client    *http.Client
	base      string
	elapsed   time.Duration // time spent in replay, summed
}

func startServer(nw *serve.Network) (*loadServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &loadServer{
		srv:       serve.NewServer(nw, serve.Options{}),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		base:      "http://" + l.Addr().String(),
	}
	s.client = &http.Client{Transport: s.transport, Timeout: 60 * time.Second}
	go func() { s.served <- s.srv.Serve(l) }()
	return s, nil
}

// replay sends qs from the given number of closed-loop clients, each
// sending its next query when the previous answer has arrived, and
// stores each query's body, latency and error at its index.
func (s *loadServer) replay(qs []serve.Query, clients int, bodies [][]byte, lat []time.Duration, errs []error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				t0 := time.Now()
				bodies[i], errs[i] = get(s.client, s.base+qs[i].Path())
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	s.elapsed += time.Since(start)
}

// stop shuts the server down and returns its counters once its goroutine
// has returned.
func (s *loadServer) stop() (serve.Stats, error) {
	stats := s.srv.Stats()
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.served; err == nil {
		err = serveErr
	}
	return stats, err
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(rank, len(s)-1))]
}
