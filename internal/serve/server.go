package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Options configures a Server.
type Options struct {
	// Batch tunes the hot-path coalescer.
	Batch BatcherOptions
	// CacheSize is the LRU capacity in answers (0 = default 65536,
	// negative = caching disabled).
	CacheSize int
	// Cache shares an existing cache instead of creating one (CacheSize
	// is then ignored). Keys embed the network digest, so several
	// servers over different builds can share one cache safely.
	Cache *Cache
}

// DefaultCacheSize is the LRU capacity when Options.CacheSize is 0.
const DefaultCacheSize = 1 << 16

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection and its goroutine forever.
const readHeaderTimeout = 10 * time.Second

// Server serves one built Network over HTTP:
//
//	GET /distance?u=&v=   served-subgraph distance
//	GET /path?u=&v=       distance plus the vertex path
//	GET /stretch?u=&v=    distance, exact base distance, realised stretch
//	GET /info             build metadata (Info schema)
//	GET /stats            cache/batcher/query counters
//	GET /healthz          "ok <digest>"
//
// Query responses are a pure function of (network, query): no
// timestamps, no instance state — so response bytes are reproducible
// across restarts and concurrency levels.
type Server struct {
	nw      *Network
	batcher *Batcher
	cache   *Cache
	mux     *http.ServeMux
	httpSrv *http.Server

	queries, badRequests atomic.Int64
}

// NewServer wires a network behind the batcher and cache.
func NewServer(nw *Network, opts Options) *Server {
	cache := opts.Cache
	if cache == nil {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		cache = NewCache(size)
	}
	s := &Server{
		nw:      nw,
		batcher: NewBatcher(nw.Sweep, opts.Batch),
		cache:   cache,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/distance", s.handleQuery(KindDistance))
	s.mux.HandleFunc("/path", s.handleQuery(KindPath))
	s.mux.HandleFunc("/stretch", s.handleQuery(KindStretch))
	s.mux.HandleFunc("/info", s.handleInfo)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// Network returns the served network.
func (s *Server) Network() *Network { return s.nw }

// Handler exposes the route table for socketless tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns nil after a
// graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: stop accepting, wait for every in-flight
// handler (and therefore every query already submitted to the batcher)
// to complete, then close the batcher. No accepted query is dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.batcher.Close()
	return err
}

// wireAnswer is the JSON schema of the three query endpoints. Pointer
// fields appear only for the kinds that populate them, and never carry
// non-finite values (unreachable pairs report reachable=false with all
// numeric fields omitted).
type wireAnswer struct {
	U         int      `json:"u"`
	V         int      `json:"v"`
	Reachable bool     `json:"reachable"`
	Dist      *float64 `json:"dist,omitempty"`
	Path      []int    `json:"path,omitempty"`
	Exact     *float64 `json:"exact,omitempty"`
	Stretch   *float64 `json:"stretch,omitempty"`
}

// encodeAnswer shapes an answer for the wire.
func encodeAnswer(q Query, a Answer) wireAnswer {
	w := wireAnswer{U: int(q.U), V: int(q.V), Reachable: a.Reachable}
	if !a.Reachable {
		return w
	}
	d := a.Dist
	w.Dist = &d
	switch q.Kind {
	case KindPath:
		w.Path = make([]int, len(a.Path))
		for i, v := range a.Path {
			w.Path[i] = int(v)
		}
	case KindStretch:
		e, st := a.Exact, a.Stretch
		w.Exact = &e
		w.Stretch = &st
	}
	return w
}

// handleQuery is the shared hot path: parse → cache → batcher → cache
// fill → encode.
func (s *Server) handleQuery(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "serve: GET only", http.StatusMethodNotAllowed)
			return
		}
		q, err := ParseQuery(kind, r.URL.Query(), s.nw.Base.N())
		if err != nil {
			s.badRequests.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key := q.Key(s.nw.Digest)
		ans, ok := s.cache.Get(key)
		if !ok {
			if ans, err = s.batcher.Do(q); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			s.cache.Put(key, ans)
		}
		s.queries.Add(1)
		writeJSON(w, encodeAnswer(q, ans))
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.nw.Info())
}

// Stats is the /stats wire schema: monotonic service counters.
type Stats struct {
	Queries        int64 `json:"queries"`
	BadRequests    int64 `json:"bad_requests"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheSize      int   `json:"cache_size"`
	Batches        int64 `json:"batches"`
	Sweeps         int64 `json:"sweeps"`
	BatchedQueries int64 `json:"batched_queries"`
	MaxBatch       int64 `json:"max_batch"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	hits, misses, size := s.cache.Stats()
	bs := s.batcher.Stats()
	return Stats{
		Queries: s.queries.Load(), BadRequests: s.badRequests.Load(),
		CacheHits: hits, CacheMisses: misses, CacheSize: size,
		Batches: bs.Batches, Sweeps: bs.Sweeps,
		BatchedQueries: bs.Queries, MaxBatch: bs.MaxBatch,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok " + s.nw.Digest + "\n"))
}

func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil { // wire structs are always marshalable
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}
