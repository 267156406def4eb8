// Package serve is the build-once, query-many layer: it wraps a light
// network built by the paper's constructions (the §5 spanner or the §4
// SLT) into a long-running HTTP service answering stretch-bounded
// distance, path and stretch queries under heavy concurrent load.
//
// The package is organised around four pieces, each unit-testable
// without sockets:
//
//   - Network (network.go) — the immutable query target: the base graph,
//     the served subgraph (spanner or SLT edges, same vertex ids), build
//     metadata, and a content digest binding cached answers to exactly
//     this build. Network.Sweep answers a batch of same-source queries
//     with one exact Dijkstra sweep; Network.Answer is the one-query
//     sequential oracle every served response must equal bit for bit.
//   - Batcher (batcher.go) — the hot-path coalescer: concurrent queries
//     wait at most Window (or until MaxBatch are pending), then one
//     flush groups them by source vertex and runs a single sweep per
//     distinct source. Under load, q queries from the same source cost
//     one Dijkstra instead of q.
//   - Cache (cache.go) — a mutex-guarded LRU of final answers keyed on
//     (network digest, query), so an answer computed for one build can
//     never be served for another.
//   - Server (server.go) — the HTTP front: GET /distance, /path,
//     /stretch (query parameters u, v), plus /info, /stats and /healthz.
//     Shutdown stops accepting, waits for in-flight handlers (and thus
//     their batches), then closes the batcher — no accepted query is
//     dropped. Connections not yet accepted when Shutdown starts are
//     refused.
//
// Determinism contract: a served answer is a pure function of (network,
// query). The batcher only changes which sweep computes an answer, never
// the answer; the cache only replays answers under a digest-bound key.
// Responses carry no timestamps, so the response byte stream of a seeded
// query stream (QueryAt) is byte-identical across client counts, cache
// temperature and server restarts — the determinism suite asserts this
// and the loadgen digest (RunLoadgen) gates it in CI via
// cmd/benchdiff -kind serve against BENCH_serve.json.
package serve
