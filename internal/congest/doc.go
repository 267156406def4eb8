// Package congest implements the CONGEST model of distributed computation
// used by the paper: n processors, one per graph vertex, communicating in
// synchronous rounds by exchanging messages of O(log n) bits over the
// graph edges.
//
// The package provides three layers:
//
//  1. A genuine synchronous message-passing Engine. Vertex algorithms are
//     written as Programs; the engine enforces the CONGEST constraints
//     (at most one message per edge direction per round, bounded message
//     size) and accounts rounds and messages. The elementary distributed
//     algorithms of the paper (BFS trees, pipelined broadcast — Lemma 1,
//     convergecast, Bellman-Ford, the two-phase MST, Luby MIS, the
//     [EN17b] unweighted spanner) run on this engine. The convergecast
//     (convergecast.go, CastPass) runs passes of an integer max or sum
//     up a rooted tree in O(D) rounds; its result does not depend on the
//     tree's shape or on arrival order. Rounds execute on a
//     deterministic worker pool (Options.Workers): within a round the
//     handlers of distinct vertices are independent by construction, so
//     the engine shards them across workers and merges the buffered
//     outgoing messages in canonical vertex order — the results are
//     bit-identical for every worker count.
//
//  2. A Pipeline (pipeline.go): program composition over one engine
//     instance. Composite constructions are sequences of distributed
//     sub-algorithms over the same network; the pipeline runs each as a
//     stage on the shared frozen CSR graph, with per-vertex state carried
//     between stages through caller-owned slices, per-stage and
//     cumulative Stats, and optional restriction of a stage to a subgraph
//     (e.g. the MST's tree edges). The §4 shallow-light tree runs
//     end-to-end on this layer (internal/slt, Measured mode); its
//     reported cost is measured from actual message exchanges rather
//     than charged by formula.
//
//  3. A Ledger for primitive-level round accounting, used by the
//     composite constructions of §3–§7, which the paper itself expresses
//     as sequences of primitives with known costs (Lemma 1 broadcast:
//     O(M+D); fragment-local pipelining: O(fragment hop-diameter); etc.).
//     Accounted-mode builders charge the ledger; measured pipelines merge
//     their engine stats into it instead (Ledger.ChargeRoundsOf), so the
//     two modes are comparable label by label.
//
// The engine's per-round data path is allocation-free in the steady
// state (see docs/ARCHITECTURE.md, "Performance"): message payloads live
// in per-vertex double-buffered arenas reused across rounds, the outbox
// is a flat array of value slots addressed by (edge, direction), and
// each round touches only the active state — a dirty-edge list of
// pending deliveries and a worklist of awake/receiving vertices — so a
// sparse-traffic round costs O(active), not O(n+m).
package congest
