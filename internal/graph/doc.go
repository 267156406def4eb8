// Package graph provides the weighted-graph substrate used by every
// algorithm in this repository: an adjacency-list/CSR representation
// with stable edge identifiers, exact shortest-path routines, hop
// (unweighted) traversals, structural queries (connectivity,
// hop-diameter, aspect ratio), serialization, and the scenario
// generators that produce every workload of the evaluation.
//
// Conventions shared across the repository:
//
//   - Vertices are dense integers in [0, N).
//   - Edges are undirected; each edge has a unique EdgeID assigned in
//     insertion order. Both half-edges share the EdgeID.
//   - Weights are strictly positive float64s. The paper assumes minimum
//     weight 1 and maximum poly(n); generators follow that convention but
//     the algorithms only require positivity.
//
// # Representations
//
// A Graph starts in a per-vertex adjacency-slice build representation
// and can be Frozen into a CSR (compressed sparse row) layout — one
// flat half-edge array plus offsets — that the CONGEST engine
// traverses allocation-free. All read methods work in both states;
// AddEdge on a frozen graph transparently thaws it. See graph.go.
//
// # Generators
//
// gen.go holds the workload families, all deterministic given the
// seed and connected (with minimum weight >= 1) unless documented
// otherwise:
//
//   - structured: Path, Cycle, Star, Complete, Grid, RandomTree
//   - random: ErdosRenyi, BarabasiAlbert, PlantedPartition
//   - geometric (doubling): UnitBallGraph, RandomGeometric,
//     KNearestNeighborGraph over a Points set
//   - adversarial: HardInstance (the Ω(√n + D) lower-bound family)
//
// The geometric builders run on a spatial-hash cell grid
// (spatialhash.go): points are bucketed into radius-sized cells so a
// neighborhood query probes 3^dim cells instead of all n points,
// construction is O(n + m) on roughly uniform point sets, and
// million-point instances are practical. UnitBallGraph output is
// bit-identical to the O(n²) reference UnitBallGraphBrute, which is
// retained as the test oracle and benchmark baseline (see
// `lightnet bench -kind generators` and BENCH_generators.json).
//
// Real-world graphs enter through io.go: Read/WriteTo round-trip the
// repo's own format and edge ids, and ReadEdgeList ingests the
// whitespace-separated "u v [w]" lists common to public graph
// datasets, remapping arbitrary vertex tokens to dense ids.
//
// The named scenario registry that exposes all of these behind
// one-line spec strings ("ba:m=4,maxw=10") lives in
// internal/experiments; the catalog is docs/SCENARIOS.md.
package graph
