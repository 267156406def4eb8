// Package spanner implements §5 of the paper: the first CONGEST
// algorithm for light spanners of general weighted graphs (Theorem 2),
// together with the [BS07] Baswana-Sen spanner it uses on the light
// bucket and compares against, and the greedy spanner [ADD+93] quality
// baseline.
//
// BuildLight partitions edges into O(log_{1+ε} n) weight buckets
// relative to L ≈ 2·w(MST), runs a per-bucket cluster spanner —
// [EN17b] on the tour-based cluster graph (k+2 rounds per bucket,
// the paper's choice), centralized greedy, or [BS07] directly on the
// bucket's edges (ClusterBaswana) — and returns the union plus the MST:
// stretch (2k−1)(1+ε), size O(k·n^{1+1/k}), lightness O(k·n^{1/k}), in
// Õ(n^{1/2+1/(4k+2)} + D) rounds.
//
// Execution modes: Accounted (default) runs sequentially and charges the
// paper's round formulas to the ledger; Measured (Options.Mode) runs the
// whole construction — BFS tree, two-phase MST, MST-weight convergecast
// and flood, and every bucket's Baswana-Sen clustering — as genuine
// per-vertex message passing on one congest.Pipeline, with per-stage
// measured statistics. Both modes produce bit-identical spanners for the
// same seed when the accounted run uses ClusterBaswana (see measured.go
// and the determinism test suite).
//
// The bucket anchor L ≈ 2·w(MST) is an order-free fixed-point sum over
// the MST edges (mstAnchor in light.go), so the measured pipeline gets
// the same L from a convergecast over any spanning tree in O(D) rounds.
package spanner
