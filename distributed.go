package lightnet

import (
	"fmt"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
)

// This file exposes the genuine message-passing CONGEST programs (see
// internal/congest): algorithms executed vertex-by-vertex on the
// synchronous engine with per-edge, per-round O(log n)-bit message
// limits enforced. Unlike the composite builders (whose round counts
// come from the paper's primitive accounting), these statistics are
// measured from actual message exchanges.

// EngineStats reports the measured cost of an engine run.
type EngineStats struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Messages is the number of messages sent.
	Messages int64
	// Phases is the number of global phases (for multi-phase programs
	// such as the MST and Luby MIS).
	Phases int
	// Stages is the ordered per-stage breakdown for pipeline runs
	// (DistributedSLT); nil for elementary single-program runs.
	Stages []StageCost
}

func engineStats(s congest.Stats) EngineStats {
	return EngineStats{Rounds: s.Rounds, Messages: s.Messages, Phases: s.Phases}
}

// DistributedMST computes the MST of g (a spanning forest if g is
// disconnected) by message passing: a BFS tree from vertex 0, then the
// two-phase Õ(√n + D) MST of [KP98] — fragments merged for ⌈log₂ n⌉
// phases until they reach ⌈√n⌉ vertices, then a pipelined upcast of the
// inter-fragment edges over the BFS tree. The statistics cover both
// stages.
func DistributedMST(g *Graph, seed int64) ([]EdgeID, EngineStats, error) {
	edges, s, err := congest.RunMST(g, seed)
	if err != nil {
		return nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return edges, engineStats(s), nil
}

// DistributedBFS builds a BFS tree from root in Θ(D) measured rounds:
// per-vertex parent edges (NoEdge at the root) and hop depths.
func DistributedBFS(g *Graph, root Vertex, seed int64) ([]EdgeID, []int32, EngineStats, error) {
	parent, depth, s, err := congest.RunBFS(g, root, seed)
	if err != nil {
		return nil, nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return parent, depth, engineStats(s), nil
}

// DistributedSLT builds the §4 shallow-light tree entirely as engine
// message passing: the BFS tree, the two-phase MST, tree rooting, Bellman-Ford SPT,
// Euler-tour positioning, two-phase break-point selection and final SPT
// inside H all run as per-vertex programs on one pipeline (see
// internal/congest.Pipeline). The returned statistics are measured per
// stage; the tree is bit-identical to BuildSLT's for the same seed.
func DistributedSLT(g *Graph, root Vertex, eps float64, seed int64) (*SLTResult, EngineStats, error) {
	res, err := BuildSLT(g, root, eps, WithSeed(seed), WithMeasured())
	if err != nil {
		return nil, EngineStats{}, err
	}
	stats := EngineStats{
		Rounds:   int(res.Cost.Rounds),
		Messages: res.Cost.Messages,
		Stages:   res.Cost.Stages,
	}
	return res, stats, nil
}

// DistributedLightSpanner builds the §5 light spanner entirely as
// engine message passing: the BFS tree, the two-phase MST, the MST-weight convergecast
// and flood that anchor the weight buckets, and every bucket's Baswana-Sen
// clustering run as per-vertex programs on one pipeline (see
// internal/congest.Pipeline). The returned statistics are measured per
// stage; the spanner is bit-identical to BuildLightSpanner's accounted
// Baswana-Sen bucket variant for the same seed.
func DistributedLightSpanner(g *Graph, k int, eps float64, seed int64) (*SpannerResult, EngineStats, error) {
	res, err := BuildLightSpanner(g, k, eps, WithSeed(seed), WithMeasured())
	if err != nil {
		return nil, EngineStats{}, err
	}
	stats := EngineStats{
		Rounds:   int(res.Cost.Rounds),
		Messages: res.Cost.Messages,
		Stages:   res.Cost.Stages,
	}
	return res, stats, nil
}

// DistributedMIS runs the Luby-style maximal-independent-set program
// (O(log n) phases w.h.p.) and returns the indicator vector.
func DistributedMIS(g *Graph, seed int64) ([]bool, EngineStats, error) {
	inMIS, s, err := congest.RunLubyMIS(g, seed)
	if err != nil {
		return nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return inMIS, engineStats(s), nil
}

// DistributedRulingSet computes a (k+1, k)-ruling set — pairwise hop
// distance > k, domination radius k — by simulating Luby's algorithm on
// the power graph G^k within the CONGEST limits of G (§1.3: a ruling
// set is an MIS of G^k).
func DistributedRulingSet(g *Graph, k int, seed int64) ([]bool, EngineStats, error) {
	inSet, s, err := congest.RunRulingSet(g, k, seed)
	if err != nil {
		return nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return inSet, engineStats(s), nil
}

// DistributedUnweightedSpanner runs the [EN17b] (2k−1)-spanner program
// for the hop metric in k+2 measured rounds.
func DistributedUnweightedSpanner(g *Graph, k int, seed int64) ([]EdgeID, EngineStats, error) {
	edges, s, err := congest.RunEN17Spanner(g, k, seed)
	if err != nil {
		return nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return edges, engineStats(s), nil
}

// DistributedNearestSource runs h rounds of multi-source Bellman-Ford:
// each vertex's h-hop-bounded distance to, and identity of, its nearest
// source (the §6 deactivation primitive). Unreached vertices get +Inf
// and NoVertex.
func DistributedNearestSource(g *Graph, sources []Vertex, h int, seed int64) ([]float64, []Vertex, EngineStats, error) {
	dist, nearest, s, err := congest.RunNearestSource(g, sources, h, seed)
	if err != nil {
		return nil, nil, engineStats(s), fmt.Errorf("lightnet: %w", err)
	}
	return dist, nearest, engineStats(s), nil
}

// NoVertex is the sentinel "no vertex" value returned by
// DistributedNearestSource for unreached vertices.
const NoVertex = graph.NoVertex
