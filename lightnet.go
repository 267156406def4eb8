// Package lightnet is a Go implementation of "Distributed Construction
// of Light Networks" (Elkin, Filtser, Neiman — PODC 2020): CONGEST-model
// algorithms for light spanners of general graphs, shallow-light trees
// (SLTs), nets, and light spanners of doubling graphs, together with the
// substrates they are built from (MST fragment decompositions, Euler
// tours, hopsets, LE lists, approximate shortest-path trees) and a
// CONGEST simulator that accounts rounds and messages.
//
// The four headline constructions (Table 1 of the paper):
//
//	BuildLightSpanner   (2k−1)(1+ε) stretch, O(k·n^{1/k}) lightness   §5
//	BuildSLT            1+ε root stretch, 1+O(1/ε) lightness          §4
//	BuildSLTInverse     1+γ lightness, O(1/γ) root stretch            §4.4
//	BuildNet            ((1+δ)Δ)-covering, (Δ/(1+δ))-separated net    §6
//	BuildDoublingSpanner 1+ε stretch, ε^{-O(ddim)}·log n lightness    §7
//
// Every builder returns the distributed cost (rounds, messages) of the
// construction under the paper's accounting; see internal/congest for
// the model. Deterministic given the seed.
package lightnet

import (
	"fmt"

	"lightnet/internal/congest"
	"lightnet/internal/doubling"
	"lightnet/internal/graph"
	"lightnet/internal/lowerbound"
	"lightnet/internal/metrics"
	"lightnet/internal/mst"
	"lightnet/internal/nets"
	"lightnet/internal/slt"
	"lightnet/internal/spanner"
	"lightnet/internal/sssp"
)

// Re-exported core types. Graph is the weighted-graph container; see
// NewGraph and the generator functions in generators.go.
type (
	// Graph is an undirected weighted graph.
	Graph = graph.Graph
	// Vertex identifies a vertex (dense in [0, N)).
	Vertex = graph.Vertex
	// EdgeID identifies an undirected edge (dense in [0, M)).
	EdgeID = graph.EdgeID
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
)

// NoEdge is the sentinel "no edge" id (tree roots, absent parents).
const NoEdge = graph.NoEdge

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Cost is the distributed cost of a construction: either the paper's
// CONGEST accounting (Measured == false) or rounds and messages counted
// from actual engine message passing (Measured == true).
type Cost struct {
	// Rounds is the total number of synchronous rounds.
	Rounds int64
	// Messages is the total number of O(log n)-bit messages.
	Messages int64
	// Breakdown maps pipeline-stage labels to their round counts. Map
	// order is random; iterate sorted keys (or Stages) when printing.
	Breakdown map[string]int64
	// Stages is the ordered per-stage breakdown of a measured pipeline
	// run (nil for accounted constructions).
	Stages []StageCost
	// Measured reports whether Rounds/Messages were measured from real
	// message exchanges rather than charged by the paper's formulas.
	Measured bool
}

// StageCost is the measured cost of one pipeline stage.
type StageCost struct {
	Stage    string
	Rounds   int64
	Messages int64
}

func costOf(l *congest.Ledger) Cost {
	return Cost{Rounds: l.Rounds(), Messages: l.Messages(), Breakdown: l.ByLabel()}
}

func stageCosts(stages []congest.StageStats) []StageCost {
	if len(stages) == 0 {
		return nil
	}
	out := make([]StageCost, len(stages))
	for i, s := range stages {
		out[i] = StageCost{Stage: s.Name, Rounds: int64(s.Stats.Rounds), Messages: s.Stats.Messages}
	}
	return out
}

// options is the shared option state.
type options struct {
	seed      int64
	hopDiam   int
	sptMode   sssp.Mode
	measured  bool
	workers   int
	buckets   BucketAlgo
	faultSpec string
	retries   int
}

// Option configures a builder.
type Option func(*options)

// WithSeed fixes the random seed (default 1). Same seed, same output.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithHopDiameter supplies the graph's hop-diameter D used in round
// accounting; when omitted a 2-approximation is computed.
func WithHopDiameter(d int) Option { return func(o *options) { o.hopDiam = d } }

// WithExactSPT makes builders use exact shortest-path trees instead of
// the default genuinely-(1+ε)-approximate ones.
func WithExactSPT() Option { return func(o *options) { o.sptMode = sssp.ModeExact } }

// WithMeasured runs the construction as genuine per-vertex message
// passing on the CONGEST engine instead of charging the paper's round
// formulas: Cost then reports measured rounds/messages with a per-stage
// breakdown, and the result is bit-identical to the accounted builder's
// for the same seed (for BuildLightSpanner, the accounted twin is the
// distributable per-bucket Baswana-Sen clustering the pipeline
// executes). Currently supported by BuildSLT and BuildLightSpanner.
func WithMeasured() Option { return func(o *options) { o.measured = true } }

// WithWorkers sizes the engine worker pool for measured-mode runs
// (0 = GOMAXPROCS). Results are identical for every worker count.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithFaultSpec injects a deterministic fault plan into a WithMeasured
// run, given in the compact spec syntax, e.g.
//
//	drop=0.01,dup=0.005,delay=0.02,maxdelay=3,seed=7,crash=5@10,part=0.5@30-80
//
// The engine then drops/duplicates/delays messages and crashes vertices
// per the plan (fault streams are a pure hash of the plan — identical
// at every worker count), every pipeline stage is validated against a
// sequential oracle and retried under exponential round budgets, and
// crash-stop faults degrade the construction to the root's surviving
// component. The result carries a FaultReport. Requires WithMeasured;
// currently supported by BuildSLT and BuildLightSpanner.
func WithFaultSpec(spec string) Option { return func(o *options) { o.faultSpec = spec } }

// WithStageRetries raises the per-stage validator retry budget of a
// WithFaultSpec run (each retry re-runs the stage under an
// exponentially larger round budget and fresh fault draws). The
// default budget copes with light fault rates; raise it when the
// rate × message volume makes fault-free attempts rare. Requires
// WithFaultSpec.
func WithStageRetries(n int) Option { return func(o *options) { o.retries = n } }

// FaultReport summarizes a faulted measured run: the injected message
// faults, the extra stage attempts the validators forced, and the size
// of the root's surviving component under crash-stop faults (= the
// vertex count when nobody is permanently down).
type FaultReport struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Retries    int
	Survivors  int
}

// faultPlan resolves the option's fault spec (nil when unset).
func (o *options) faultPlan() (*congest.FaultPlan, error) {
	if o.faultSpec == "" {
		if o.retries != 0 {
			return nil, fmt.Errorf("lightnet: WithStageRetries requires WithFaultSpec (fault-free stages do not retry)")
		}
		return nil, nil
	}
	if !o.measured {
		return nil, fmt.Errorf("lightnet: WithFaultSpec requires WithMeasured (the accounted path exchanges no messages)")
	}
	return congest.ParseFaultSpec(o.faultSpec)
}

// BucketAlgo selects BuildLightSpanner's per-bucket cluster-spanner
// algorithm.
type BucketAlgo int

// Per-bucket algorithm choices.
const (
	// BucketEN17 (default) simulates the [EN17b] randomized spanner on
	// the tour-based cluster graph — the paper's choice.
	BucketEN17 BucketAlgo = iota
	// BucketGreedy runs the centralized greedy spanner per bucket (the
	// sequential-construction ablation).
	BucketGreedy
	// BucketBaswana runs the [BS07] clustering directly on each bucket's
	// edges — the O(k)-round distributable choice the measured pipeline
	// executes; accounted runs with it are bit-comparable to measured
	// ones.
	BucketBaswana
)

// WithBucketAlgo selects the spanner's per-bucket algorithm (default
// BucketEN17). A WithMeasured spanner always executes the BucketBaswana
// clustering; combine it with an accounted BucketBaswana run to compare
// identical outputs.
func WithBucketAlgo(a BucketAlgo) Option { return func(o *options) { o.buckets = a } }

func buildOptions(g *Graph, opts []Option) options {
	o := options{seed: 1, sptMode: sssp.ModePerturbed}
	for _, fn := range opts {
		fn(&o)
	}
	if o.hopDiam == 0 && g.N() > 0 {
		o.hopDiam = g.HopDiameterApprox()
	}
	return o
}

// SpannerResult is a light spanner plus certification data and cost.
type SpannerResult struct {
	// Edges of the spanner, including the MST.
	Edges []EdgeID
	// Weight, MSTWeight and Lightness certify the weight bound.
	Weight    float64
	MSTWeight float64
	Lightness float64
	// Faults reports a faulted measured run's diagnostics (nil when no
	// fault plan was active; see WithFaultSpec). When Survivors is below
	// the vertex count the spanner covers the surviving component only.
	Faults *FaultReport
	Cost   Cost
}

// BuildLightSpanner builds the §5 spanner: stretch (2k−1)(1+ε),
// O(k·n^{1+1/k}) edges, lightness O(k·n^{1/k}), in
// Õ(n^{1/2+1/(4k+2)} + D) rounds. With WithMeasured the whole
// construction — BFS tree, two-phase MST, MST-weight fixing, and every weight
// bucket's Baswana-Sen clustering — executes as per-vertex message
// passing on the CONGEST engine and the cost is measured rather than
// charged.
func BuildLightSpanner(g *Graph, k int, eps float64, opts ...Option) (*SpannerResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	sopts := spanner.Options{Seed: o.seed, Ledger: ledger, HopDiam: o.hopDiam}
	switch o.buckets {
	case BucketGreedy:
		sopts.Cluster = spanner.ClusterGreedy
	case BucketBaswana:
		sopts.Cluster = spanner.ClusterBaswana
	}
	if o.measured {
		sopts.Mode = spanner.Measured
		sopts.Workers = o.workers
	}
	plan, err := o.faultPlan()
	if err != nil {
		return nil, err
	}
	sopts.Faults = plan
	sopts.StageRetries = o.retries
	res, err := spanner.BuildLight(g, k, eps, sopts)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	cost := costOf(ledger)
	cost.Stages = stageCosts(res.Stages)
	cost.Measured = res.Stages != nil
	out := &SpannerResult{
		Edges:     res.Edges,
		Weight:    res.Weight,
		MSTWeight: res.MSTWeight,
		Lightness: res.Lightness,
		Cost:      cost,
	}
	if res.Survivors > 0 { // set only when a fault plan was active
		out.Faults = &FaultReport{
			Dropped: res.Faults.Dropped, Duplicated: res.Faults.Duplicated,
			Delayed: res.Faults.Delayed, Retries: res.PipelineRetries,
			Survivors: res.Survivors,
		}
	}
	return out, nil
}

// VerifySpanner measures the exact maximum and mean stretch of a
// spanner result over all graph edges (equals the all-pairs stretch).
func VerifySpanner(g *Graph, res *SpannerResult) (maxStretch, meanStretch float64, err error) {
	return metrics.EdgeStretch(g, g.Subgraph(res.Edges))
}

// SLTResult is a shallow-light tree plus certification data and cost.
type SLTResult struct {
	Root Vertex
	// TreeEdges are the n−1 tree edges; Parent[v] the parent edge
	// (NoEdge at the root); Dist[v] the tree distance from the root.
	TreeEdges []EdgeID
	Parent    []EdgeID
	Dist      []float64
	// Lightness = tree weight / MST weight.
	Lightness float64
	MSTWeight float64
	// Faults reports a faulted measured run's diagnostics (nil when no
	// fault plan was active; see WithFaultSpec). When Survivors is below
	// the vertex count the tree spans the surviving component only.
	Faults *FaultReport
	Cost   Cost
}

// BuildSLT builds the §4 SLT: root stretch 1+O(ε), lightness 1+O(1/ε),
// in Õ(√n + D)·poly(1/ε) rounds. With WithMeasured the whole pipeline
// executes as per-vertex message passing on the CONGEST engine and the
// cost is measured rather than charged (same tree, bit for bit).
func BuildSLT(g *Graph, root Vertex, eps float64, opts ...Option) (*SLTResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	mode := slt.Accounted
	if o.measured {
		mode = slt.Measured
	}
	plan, err := o.faultPlan()
	if err != nil {
		return nil, err
	}
	res, err := slt.Build(g, root, eps, slt.Options{
		Seed: o.seed, Ledger: ledger, HopDiam: o.hopDiam, SPTMode: o.sptMode,
		Mode: mode, Workers: o.workers, Faults: plan, StageRetries: o.retries,
	})
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	return sltResult(root, res, ledger), nil
}

// BuildSLTInverse builds the inverse-tradeoff SLT of §4.4 via the
// [BFN16] reduction: lightness 1+γ, root stretch O(1/γ).
func BuildSLTInverse(g *Graph, root Vertex, gamma float64, opts ...Option) (*SLTResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	res, err := slt.BuildInverse(g, root, gamma, slt.Options{
		Seed: o.seed, Ledger: ledger, HopDiam: o.hopDiam, SPTMode: o.sptMode,
	})
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	return sltResult(root, res, ledger), nil
}

func sltResult(root Vertex, res *slt.Result, ledger *congest.Ledger) *SLTResult {
	cost := costOf(ledger)
	cost.Stages = stageCosts(res.Stages)
	cost.Measured = res.Stages != nil
	out := &SLTResult{
		Root:      root,
		TreeEdges: res.TreeEdges,
		Parent:    res.Parent,
		Dist:      res.Dist,
		Lightness: res.Lightness,
		MSTWeight: res.MSTWeight,
		Cost:      cost,
	}
	if res.Survivors > 0 { // set only when a fault plan was active
		out.Faults = &FaultReport{
			Dropped: res.Faults.Dropped, Duplicated: res.Faults.Duplicated,
			Delayed: res.Faults.Delayed, Retries: res.PipelineRetries,
			Survivors: res.Survivors,
		}
	}
	return out
}

// VerifySLT certifies an SLT: returns the exact lightness and maximum
// root stretch.
func VerifySLT(g *Graph, res *SLTResult) (lightness, maxRootStretch float64, err error) {
	inner := &slt.Result{
		Source:    res.Root,
		Parent:    res.Parent,
		Dist:      res.Dist,
		TreeEdges: res.TreeEdges,
		MSTWeight: res.MSTWeight,
		Lightness: res.Lightness,
	}
	return slt.Verify(g, inner)
}

// NetResult is a constructed net plus certification data and cost.
type NetResult struct {
	// Points are the net vertices.
	Points []Vertex
	// Alpha is the covering radius (1+δ)·Δ; Beta the separation
	// Δ/(1+δ).
	Alpha, Beta float64
	// Iterations the §6 algorithm used (O(log n) w.h.p.).
	Iterations int
	Cost       Cost
}

// BuildNet builds the §6 ((1+δ)Δ, Δ/(1+δ))-net.
func BuildNet(g *Graph, scale, delta float64, opts ...Option) (*NetResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	res, err := nets.Build(g, scale, delta, nets.Options{
		Seed: o.seed, Ledger: ledger, HopDiam: o.hopDiam,
	})
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	return &NetResult{
		Points:     res.Points,
		Alpha:      res.Alpha,
		Beta:       res.Beta,
		Iterations: res.Iterations,
		Cost:       costOf(ledger),
	}, nil
}

// VerifyNet certifies covering and separation with exact shortest
// paths.
func VerifyNet(g *Graph, res *NetResult) error {
	return nets.Verify(g, res.Points, res.Alpha, res.Beta)
}

// BuildDoublingSpanner builds the §7 (1+O(ε))-spanner for doubling
// graphs, lightness ε^{-O(ddim)}·log n.
func BuildDoublingSpanner(g *Graph, eps float64, opts ...Option) (*SpannerResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	res, err := doubling.Build(g, eps, doubling.Options{
		Seed: o.seed, Ledger: ledger, HopDiam: o.hopDiam,
	})
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	return &SpannerResult{
		Edges:     res.Edges,
		Weight:    res.Weight,
		MSTWeight: res.MSTWeight,
		Lightness: res.Lightness,
		Cost:      costOf(ledger),
	}, nil
}

// MST returns the minimum spanning tree edges and weight.
func MST(g *Graph) ([]EdgeID, float64, error) {
	edges, w, err := mst.Kruskal(g)
	if err != nil {
		return nil, 0, fmt.Errorf("lightnet: %w", err)
	}
	return edges, w, nil
}

// EstimateMSTWeight runs the §8 (Theorem 7) reduction: an MST-weight
// estimate Ψ from net cardinalities with L ≤ Ψ ≤ O(α·log n)·L.
func EstimateMSTWeight(g *Graph, opts ...Option) (psi, mstWeight float64, err error) {
	o := buildOptions(g, opts)
	res, err := lowerbound.EstimatePsi(g, lowerbound.Options{
		Seed: o.seed, HopDiam: o.hopDiam,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("lightnet: %w", err)
	}
	return res.Psi, res.MSTWeight, nil
}

// BaselineBaswanaSen builds the [BS07] (2k−1)-spanner — sparse but with
// unbounded lightness; the comparison point of §1.1.
func BaselineBaswanaSen(g *Graph, k int, opts ...Option) (*SpannerResult, error) {
	o := buildOptions(g, opts)
	ledger := congest.NewLedger()
	edges, err := spanner.BaswanaSen(g, k, o.seed, ledger, o.hopDiam)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	_, mstW, err := mst.Kruskal(g)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	w := g.WeightOf(edges)
	return &SpannerResult{
		Edges: edges, Weight: w, MSTWeight: mstW,
		Lightness: w / mstW, Cost: costOf(ledger),
	}, nil
}

// BaselineGreedySpanner builds the greedy t-spanner [ADD+93]
// (centralized; the quality yardstick).
func BaselineGreedySpanner(g *Graph, t float64) (*SpannerResult, error) {
	edges, err := spanner.Greedy(g, t)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	_, mstW, err := mst.Kruskal(g)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	w := g.WeightOf(edges)
	return &SpannerResult{
		Edges: edges, Weight: w, MSTWeight: mstW, Lightness: w / mstW,
	}, nil
}

// BaselineKRYSLT builds the [KRY95] sequential SLT baseline.
func BaselineKRYSLT(g *Graph, root Vertex, eps float64) (*SLTResult, error) {
	res, err := slt.KRY(g, root, eps)
	if err != nil {
		return nil, fmt.Errorf("lightnet: %w", err)
	}
	return sltResult(root, res, congest.NewLedger()), nil
}

// BaselineGreedyNet builds the sequential greedy (β, β)-net.
func BaselineGreedyNet(g *Graph, beta float64) *NetResult {
	res := nets.Greedy(g, beta)
	return &NetResult{
		Points: res.Points, Alpha: res.Alpha, Beta: res.Beta, Iterations: 1,
	}
}
