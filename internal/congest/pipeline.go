package congest

import (
	"fmt"
	"time"

	"lightnet/internal/graph"
)

// This file is the program-composition layer of the package (layer 2 of
// the package doc): a Pipeline sequences multiple Programs — stages — on
// ONE engine instance over one shared frozen CSR graph.
//
// Composite CONGEST constructions are sequences of distributed
// sub-algorithms over the same network: an MST, then a rooting pass over
// its tree edges, then a shortest-path phase, and so on. Running each
// sub-algorithm on a fresh Engine would work, but would re-freeze the
// graph, reset the per-vertex RNG streams, and make every stage's cost an
// isolated number. The Pipeline instead:
//
//   - keeps the engine's graph, arenas, outbox and per-vertex RNGs alive
//     across stages (the RNG streams continue, so a randomized stage
//     followed by another is deterministically reproducible as a whole);
//   - carries per-vertex state between stages through caller-owned
//     slices: the stage programs of one construction share a state
//     struct and each vertex writes only its own slots, exactly the
//     contract Program already imposes for the worker pool;
//   - records per-stage Stats and wall time next to the engine's
//     cumulative Stats, so a pipeline's cost is analyzable phase by
//     phase;
//   - optionally restricts a stage to an edge subset (Restrict): sends
//     outside the subset fail, Broadcast skips them. A BFS program run
//     under Restrict(treeEdges) roots a tree without knowing it is not
//     seeing the whole graph.
//
// Determinism: stages run strictly one after another on the same
// deterministic round loop, so everything that holds for a single
// program run (bit-identical results, Stats and RNG streams for every
// worker count) holds for a pipeline as a whole.
type Pipeline struct {
	eng     *Engine
	stages  []StageStats
	retries int   // extra stage attempts across the pipeline
	err     error // first stage failure; poisons subsequent stages
}

// StageStats is the measured cost of one pipeline stage. Stats
// accumulates across every attempt of the stage; Attempts is 1 for a
// stage that passed first time. Wall is the stage's elapsed time over
// all attempts: it depends on the host, so unlike the other fields it
// differs between runs and is left out of every bit-identity check.
type StageStats struct {
	Name     string
	Stats    Stats
	Attempts int
	Wall     time.Duration
}

// NewPipeline builds a pipeline over g. The graph is frozen to its CSR
// representation; callers must not mutate it while the pipeline exists.
// Options apply to every stage (MaxRounds is the default per-stage round
// budget; see StageMaxRounds).
func NewPipeline(g *graph.Graph, opts Options) *Pipeline {
	return &Pipeline{eng: newEngine(g, opts)}
}

// Graph returns the shared communication graph.
func (p *Pipeline) Graph() *graph.Graph { return p.eng.g }

// stageConfig collects per-stage options.
type stageConfig struct {
	restrict  []bool
	verts     []int32
	maxRounds int
	validate  func() error
	reset     func()
	retries   int
}

// StageOption configures one pipeline stage.
type StageOption func(*stageConfig)

// Restrict limits the stage to the marked edges (indexed by edge id,
// length M): Ctx.Send on an unmarked edge returns ErrEdgeRestricted and
// Ctx.Broadcast skips unmarked edges. The slice is read during the stage
// only; callers may reuse it afterwards.
func Restrict(edges []bool) StageOption {
	return func(c *stageConfig) { c.restrict = edges }
}

// Verts limits the stage to the listed vertices (each in [0, N), no
// duplicates): programs are installed, initialized, phase-polled and
// collected only at these vertices, so the stage's fixed overhead is
// O(|verts|) instead of O(n) — the difference between a per-bucket
// Baswana-Sen stage costing O(bucket) and costing O(graph). Verts must
// be combined with Restrict, and every endpoint of every restricted
// edge must be listed: a message reaching an unlisted vertex would
// dispatch whatever program a previous stage left there. The slice is
// read during the stage only; callers may reuse it afterwards.
func Verts(vs []int32) StageOption {
	return func(c *stageConfig) { c.verts = vs }
}

// StageMaxRounds overrides the stage's round budget (default:
// Options.MaxRounds, counted per stage, not cumulatively).
func StageMaxRounds(r int) StageOption {
	return func(c *stageConfig) { c.maxRounds = r }
}

// Validate installs a post-stage invariant check: after the stage
// quiesces, fn inspects the caller-owned result state and returns a
// non-nil error if the stage's contract is violated (a vertex that
// never heard its parent, inconsistent fragment labels, …). A failing
// validator triggers the stage's retry policy exactly like an engine
// error.
func Validate(fn func() error) StageOption {
	return func(c *stageConfig) { c.validate = fn }
}

// Retries allows the stage to be re-run up to n extra times when it
// fails (engine error or validator rejection). Each attempt doubles the
// round budget (budget, 2·budget, 4·budget, …) and starts from a clean
// transient engine state; attempt i runs at later absolute rounds than
// attempt i−1, so under a FaultPlan it sees fresh fault draws — that is
// what lets bounded retry converge through message faults. Default 0.
func Retries(n int) StageOption {
	return func(c *stageConfig) { c.retries = n }
}

// Reset installs a hook run before every retry attempt (not before the
// first). It must restore the caller-owned state the stage writes into
// (shared result slices) to its pre-stage value; per-program state is
// rebuilt anyway, because every attempt re-invokes the factory.
func Reset(fn func()) StageOption {
	return func(c *stageConfig) { c.reset = fn }
}

// RunStage installs one Program per vertex via factory and drives it
// from Init to quiescence (across all its phases), exactly as
// Engine.Run would. Per-vertex Ctx state (RNG streams, arenas) persists
// from prior stages; every vertex starts the stage awake, so Handle runs
// at least once per vertex. Returns the stage's own Stats (also recorded
// in Stages). A failed stage poisons the pipeline: subsequent RunStage
// calls return the same error without running.
func (p *Pipeline) RunStage(name string, factory func(v graph.Vertex) Program, sopts ...StageOption) (Stats, error) {
	var cfg stageConfig
	for _, o := range sopts {
		o(&cfg)
	}
	e := p.eng
	if p.err != nil {
		return Stats{}, fmt.Errorf("congest: stage %q after failed stage: %w", name, p.err)
	}
	if cfg.verts != nil && cfg.restrict == nil {
		p.err = fmt.Errorf("congest: stage %q: Verts requires Restrict (unrestricted traffic could reach unlisted vertices)", name)
		return Stats{}, p.err
	}
	start := time.Now()
	before := e.stats
	e.restrict = cfg.restrict
	e.verts = cfg.verts
	budget := cfg.maxRounds
	if budget <= 0 {
		budget = e.opts.MaxRounds
	}
	e.stats.MaxWords = 0 // track the stage's own peak message size
	var err error
	attempts := 0
	for try := 0; try <= cfg.retries; try++ {
		attempts++
		if try > 0 {
			// Clean the engine's transient execution state and let the
			// caller restore its shared result slices; the factory below
			// rebuilds per-vertex program state.
			e.resetTransient()
			if cfg.reset != nil {
				cfg.reset()
			}
		}
		// Exponential round budgets: attempt i may run up to 2^i times
		// the base budget, counted from the rounds already spent. The
		// exponent is capped so large retry counts cannot overflow the
		// shift — a 1024× budget is ample for any recoverable stage.
		shift := try
		if shift > 10 {
			shift = 10
		}
		e.roundLimit = e.stats.Rounds + budget<<shift
		if cfg.verts != nil {
			for _, v := range cfg.verts {
				e.ctxs[v].awake = true
				e.progs[v] = factory(graph.Vertex(v))
			}
		} else {
			for v := range e.ctxs {
				e.ctxs[v].awake = true
				e.progs[v] = factory(graph.Vertex(v))
			}
		}
		err = e.runProgram()
		if err == nil && cfg.validate != nil {
			err = cfg.validate()
		}
		if err == nil {
			break
		}
	}
	e.restrict = nil
	e.verts = nil
	st := Stats{
		Rounds:   e.stats.Rounds - before.Rounds,
		Messages: e.stats.Messages - before.Messages,
		Words:    e.stats.Words - before.Words,
		MaxWords: e.stats.MaxWords,
		Phases:   e.stats.Phases - before.Phases,
	}
	if before.MaxWords > e.stats.MaxWords {
		e.stats.MaxWords = before.MaxWords // restore the cumulative peak
	}
	p.stages = append(p.stages, StageStats{Name: name, Stats: st, Attempts: attempts, Wall: time.Since(start)})
	p.retries += attempts - 1
	if err != nil {
		p.err = err
		lastShift := attempts - 1
		if lastShift > 10 {
			lastShift = 10
		}
		return st, fmt.Errorf(
			"congest: stage %q failed after %d attempt(s) (rounds=%d messages=%d budget=%d..%d): %w",
			name, attempts, st.Rounds, st.Messages, budget, budget<<lastShift, err)
	}
	return st, nil
}

// Stages returns the per-stage statistics in execution order. The slice
// is owned by the pipeline; callers must not mutate it.
func (p *Pipeline) Stages() []StageStats { return p.stages }

// Total returns the cumulative statistics across all stages run so far.
func (p *Pipeline) Total() Stats { return p.eng.stats }

// Retries returns the number of extra stage attempts run so far (0 on a
// fault-free pipeline).
func (p *Pipeline) Retries() int { return p.retries }

// FaultStats returns the faults the engine injected so far (zero when
// Options.Faults is nil or inactive).
func (p *Pipeline) FaultStats() FaultStats { return p.eng.FaultStats() }
