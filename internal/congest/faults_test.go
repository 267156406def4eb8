package congest

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"lightnet/internal/graph"
)

// --- FaultPlan spec parsing ---------------------------------------------

func TestFaultSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"drop=0.1",
		"drop=0.05,dup=0.01,delay=0.1,maxdelay=3,seed=7",
		"crash=5@10",
		"crash=9@20-80",
		"crash=0@0,crash=3@4-9",
		"part=0.5@30-80",
		"drop=1",
		"drop=0.2,crash=2@1,part=0.25@1-64,part=0.75@100-200",
	} {
		p, err := ParseFaultSpec(spec)
		if err != nil {
			t.Fatalf("ParseFaultSpec(%q): %v", spec, err)
		}
		q, err := ParseFaultSpec(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, q)
		}
	}
}

func TestFaultSpecRejects(t *testing.T) {
	for _, spec := range []string{
		"drop",             // no value
		"drop=",            // empty value
		"bogus=1",          // unknown key
		"drop=2",           // probability out of range
		"drop=0.6,dup=0.6", // sum > 1
		"drop=x",
		"crash=5",             // missing @round
		"crash=5@-1",          // negative round
		"crash=5@10-3",        // restart before crash
		"crash=5@0-3",         // round-0 crash cannot restart
		"crash=5@1,crash=5@2", // duplicate vertex
		"part=0.5",            // missing window
		"part=0.5@9-9",        // empty window
		"part=1.5@1-2",        // frac out of range
		"maxdelay=-1",
		"drop=0.1,drop=0.2", // duplicate scalar key
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q): want error, got nil", spec)
		}
	}
}

func TestFaultPlanValidateBounds(t *testing.T) {
	p := &FaultPlan{Crashes: []Crash{{Vertex: 12, Round: 1}}}
	if err := p.Validate(8); err == nil {
		t.Fatal("crash vertex 12 on an 8-vertex graph: want error")
	}
	if err := p.Validate(16); err != nil {
		t.Fatalf("crash vertex 12 on a 16-vertex graph: %v", err)
	}
	// An invalid plan surfaces from the engine run, not as a panic.
	g := graph.Path(4, 1)
	minID := make([]int64, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	}, Options{Faults: &FaultPlan{Crashes: []Crash{{Vertex: 12, Round: 1}}}})
	if _, err := eng.Run(); err == nil {
		t.Fatal("engine with out-of-range crash vertex: want error")
	}
}

// --- engine semantics ----------------------------------------------------

// runFloodMin runs leader election under the given options and returns
// the per-vertex minima, stats and fault stats.
func runFloodMin(t *testing.T, g *graph.Graph, opts Options) ([]int64, Stats, FaultStats) {
	t.Helper()
	minID := make([]int64, g.N())
	for v := range minID {
		minID[v] = -7 // sentinel: visible iff the vertex never ran Init
	}
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	}, opts)
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("flood-min: %v", err)
	}
	return minID, stats, eng.FaultStats()
}

// An engine under the zero FaultPlan must be bit-identical to one with
// Options.Faults == nil, and must report zero fault stats.
func TestEmptyFaultPlanIsNoop(t *testing.T) {
	g := graph.ErdosRenyi(60, 0.1, 5, 3)
	refMin, refStats, _ := runFloodMin(t, g, Options{Seed: 7})
	gotMin, gotStats, fs := runFloodMin(t, g, Options{Seed: 7, Faults: &FaultPlan{}})
	if !reflect.DeepEqual(refMin, gotMin) {
		t.Fatal("zero FaultPlan changed the result")
	}
	if refStats != gotStats {
		t.Fatalf("zero FaultPlan changed stats: %+v vs %+v", gotStats, refStats)
	}
	if fs != (FaultStats{}) {
		t.Fatalf("zero FaultPlan injected faults: %+v", fs)
	}
}

// The fault stream is a pure hash of (seed, round, slot): the same plan
// must produce identical results, stats and fault counts at every
// worker-pool size.
func TestFaultStreamDeterministicAcrossWorkers(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.08, 5, 11)
	plan := &FaultPlan{Seed: 5, Drop: 0.1, Duplicate: 0.05, Delay: 0.1, MaxDelay: 3,
		Crashes: []Crash{{Vertex: 9, Round: 2, Restart: 6}}}
	refMin, refStats, refFS := runFloodMin(t, g, Options{Seed: 7, Workers: 1, Faults: plan})
	if refFS.Dropped == 0 || refFS.Duplicated == 0 || refFS.Delayed == 0 {
		t.Fatalf("plan injected nothing: %+v", refFS)
	}
	for _, w := range []int{2, 3, 7, 8, 16} {
		gotMin, gotStats, gotFS := runFloodMin(t, g, Options{Seed: 7, Workers: w, Faults: plan})
		if !reflect.DeepEqual(refMin, gotMin) {
			t.Fatalf("workers=%d: results differ", w)
		}
		if refStats != gotStats {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", w, gotStats, refStats)
		}
		if refFS != gotFS {
			t.Fatalf("workers=%d: fault stats differ: %+v vs %+v", w, gotFS, refFS)
		}
	}
}

// Under delay=1 every message arrives late but none is lost: flood-min
// still converges to the true minima, and the run costs extra rounds.
func TestDelayedMessagesEventuallyArrive(t *testing.T) {
	g := graph.Path(32, 1)
	refMin, refStats, _ := runFloodMin(t, g, Options{Seed: 3})
	gotMin, gotStats, fs := runFloodMin(t, g, Options{Seed: 3,
		Faults: &FaultPlan{Seed: 2, Delay: 1, MaxDelay: 3}})
	if !reflect.DeepEqual(refMin, gotMin) {
		t.Fatal("delays must not lose messages: minima differ")
	}
	if fs.Delayed == 0 || fs.Dropped != 0 {
		t.Fatalf("want only delays, got %+v", fs)
	}
	if gotStats.Rounds <= refStats.Rounds {
		t.Fatalf("delayed run finished in %d rounds, fault-free took %d",
			gotStats.Rounds, refStats.Rounds)
	}
}

// A crash-stop vertex never runs (not even Init) and receives nothing;
// the flood is blocked at it.
func TestCrashStopVertexNeverActs(t *testing.T) {
	g := graph.Path(4, 1) // 0-1-2-3
	minID, _, fs := runFloodMin(t, g, Options{
		Faults: &FaultPlan{Crashes: []Crash{{Vertex: 1, Round: 0}}}})
	want := []int64{0, -7, 2, 2} // vertex 1 dead: 0's flood cannot reach 2,3
	if !reflect.DeepEqual(minID, want) {
		t.Fatalf("minima = %v, want %v", minID, want)
	}
	if fs.CrashDropped == 0 {
		t.Fatalf("messages to the dead vertex must count as crash drops: %+v", fs)
	}
}

// heartbeatProg keeps the network busy: every vertex broadcasts and
// stays awake until round `until`, recording the rounds in which its
// handler ran. It gives crash-restart a live network to rejoin.
type heartbeatProg struct {
	NoPhases
	until int
	ran   [][]int // shared; per-vertex rounds in which Handle ran
}

func (p *heartbeatProg) Init(ctx *Ctx) {
	if err := ctx.Broadcast('h'); err != nil {
		ctx.Fail(err)
	}
}

func (p *heartbeatProg) Handle(ctx *Ctx, _ []Message) {
	v := ctx.V()
	p.ran[v] = append(p.ran[v], ctx.Round())
	if ctx.Round() < p.until {
		if err := ctx.Broadcast('h'); err != nil {
			ctx.Fail(err)
		}
	}
}

// A crash-restart vertex is down for exactly [Round, Restart) and then
// rejoins the running network.
func TestCrashRestartWindow(t *testing.T) {
	g := graph.Cycle(3, 1)
	ran := make([][]int, g.N())
	eng := NewEngine(g, func(graph.Vertex) Program {
		return &heartbeatProg{until: 10, ran: ran}
	}, Options{
		MaxRounds: 64,
		Faults:    &FaultPlan{Crashes: []Crash{{Vertex: 1, Round: 2, Restart: 5}}},
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := ran[1]
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("vertex 1 should run in round 1 before its crash: %v", got)
	}
	for _, r := range got {
		if r >= 2 && r < 5 {
			t.Fatalf("vertex 1 ran in round %d while down [2,5): %v", r, got)
		}
	}
	rejoined := false
	for _, r := range got {
		if r >= 5 {
			rejoined = true
			break
		}
	}
	if !rejoined {
		t.Fatalf("vertex 1 never rejoined after restart round 5: %v", got)
	}
	if fs := eng.FaultStats(); fs.CrashDropped == 0 {
		t.Fatalf("broadcasts into the down window must be crash-dropped: %+v", fs)
	}
}

// A permanent partition splits flood-min into per-side minima.
func TestPartitionCutsMessages(t *testing.T) {
	g := graph.Complete(8, 5, 3)
	minID, _, fs := runFloodMin(t, g, Options{
		Faults: &FaultPlan{Seed: 4, Partitions: []Partition{{Frac: 0.5, From: 1, Until: 1 << 20}}}})
	if fs.PartitionDropped == 0 {
		t.Fatalf("partition dropped nothing: %+v", fs)
	}
	distinct := map[int64]bool{}
	missedGlobal := false
	for _, m := range minID {
		distinct[m] = true
		if m != 0 {
			missedGlobal = true
		}
	}
	if len(distinct) != 2 || !missedGlobal {
		t.Fatalf("want exactly the two per-side minima, got %v", minID)
	}
}

// --- fuzz: spec parse round-trip + same-seed-same-stream -----------------

func FuzzFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"drop=0.1",
		"drop=0.05,dup=0.01,delay=0.1,maxdelay=3,seed=7",
		"crash=5@10,crash=9@20-80",
		"part=0.5@30-80",
		"drop=1,seed=-3",
		"drop=0.2,crash=2@1,part=0.25@1-64",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		// Property 1: String/Parse round-trip is exact.
		q, err := ParseFaultSpec(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, q)
		}
		// Property 2: same seed ⇒ same fault stream. Two injectors built
		// from the same plan must agree on every classification, crash
		// window and partition side.
		const n = 16
		if err := p.Validate(n); err != nil {
			return // vertex ids beyond the probe graph
		}
		a := newFaultInjector(p, 42, n)
		b := newFaultInjector(p, 42, n)
		for r := 0; r < 9; r++ {
			for slot := int64(0); slot < 8; slot++ {
				ka, da := a.classify(r, slot)
				kb, db := b.classify(r, slot)
				if ka != kb || da != db {
					t.Fatalf("classify(%d,%d) diverged: (%v,%d) vs (%v,%d)", r, slot, ka, da, kb, db)
				}
			}
			for v := graph.Vertex(0); v < n; v++ {
				if a.down(v, r) != b.down(v, r) {
					t.Fatalf("down(%d,%d) diverged", v, r)
				}
				if a.cut(0, v, r) != b.cut(0, v, r) {
					t.Fatalf("cut(0,%d,%d) diverged", v, r)
				}
			}
		}
	})
}

// --- pipeline recovery ---------------------------------------------------

// A failing validator triggers bounded retry; each attempt re-runs the
// stage from a clean transient state with the caller's Reset applied.
func TestStageValidatorRetries(t *testing.T) {
	g := graph.Cycle(8, 1)
	pipe := NewPipeline(g, Options{Seed: 1, MaxRounds: 128})
	minID := make([]int64, g.N())
	attempts, resets := 0, 0
	_, err := pipe.RunStage("elect", func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	},
		Validate(func() error {
			attempts++
			if attempts < 3 {
				return errors.New("synthetic invariant failure")
			}
			return nil
		}),
		Reset(func() { resets++ }),
		Retries(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	st := pipe.Stages()[len(pipe.Stages())-1]
	if st.Attempts != 3 || attempts != 3 || resets != 2 {
		t.Fatalf("attempts=%d validator-calls=%d resets=%d, want 3/3/2", st.Attempts, attempts, resets)
	}
	if pipe.Retries() != 2 {
		t.Fatalf("pipeline retries = %d, want 2", pipe.Retries())
	}
	for v, m := range minID {
		if m != 0 {
			t.Fatalf("min[%d] = %d after successful retry", v, m)
		}
	}
}

// Exhausted retries surface a diagnosable error: stage name, attempt
// count and the rounds spent — and still poison the pipeline.
func TestStageRetriesExhausted(t *testing.T) {
	g := graph.Cycle(6, 1)
	pipe := NewPipeline(g, Options{Seed: 1, MaxRounds: 128})
	minID := make([]int64, g.N())
	factory := func(graph.Vertex) Program { return &floodMinProgram{min: minID} }
	_, err := pipe.RunStage("elect", factory,
		Validate(func() error { return errors.New("always wrong") }),
		Retries(2),
	)
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	msg := err.Error()
	for _, want := range []string{`stage "elect"`, "3 attempt(s)", "rounds="} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	if _, err := pipe.RunStage("next", factory); err == nil {
		t.Fatal("pipeline must stay poisoned after exhausted retries")
	}
}

// Under message drops a stage may finish with a broken invariant; the
// validator catches it and retry converges, because each attempt runs
// at later absolute rounds and therefore sees fresh fault draws. The
// always-broadcast flood-min twin keeps the per-attempt round counts,
// and so the draws, that this plan was chosen for.
func TestStageRetryRecoversFromDrops(t *testing.T) {
	g := graph.Cycle(12, 1)
	pipe := NewPipeline(g, Options{Seed: 1, MaxRounds: 256,
		Faults: &FaultPlan{Seed: 9, Drop: 0.35}})
	minID := make([]int64, g.N())
	reset := func() {
		for v := range minID {
			minID[v] = 0
		}
	}
	_, err := pipe.RunStage("elect", func(graph.Vertex) Program {
		return &alwaysFloodMin{min: minID}
	},
		Validate(func() error {
			for v, m := range minID {
				if m != 0 {
					return errors.New("vertex " + string(rune('0'+v%10)) + " missed the leader")
				}
			}
			return nil
		}),
		Reset(reset),
		Retries(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range minID {
		if m != 0 {
			t.Fatalf("min[%d] = %d", v, m)
		}
	}
	if fs := pipe.FaultStats(); fs.Dropped == 0 {
		t.Fatalf("the plan dropped nothing: %+v", fs)
	}
	t.Logf("converged after %d attempt(s), faults %+v",
		pipe.Stages()[len(pipe.Stages())-1].Attempts, pipe.FaultStats())
}
