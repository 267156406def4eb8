package congest

import (
	"fmt"
	"math"
	"testing"

	"lightnet/internal/graph"
)

// sparseEchoProgram keeps exactly one message in flight forever: vertex
// a opens by sending to its right neighbor, and every recipient echoes
// on the arrival edge. After round 1 (in which every vertex runs once,
// per the engine contract) only two vertices and one edge are ever
// active — the adversarial workload for the active-set round loop.
type sparseEchoProgram struct {
	NoPhases
	a graph.Vertex
}

func (p *sparseEchoProgram) Init(ctx *Ctx) {
	if ctx.V() == p.a {
		if err := ctx.SendTo(p.a+1, 0); err != nil {
			ctx.Fail(err)
		}
	}
}

func (p *sparseEchoProgram) Handle(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		if err := ctx.Send(m.Via, m.Words[0]+1); err != nil {
			ctx.Fail(err)
		}
	}
}

// pruningEchoProgram exercises Ctx.BroadcastExcept on the steady-state
// path the way the receiver-aware programs do: a per-slot table of the
// last word heard (HeardTable) and a skip closure that captures the
// program, a local and the context. Stay keeps every vertex running, so
// the engine never quiesces even on rounds that skip every slot.
type pruningEchoProgram struct {
	NoPhases
	heard []int64
}

func (p *pruningEchoProgram) Init(ctx *Ctx) {
	p.heard = HeardTable(ctx, p.heard, -1)
	ctx.Stay()
}

func (p *pruningEchoProgram) Handle(ctx *Ctx, inbox []Message) {
	for _, m := range inbox {
		p.heard[ctx.SlotOf(m.Via)] = m.Words[0]
	}
	mine := int64(ctx.Round())
	if err := ctx.BroadcastExcept(func(s int, h graph.Half) bool {
		return (mine+int64(s)+int64(h.To))%3 == 0 && p.heard[s] >= 0
	}, mine); err != nil {
		ctx.Fail(err)
	}
	ctx.Stay()
}

// steadyEngine builds an engine, runs Init and enough warm-up rounds
// for every reusable buffer (arenas, inboxes, worklists, dirty list,
// stripes) to reach steady-state capacity, and returns it ready for
// stepRound.
func steadyEngine(t testing.TB, g *graph.Graph, factory func(graph.Vertex) Program) *Engine {
	return steadyEngineWorkers(t, g, factory, 1)
}

// steadyEngineWorkers is steadyEngine with an explicit worker count:
// with workers > 1 the warm-up also starts the round worker pool and
// fills the per-chunk stripes, so the measured rounds exercise the
// striped parallel path. The pool is stopped at test cleanup.
func steadyEngineWorkers(t testing.TB, g *graph.Graph, factory func(graph.Vertex) Program, workers int) *Engine {
	eng := NewEngine(g, factory, Options{Workers: workers, MaxRounds: math.MaxInt / 2})
	t.Cleanup(eng.stopPool)
	for v := range eng.progs {
		eng.progs[v].Init(&eng.ctxs[v])
	}
	eng.collect(nil)
	for i := 0; i < 16; i++ {
		ran, err := eng.stepRound()
		if err != nil {
			t.Fatalf("warm-up round %d: %v", i, err)
		}
		if !ran {
			t.Fatalf("warm-up round %d: engine quiesced; workload must run forever", i)
		}
	}
	return eng
}

// TestSteadyStateAllocs: a quiescent-topology steady-state round — the
// regime of pipelined broadcast tails and Bellman-Ford convergence —
// must perform zero heap allocations, both under dense traffic (every
// vertex sends on every edge) and sparse traffic (one message in
// flight on a large graph).
func TestSteadyStateAllocs(t *testing.T) {
	t.Run("dense-ping-pong", func(t *testing.T) {
		eng := steadyEngine(t, graph.Cycle(64, 1), func(graph.Vertex) Program {
			return &pingPongProgram{}
		})
		assertZeroAllocRounds(t, eng)
	})
	t.Run("sparse-echo", func(t *testing.T) {
		g := graph.Path(4096, 1)
		a := graph.Vertex(g.N() / 2)
		eng := steadyEngine(t, g, func(graph.Vertex) Program {
			return &sparseEchoProgram{a: a}
		})
		assertZeroAllocRounds(t, eng)
	})
	// A receiver-aware broadcast's skip predicate must not allocate.
	t.Run("broadcast-except", func(t *testing.T) {
		eng := steadyEngine(t, graph.Grid(16, 16, 1, 2), func(graph.Vertex) Program {
			return &pruningEchoProgram{}
		})
		assertZeroAllocRounds(t, eng)
	})
	// The striped parallel path must hold the same bar: once the worker
	// pool is running and the per-chunk stripes have reached capacity, a
	// round performs zero heap allocations at any worker count.
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("dense-ping-pong-workers-%d", workers), func(t *testing.T) {
			eng := steadyEngineWorkers(t, graph.Cycle(512, 1), func(graph.Vertex) Program {
				return &pingPongProgram{}
			}, workers)
			assertZeroAllocRounds(t, eng)
		})
	}
}

// TestStageTransitionAllocs: switching a pipeline from one stage to the
// next must not cost O(n) allocations. With StagePools-backed factories
// the installation sweep resets pooled program slots in place, so a
// stage transition after the first costs only the factory closure and
// the per-stage stats record — a small constant, independent of n.
func TestStageTransitionAllocs(t *testing.T) {
	g := graph.Cycle(256, 1)
	n := g.N()
	pipe := NewPipeline(g, Options{Workers: 1, MaxRounds: 4 * n})
	pools := &StagePools{}
	out := make([]int64, n)
	runStage := func() {
		if _, err := pipe.RunStage("flood", pools.FloodWord(n, 0, 42, out)); err != nil {
			t.Fatalf("stage: %v", err)
		}
	}
	// Warm the pools, arenas and worklists with a few full stages.
	for i := 0; i < 4; i++ {
		runStage()
	}
	avg := testing.AllocsPerRun(32, runStage)
	// The budget is a small constant (factory closure, stage-stats
	// append amortization) — the point is that it is not O(n)=256.
	if avg > 8 {
		t.Fatalf("stage transition allocates %v allocs/stage, want <= 8 (n=%d)", avg, n)
	}
}

func assertZeroAllocRounds(t *testing.T, eng *Engine) {
	t.Helper()
	avg := testing.AllocsPerRun(200, func() {
		ran, err := eng.stepRound()
		if err != nil {
			t.Fatalf("steady-state round: %v", err)
		}
		if !ran {
			t.Fatal("steady-state round: engine quiesced")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state round allocates: %v allocs/round, want 0", avg)
	}
}

// BenchmarkSteadyStateRound is the per-round cost of the engine itself:
// one op is one synchronous round. dense has every vertex broadcasting
// on a 2048-cycle; sparse has a single message in flight on a
// 65536-vertex path, the regime where round cost must be O(active)
// rather than O(n+m).
func BenchmarkSteadyStateRound(b *testing.B) {
	b.Run("dense-cycle-2048", func(b *testing.B) {
		eng := steadyEngine(b, graph.Cycle(2048, 1), func(graph.Vertex) Program {
			return &pingPongProgram{}
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ran, err := eng.stepRound(); err != nil || !ran {
				b.Fatalf("round: ran=%v err=%v", ran, err)
			}
		}
	})
	b.Run("sparse-path-65536", func(b *testing.B) {
		g := graph.Path(65536, 1)
		a := graph.Vertex(g.N() / 2)
		eng := steadyEngine(b, g, func(graph.Vertex) Program {
			return &sparseEchoProgram{a: a}
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ran, err := eng.stepRound(); err != nil || !ran {
				b.Fatalf("round: ran=%v err=%v", ran, err)
			}
		}
	})
}
