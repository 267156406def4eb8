package congest

import (
	"errors"
	"testing"

	"lightnet/internal/graph"
)

// TestPipelineStagesShareState: a two-stage pipeline where stage 2
// consumes stage 1's per-vertex output — the composition layer's core
// contract. Stage 1 elects a leader (flood-min); stage 2 builds a BFS
// tree rooted at it.
func TestPipelineStagesShareState(t *testing.T) {
	g := graph.ErdosRenyi(120, 0.06, 9, 5)
	p := NewPipeline(g, Options{Seed: 3})
	minID := make([]int64, g.N())
	s1, err := p.RunStage("leader", func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Rounds == 0 || s1.Messages == 0 {
		t.Fatalf("leader stage recorded no cost: %+v", s1)
	}
	root := graph.Vertex(minID[0])
	parent := make([]graph.EdgeID, g.N())
	depth := make([]int32, g.N())
	s2, err := p.RunStage("bfs", func(graph.Vertex) Program {
		return &bfsProgram{root: root, depth: depth, parent: parent}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantParent, wantDepth := g.BFSTree(root)
	for v := range wantDepth {
		if depth[v] != wantDepth[v] {
			t.Fatalf("vertex %d: depth %d want %d", v, depth[v], wantDepth[v])
		}
		_ = wantParent
	}
	stages := p.Stages()
	if len(stages) != 2 || stages[0].Name != "leader" || stages[1].Name != "bfs" {
		t.Fatalf("stage record wrong: %+v", stages)
	}
	total := p.Total()
	if total.Rounds != s1.Rounds+s2.Rounds || total.Messages != s1.Messages+s2.Messages {
		t.Fatalf("stage stats do not sum to total: %+v + %+v != %+v", s1, s2, total)
	}
}

// TestPipelineRestrict: a restricted stage must not see or use edges
// outside its subgraph — Broadcast skips them, Send rejects them.
func TestPipelineRestrict(t *testing.T) {
	// A triangle plus a pendant: restrict to the path 0-1-2 (no chord).
	g := graph.New(4)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 1)
	chord := g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 3, 1)
	allowed := make([]bool, g.M())
	allowed[e01], allowed[e12] = true, true

	p := NewPipeline(g, Options{})
	depth := make([]int32, g.N())
	parent := make([]graph.EdgeID, g.N())
	if _, err := p.RunStage("bfs", func(graph.Vertex) Program {
		return &bfsProgram{root: 0, depth: depth, parent: parent}
	}, Restrict(allowed)); err != nil {
		t.Fatal(err)
	}
	// Vertex 2 must be reached via the path (depth 2), not the chord,
	// and vertex 3 (only reachable over a restricted edge) not at all.
	if depth[2] != 2 || parent[2] != e12 {
		t.Fatalf("restricted BFS used forbidden edges: depth[2]=%d parent[2]=%d", depth[2], parent[2])
	}
	if depth[3] != -1 {
		t.Fatalf("vertex 3 reached across a restricted edge: depth %d", depth[3])
	}
	_ = chord
}

// sendRestrictedProgram tries to send over a forbidden edge directly.
type sendRestrictedProgram struct {
	NoPhases
	target graph.EdgeID
}

func (p *sendRestrictedProgram) Init(ctx *Ctx) {
	if ctx.V() == 0 {
		if err := ctx.Send(p.target, 1); !errors.Is(err, ErrEdgeRestricted) {
			ctx.Fail(errors.New("send over restricted edge not rejected"))
		}
		if ctx.Allowed(p.target) {
			ctx.Fail(errors.New("Allowed reports restricted edge usable"))
		}
	}
}

func (p *sendRestrictedProgram) Handle(*Ctx, []Message) {}

// TestPipelineSendRestricted: Ctx.Send enforces the restriction with a
// typed error, and Ctx.Allowed reflects it.
func TestPipelineSendRestricted(t *testing.T) {
	g := graph.Path(3, 1)
	allowed := make([]bool, g.M()) // everything forbidden
	p := NewPipeline(g, Options{})
	if _, err := p.RunStage("restricted", func(graph.Vertex) Program {
		return &sendRestrictedProgram{target: 0}
	}, Restrict(allowed)); err != nil {
		t.Fatal(err)
	}
	// The restriction is stage-scoped: a later unrestricted stage uses
	// the edge freely.
	minID := make([]int64, g.N())
	if _, err := p.RunStage("open", func(graph.Vertex) Program {
		return &floodMinProgram{min: minID}
	}); err != nil {
		t.Fatal(err)
	}
	if minID[2] != 0 {
		t.Fatalf("unrestricted follow-up stage blocked: min=%v", minID)
	}
}

// TestPipelineStageBudget: each stage gets its own round budget; an
// over-budget stage fails with ErrRoundLimit and poisons the pipeline.
func TestPipelineStageBudget(t *testing.T) {
	g := graph.Path(64, 1)
	p := NewPipeline(g, Options{})
	minID := make([]int64, g.N())
	factory := func(graph.Vertex) Program { return &floodMinProgram{min: minID} }
	if _, err := p.RunStage("tight", factory, StageMaxRounds(3)); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
	if _, err := p.RunStage("after", factory); err == nil {
		t.Fatal("pipeline not poisoned after failed stage")
	}
}

// TestPipelinePerStageBudgetIndependent: a stage budget is counted per
// stage — many stages each under budget must not trip a cumulative
// limit.
func TestPipelinePerStageBudgetIndependent(t *testing.T) {
	g := graph.Path(32, 1)
	p := NewPipeline(g, Options{MaxRounds: g.N() + 8})
	for i := 0; i < 5; i++ {
		minID := make([]int64, g.N())
		if _, err := p.RunStage("flood", func(graph.Vertex) Program {
			return &floodMinProgram{min: minID}
		}); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if got := len(p.Stages()); got != 5 {
		t.Fatalf("want 5 stages, got %d", got)
	}
}

func TestFloodWordFactory(t *testing.T) {
	g := graph.Grid(8, 8, 4, 2)
	n := g.N()
	pipe := NewPipeline(g, Options{Seed: 1})
	var pools StagePools
	out := make([]int64, n)
	stats, err := pipe.RunStage("flood", pools.FloodWord(n, 5, 424242, out))
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range out {
		if w != 424242 {
			t.Fatalf("vertex %d got %d", v, w)
		}
	}
	if stats.Rounds > 2*n {
		t.Fatalf("flood took %d rounds", stats.Rounds)
	}
	// Restricted to a spanning tree the flood still reaches everyone.
	parent := make([]graph.EdgeID, n)
	depth := make([]int32, n)
	if _, err := pipe.RunStage("bfs", pools.BFS(n, 0, parent, depth)); err != nil {
		t.Fatal(err)
	}
	tree := make([]bool, g.M())
	for _, e := range parent {
		if e != graph.NoEdge {
			tree[e] = true
		}
	}
	out2 := make([]int64, n)
	if _, err := pipe.RunStage("flood-tree", pools.FloodWord(n, 0, 7, out2), Restrict(tree)); err != nil {
		t.Fatal(err)
	}
	for v, w := range out2 {
		if w != 7 {
			t.Fatalf("restricted flood: vertex %d got %d", v, w)
		}
	}
}
