package congest

import (
	"errors"

	"lightnet/internal/graph"
)

// MaxWordsDefault is the default message size limit in machine words.
// One word models the O(log n) bits of the CONGEST model; the constant
// permits a constant number of words per message, as is standard.
const MaxWordsDefault = 4

// Message is a message delivered to a vertex at the start of a round.
type Message struct {
	From  graph.Vertex
	Via   graph.EdgeID
	Words []int64
}

// Program is the per-vertex algorithm run by the Engine. The Engine
// instantiates one Program per vertex via a factory.
//
// Init is called once before round 1; messages sent during Init are
// delivered in round 1. Handle is called on every round in which the
// vertex is awake or has incoming messages. PhaseDone is called on every
// vertex when the whole network is quiescent (no messages in flight, all
// vertices idle); returning true re-activates the vertex for another
// phase. PhaseDone models a global synchronization barrier; the engine
// counts barriers in Stats.Phases and charges them no rounds.
//
// Handle may run concurrently with the Handle of other vertices (see
// Options.Workers). A Program must therefore confine its writes to its
// own state and to its own slots of any shared result slices; reads of
// shared graph structure and of the round's immutable inbox are safe.
// Init and PhaseDone always run sequentially over the vertices.
type Program interface {
	Init(ctx *Ctx)
	Handle(ctx *Ctx, inbox []Message)
	PhaseDone(ctx *Ctx) bool
}

// NoPhases is a mixin for single-phase programs.
type NoPhases struct{}

// PhaseDone implements Program; it never starts another phase.
func (NoPhases) PhaseDone(*Ctx) bool { return false }

// Errors reported by Ctx send operations. Programs treat them as fatal
// algorithm bugs: they are surfaced from Engine.Run.
var (
	ErrMsgTooLarge    = errors.New("congest: message exceeds word limit")
	ErrEdgeBusy       = errors.New("congest: edge already used this round")
	ErrNotNeighbor    = errors.New("congest: target is not a neighbor")
	ErrEdgeRestricted = errors.New("congest: edge outside the stage's subgraph")
	ErrRoundLimit     = errors.New("congest: round limit exceeded")
	ErrProgramFailure = errors.New("congest: program reported failure")
)

// Options configure an Engine.
type Options struct {
	// MaxWords limits the message payload length. Default MaxWordsDefault.
	MaxWords int
	// MaxRounds aborts runs that exceed this many rounds. Default 4n+64.
	MaxRounds int
	// Seed seeds the per-vertex deterministic RNGs.
	Seed int64
	// Trace, when non-nil, collects per-round activity.
	Trace *Trace
	// Faults, when non-nil and active, injects deterministic message and
	// vertex faults into the round loop (see FaultPlan). The fault
	// stream is a pure hash of (plan seed, round, edge slot), so faulted
	// runs stay bit-identical at every worker count. A nil or zero plan
	// leaves the engine byte-for-byte on its fault-free path, including
	// the zero-allocation steady state.
	Faults *FaultPlan
	// Workers is the number of goroutines executing each round's
	// handlers. 0 (the default) means runtime.GOMAXPROCS(0); 1 runs the
	// handlers sequentially, exactly as the original single-threaded
	// engine did. Any worker count produces bit-identical results:
	// handlers buffer their sends per vertex and the engine merges the
	// buffers in canonical (vertex, send-order) order, per-vertex RNG
	// streams are untouched by scheduling, and delivery always iterates
	// edges in id order.
	Workers int
}

// Stats accumulates the cost of a run.
type Stats struct {
	Rounds   int // synchronous rounds executed
	Messages int64
	Words    int64
	MaxWords int // largest message observed
	Phases   int // global phase barriers passed
}
