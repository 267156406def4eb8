package experiments

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"lightnet/internal/graph"
	"lightnet/internal/lowerbound"
)

// The scenario registry: every workload the experiment pipeline can
// generate, addressable by a one-line spec string
//
//	name                      // defaults, e.g. "geometric"
//	name:key=val,key=val      // overrides, e.g. "ba:m=4,maxw=10"
//
// The same spec is accepted by the grid JSON "workloads" array, by
// `lightnet -graph`, and by `cmd/benchengine -scenario`, so every
// experiment cell is reproducible from (spec, n, seed) alone. The
// catalog — parameters, expected doubling dimension, edge-count
// asymptotics, grid snippets — is documented in docs/SCENARIOS.md.

// ParamSpec documents one scenario parameter.
type ParamSpec struct {
	// Name is the key accepted in "name:key=val" specs.
	Name string
	// Default is the literal default value; empty means the default is
	// derived from n at build time (Doc says how).
	Default string
	// Doc is a one-line description for catalogs and error messages.
	Doc string
}

// Params maps parameter names to string values (defaults merged with
// spec overrides). Typed accessors parse on demand.
type Params map[string]string

// float returns the named parameter as a float64, or def when the
// value is empty (derived default).
func (p Params) float(name string, def float64) (float64, error) {
	s := p[name]
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: not a number", name, s)
	}
	return v, nil
}

// integer returns the named parameter as an int, or def when empty.
func (p Params) integer(name string, def int) (int, error) {
	s := p[name]
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: not an integer", name, s)
	}
	return v, nil
}

// Scenario is one named workload family: its documentation and the
// closure that builds a graph from (n, seed, params).
type Scenario struct {
	// Name addresses the scenario in spec strings.
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Params documents the accepted parameters; unknown keys in a spec
	// are rejected at validation time.
	Params []ParamSpec
	// Build generates the graph. Params has every declared key (spec
	// overrides merged over defaults).
	Build func(n int, seed int64, p Params) (*graph.Graph, error)
}

// maxScenarioDim caps the ambient dimension of the geometric
// scenarios: the spatial-hash builders probe 3^dim cells per point, so
// unbounded user-supplied dimensions would hang the build (3^8 = 6561
// probes per point is the largest sane cost; doubling-metric
// experiments live in dim <= 3 anyway).
const maxScenarioDim = 8

// checkDim validates a scenario dim parameter.
func checkDim(dim int) error {
	if dim < 1 || dim > maxScenarioDim {
		return fmt.Errorf("dim=%d out of [1,%d] (cell-grid probes cost 3^dim per point)", dim, maxScenarioDim)
	}
	return nil
}

// checkWeight validates a maximum-weight style parameter: weights are
// drawn from [1, maxW] (or used directly), so the value must be a
// finite number >= 1 to satisfy both AddEdge's positivity contract and
// the paper's minimum-weight-1 normalisation.
func checkWeight(name string, w float64) error {
	if !(w >= 1) || math.IsInf(w, 0) {
		return fmt.Errorf("%s=%g must be a finite weight >= 1", name, w)
	}
	return nil
}

// scenarioList defines the registry. The first six entries reproduce
// the pre-registry workload builders bit for bit (guarded by tests),
// so historical grid CSVs remain reproducible.
var scenarioList = []*Scenario{
	{
		Name:    "er",
		Summary: "connected Erdős–Rényi G(n, p), expander-like, large doubling dimension",
		Params: []ParamSpec{
			{Name: "p", Default: "", Doc: "edge probability (default 12/n)"},
			{Name: "maxw", Default: "50", Doc: "max edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			prob, err := p.float("p", 12.0/float64(n))
			if err != nil {
				return nil, err
			}
			maxw, err := p.float("maxw", 50)
			if err != nil {
				return nil, err
			}
			if prob < 0 || prob > 1 {
				return nil, fmt.Errorf("p=%g out of [0,1]", prob)
			}
			if err := checkWeight("maxw", maxw); err != nil {
				return nil, err
			}
			return graph.ErdosRenyi(n, prob, maxw, seed), nil
		},
	},
	{
		Name:    "geometric",
		Summary: "random geometric graph at the connectivity radius, doubling dimension ≈ dim",
		Params: []ParamSpec{
			{Name: "dim", Default: "2", Doc: "ambient dimension"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			dim, err := p.integer("dim", 2)
			if err != nil {
				return nil, err
			}
			if err := checkDim(dim); err != nil {
				return nil, err
			}
			return graph.RandomGeometric(n, dim, seed), nil
		},
	},
	{
		Name:    "grid",
		Summary: "⌊√n⌋×⌊√n⌋ grid with random weights, doubling dimension ≈ 2",
		Params: []ParamSpec{
			{Name: "maxw", Default: "4", Doc: "max edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			maxw, err := p.float("maxw", 4)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("maxw", maxw); err != nil {
				return nil, err
			}
			side := isqrt(n)
			return graph.Grid(side, side, maxw, seed), nil
		},
	},
	{
		Name:    "complete",
		Summary: "complete graph K_n with random weights",
		Params: []ParamSpec{
			{Name: "maxw", Default: "1000", Doc: "max edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			maxw, err := p.float("maxw", 1000)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("maxw", maxw); err != nil {
				return nil, err
			}
			return graph.Complete(n, maxw, seed), nil
		},
	},
	{
		Name:    "hard",
		Summary: "[SHK+12]-style Ω(√n+D) lower-bound instance with hidden heavy edges",
		Params: []ParamSpec{
			{Name: "heavy", Default: "", Doc: "heavy-edge weight (default 10·n)"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			heavy, err := p.float("heavy", float64(n)*10)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("heavy", heavy); err != nil {
				return nil, err
			}
			return graph.HardInstance(n, heavy, seed), nil
		},
	},
	{
		Name:    "path",
		Summary: "unit-weight path, the Θ(n)-hop-diameter extreme",
		Params: []ParamSpec{
			{Name: "w", Default: "1", Doc: "uniform edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			w, err := p.float("w", 1)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("w", w); err != nil {
				return nil, err
			}
			return graph.Path(n, w), nil
		},
	},
	{
		Name:    "ubg",
		Summary: "unit-ball graph at an explicit radius (spatial-hash built, reconnected)",
		Params: []ParamSpec{
			{Name: "dim", Default: "2", Doc: "ambient dimension"},
			{Name: "radius", Default: "", Doc: "connection radius (default: connectivity radius)"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			dim, err := p.integer("dim", 2)
			if err != nil {
				return nil, err
			}
			if err := checkDim(dim); err != nil {
				return nil, err
			}
			radius, err := p.float("radius", graph.ConnectivityRadius(n, dim))
			if err != nil {
				return nil, err
			}
			if !(radius > 0) || math.IsInf(radius, 0) {
				return nil, fmt.Errorf("radius=%g must be positive and finite", radius)
			}
			return graph.UnitBallGraph(graph.RandomPoints(n, dim, 1, seed), radius), nil
		},
	},
	{
		Name:    "knn",
		Summary: "k-nearest-neighbor geometric graph, bounded degree, doubling dimension ≈ dim",
		Params: []ParamSpec{
			{Name: "dim", Default: "2", Doc: "ambient dimension"},
			{Name: "k", Default: "6", Doc: "neighbors per point"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			dim, err := p.integer("dim", 2)
			if err != nil {
				return nil, err
			}
			k, err := p.integer("k", 6)
			if err != nil {
				return nil, err
			}
			if err := checkDim(dim); err != nil {
				return nil, err
			}
			if k < 1 {
				return nil, fmt.Errorf("k=%d must be >= 1", k)
			}
			return graph.KNearestNeighborGraph(graph.RandomPoints(n, dim, 1, seed), k), nil
		},
	},
	{
		Name:    "ba",
		Summary: "Barabási–Albert preferential attachment, power-law degrees",
		Params: []ParamSpec{
			{Name: "m", Default: "3", Doc: "edges per arriving vertex"},
			{Name: "maxw", Default: "50", Doc: "max edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			m, err := p.integer("m", 3)
			if err != nil {
				return nil, err
			}
			maxw, err := p.float("maxw", 50)
			if err != nil {
				return nil, err
			}
			if m < 1 {
				return nil, fmt.Errorf("m=%d must be >= 1", m)
			}
			if err := checkWeight("maxw", maxw); err != nil {
				return nil, err
			}
			return graph.BarabasiAlbert(n, m, maxw, seed), nil
		},
	},
	{
		Name:    "planted",
		Summary: "planted-partition / stochastic block model, k dense clusters",
		Params: []ParamSpec{
			{Name: "k", Default: "4", Doc: "number of clusters"},
			{Name: "pin", Default: "", Doc: "intra-cluster edge probability (default min(1, 12/blocksize))"},
			{Name: "pout", Default: "", Doc: "inter-cluster edge probability (default min(1, 2/n))"},
			{Name: "maxw", Default: "8", Doc: "max edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			k, err := p.integer("k", 4)
			if err != nil {
				return nil, err
			}
			if k < 1 {
				return nil, fmt.Errorf("k=%d must be >= 1", k)
			}
			blk := (n + k - 1) / k
			pin, err := p.float("pin", math.Min(1, 12/float64(blk)))
			if err != nil {
				return nil, err
			}
			pout, err := p.float("pout", math.Min(1, 2/float64(n)))
			if err != nil {
				return nil, err
			}
			maxw, err := p.float("maxw", 8)
			if err != nil {
				return nil, err
			}
			if pin < 0 || pin > 1 || pout < 0 || pout > 1 {
				return nil, fmt.Errorf("pin=%g and pout=%g must be in [0,1]", pin, pout)
			}
			if err := checkWeight("maxw", maxw); err != nil {
				return nil, err
			}
			return graph.PlantedPartition(n, k, pin, pout, maxw, seed), nil
		},
	},
	{
		Name:    "lbfan",
		Summary: "[KRY95] shallow-light fan: unit arc + uniform heavy spokes, one maximal spanner bucket",
		Params: []ParamSpec{
			{Name: "spoke", Default: "", Doc: "spoke weight (default max(2, n/8)); all spokes share one weight bucket"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			spoke, err := p.float("spoke", math.Max(2, float64(n)/8))
			if err != nil {
				return nil, err
			}
			if err := checkWeight("spoke", spoke); err != nil {
				return nil, err
			}
			return lowerbound.Fan(n, spoke)
		},
	},
	{
		Name:    "lbcycle",
		Summary: "uniform cycle: every edge is forced into any t<n−1 spanner, ratio vs greedy exactly 1",
		Params: []ParamSpec{
			{Name: "w", Default: "1", Doc: "uniform edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			w, err := p.float("w", 1)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("w", w); err != nil {
				return nil, err
			}
			return lowerbound.Cycle(n, w)
		},
	},
	{
		Name:    "lbbipartite",
		Summary: "uniform K_{n/2,n/2} (girth 4): detours are exactly 3 edges, pinning k=2 to the 2k−1 bound",
		Params: []ParamSpec{
			{Name: "w", Default: "1", Doc: "uniform edge weight"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			w, err := p.float("w", 1)
			if err != nil {
				return nil, err
			}
			if err := checkWeight("w", w); err != nil {
				return nil, err
			}
			return lowerbound.CompleteBipartite(n, w)
		},
	},
	{
		Name:    "edgelist",
		Summary: "real-world graph ingested from a weighted edge-list file (n is ignored)",
		Params: []ParamSpec{
			{Name: "path", Default: "", Doc: "edge-list file: \"u v [w]\" lines, # or % comments (required)"},
		},
		Build: func(n int, seed int64, p Params) (*graph.Graph, error) {
			path := p["path"]
			if path == "" {
				return nil, fmt.Errorf("edgelist requires path=<file>")
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			g, _, err := graph.ReadEdgeList(f)
			if err != nil {
				return nil, err
			}
			if !g.Connected() {
				_, comps := g.Components()
				return nil, fmt.Errorf("edgelist %s: graph has %d components; the constructions require a connected input", path, comps)
			}
			return g, nil
		},
	},
}

// scenarioByName indexes scenarioList.
var scenarioByName = func() map[string]*Scenario {
	m := make(map[string]*Scenario, len(scenarioList))
	for _, s := range scenarioList {
		m[s.Name] = s
	}
	return m
}()

// Scenarios returns the registered scenarios sorted by name.
func Scenarios() []*Scenario {
	out := append([]*Scenario(nil), scenarioList...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// param returns the spec for the named parameter, if declared.
func (s *Scenario) param(name string) *ParamSpec {
	for i := range s.Params {
		if s.Params[i].Name == name {
			return &s.Params[i]
		}
	}
	return nil
}

// ParseWorkload resolves a workload spec string ("name" or
// "name:key=val,key=val") against the registry: it returns the
// scenario and the full parameter map (defaults merged with the spec's
// overrides), rejecting unknown scenarios, unknown or repeated keys,
// and malformed values.
func ParseWorkload(spec string) (*Scenario, Params, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	s, ok := scenarioByName[name]
	if !ok {
		known := make([]string, 0, len(scenarioList))
		for _, sc := range Scenarios() {
			known = append(known, sc.Name)
		}
		return nil, nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(known, ", "))
	}
	p := make(Params, len(s.Params))
	for _, ps := range s.Params {
		p[ps.Name] = ps.Default
	}
	if hasParams {
		seen := make(map[string]bool, len(s.Params))
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if !ok || key == "" || val == "" {
				return nil, nil, fmt.Errorf("scenario %s: malformed parameter %q (want key=val)", name, kv)
			}
			ps := s.param(key)
			if ps == nil {
				return nil, nil, fmt.Errorf("scenario %s: unknown parameter %q (%s)", name, key, paramDocs(s))
			}
			if seen[key] {
				return nil, nil, fmt.Errorf("scenario %s: parameter %q given twice", name, key)
			}
			seen[key] = true
			p[key] = val
			// Numeric parameters must at least parse; full range checks
			// need n and happen in Build.
			if key != "path" {
				if _, err := strconv.ParseFloat(val, 64); err != nil {
					return nil, nil, fmt.Errorf("scenario %s: parameter %s=%q is not numeric", name, key, val)
				}
			}
		}
	}
	return s, p, nil
}

// paramDocs renders a scenario's parameter list for error messages.
func paramDocs(s *Scenario) string {
	if len(s.Params) == 0 {
		return "no parameters"
	}
	parts := make([]string, len(s.Params))
	for i, ps := range s.Params {
		parts[i] = ps.Name
	}
	return "parameters: " + strings.Join(parts, ", ")
}

// ValidateWorkload checks a spec string without building a graph.
func ValidateWorkload(spec string) error {
	_, _, err := ParseWorkload(spec)
	return err
}

// BuildWorkload generates the graph a workload spec describes at size
// n with the given seed. Specs naming the legacy families ("er",
// "geometric", "grid", "complete", "hard", "path") without parameters
// reproduce the pre-registry pipeline graphs bit for bit.
func BuildWorkload(spec string, n int, seed int64) (*graph.Graph, error) {
	s, p, err := ParseWorkload(spec)
	if err != nil {
		return nil, err
	}
	g, err := s.Build(n, seed, p)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return g, nil
}

// isqrt returns ⌈√n⌉ (0 for n ≤ 0): the side of the "grid" scenario.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}
