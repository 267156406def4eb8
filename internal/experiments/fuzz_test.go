package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzScenarioSpec exercises the "name:key=val,..." workload-spec
// parser that every user-facing entry point funnels through (lightnet
// -graph, grid JSON workloads). It must never panic, and anything it
// accepts must be internally consistent and round-trip through the
// canonical spec string. Build is deliberately
// not called: parameter range checks that need n happen there, and
// adversarial-but-parseable values (say knn:k=1e9) may legitimately
// take unbounded time to generate.
func FuzzScenarioSpec(f *testing.F) {
	f.Add("er")
	f.Add("er:p=0.12,maxw=20")
	f.Add("geometric:dim=3")
	f.Add("ba:m=4")
	f.Add("lbfan:spoke=6.5")
	f.Add("lbbipartite:w=2")
	f.Add("edgelist:path=testdata/sample.edgelist")
	f.Add("edgelist:path=a=b:c,d") // "," splits parameters, so d is a malformed kv
	f.Add("er:p=0.1,p=0.2")        // duplicate key
	f.Add("er:p")                  // missing value
	f.Add("er:=1")                 // missing key
	f.Add("knn:k=NaN")
	f.Add(" er : p = 0.5 ")
	f.Add("unknown:x=1")
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1<<12 {
			return
		}
		s, p, err := ParseWorkload(spec)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil scenario with nil error")
		}
		declared := make(map[string]bool, len(s.Params))
		for _, ps := range s.Params {
			declared[ps.Name] = true
			if _, ok := p[ps.Name]; !ok {
				t.Fatalf("%s: declared parameter %q absent from parsed params", s.Name, ps.Name)
			}
		}
		var canon []string
		for key, val := range p {
			if !declared[key] {
				t.Fatalf("%s: undeclared parameter %q accepted", s.Name, key)
			}
			if key != "path" && val != "" {
				if _, perr := strconv.ParseFloat(val, 64); perr != nil {
					t.Fatalf("%s: accepted non-numeric %s=%q", s.Name, key, val)
				}
			}
			if val != "" {
				canon = append(canon, key+"="+val)
			}
		}
		// The canonical rebuild must parse back to the same scenario and
		// parameter values.
		rebuilt := s.Name
		if len(canon) > 0 {
			rebuilt += ":" + strings.Join(canon, ",")
		}
		s2, p2, rerr := ParseWorkload(rebuilt)
		if rerr != nil {
			t.Fatalf("canonical spec %q of %q failed to re-parse: %v", rebuilt, spec, rerr)
		}
		if s2.Name != s.Name {
			t.Fatalf("canonical spec %q resolved to %s, want %s", rebuilt, s2.Name, s.Name)
		}
		for key, val := range p {
			if p2[key] != val {
				t.Fatalf("round-trip changed %s: %q -> %q", key, val, p2[key])
			}
		}
	})
}
