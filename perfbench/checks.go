package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"lightnet"
	"lightnet/internal/serve"
)

// Every check returns nil when the output is correct and otherwise an
// error naming the first violation. Each call is one operation of the
// run: attempted always, failed when it returns an error.

// checkEdgeSet: ids are edges of a graph with m edges, none repeated.
func checkEdgeSet(m int, ids []lightnet.EdgeID) error {
	seen := make([]bool, m)
	for _, id := range ids {
		if id < 0 || int(id) >= m {
			return fmt.Errorf("edge id %d is not an edge of G (m=%d)", id, m)
		}
		if seen[id] {
			return fmt.Errorf("edge id %d listed twice", id)
		}
		seen[id] = true
	}
	return nil
}

// checkSpannerStretch: every edge (u,v) of G has d_H(u,v) <= t·w(u,v),
// t = (2k−1)(1+ε). Edges of H satisfy it trivially; for every other
// edge a Dijkstra on H bounded at t·w decides it.
func checkSpannerStretch(n int, edges []lightnet.Edge, h []lightnet.EdgeID, k int, eps float64) error {
	t := float64(2*k-1) * (1 + eps)
	inH := make([]bool, len(edges))
	for _, id := range h {
		inH[id] = true
	}
	search := newBoundedSearch(newAdj(n, edges, h))
	for id, e := range edges {
		if inH[id] {
			continue
		}
		bound := t * e.W
		if d := search.distWithin(int(e.U), int(e.V), bound*(1+1e-12)); math.IsInf(d, 1) {
			return fmt.Errorf("edge %d (%d,%d,w=%g): no path in H within %g·w", id, e.U, e.V, e.W, t)
		}
	}
	return nil
}

// checkWeights: the reported weight, MST weight and lightness agree with
// w(H) summed here and w(MST) from the benchmark's own Kruskal.
func checkWeights(edges []lightnet.Edge, h []lightnet.EdgeID, mstW, weight, reportedMST, lightness float64) error {
	var w float64
	for _, id := range h {
		w += edges[id].W
	}
	switch {
	case !approxEq(w, weight):
		return fmt.Errorf("reported weight %.17g, edges sum to %.17g", weight, w)
	case !approxEq(mstW, reportedMST):
		return fmt.Errorf("reported MST weight %.17g, Kruskal gives %.17g", reportedMST, mstW)
	case !approxEq(w/mstW, lightness):
		return fmt.Errorf("reported lightness %.17g, recomputed %.17g", lightness, w/mstW)
	}
	return nil
}

// checkSLT: the tree has n−1 distinct edges of G, its parent pointers
// root it at root and span G, and Dist is the tree distance along them.
// exact holds the exact distances from root in G; Dist may never be
// below them, and the largest ratio must stay within 1+51ε. The tree's
// weight over w(MST) must match the reported lightness and stay within
// 1+4/ε (the bounds the facade's SLT example asserts).
func checkSLT(edges []lightnet.Edge, res *lightnet.SLTResult, exact []float64, mstW, eps float64) error {
	n := len(exact)
	if len(res.TreeEdges) != n-1 {
		return fmt.Errorf("tree has %d edges, want n−1 = %d", len(res.TreeEdges), n-1)
	}
	if err := checkEdgeSet(len(edges), res.TreeEdges); err != nil {
		return fmt.Errorf("tree: %v", err)
	}
	if len(res.Parent) != n || len(res.Dist) != n {
		return fmt.Errorf("Parent/Dist have %d/%d entries, want %d", len(res.Parent), len(res.Dist), n)
	}
	// Walk the tree from the root over its own edges; every vertex must
	// be reached, through the edge Parent names.
	t := newAdj(n, edges, res.TreeEdges)
	dist := make([]float64, n)
	reached := make([]bool, n)
	root := int(res.Root)
	reached[root] = true
	if res.Parent[root] != lightnet.NoEdge {
		return fmt.Errorf("root %d has parent edge %d", root, res.Parent[root])
	}
	queue := []int32{int32(root)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := t.off[v]; i < t.off[v+1]; i++ {
			c := t.to[i]
			if reached[c] {
				continue
			}
			reached[c] = true
			if int32(res.Parent[c]) != t.edge[i] {
				return fmt.Errorf("vertex %d: Parent is edge %d, tree path enters by edge %d", c, res.Parent[c], t.edge[i])
			}
			dist[c] = dist[v] + t.w[i]
			queue = append(queue, c)
		}
	}
	var maxStretch float64
	for v := 0; v < n; v++ {
		if !reached[v] {
			return fmt.Errorf("vertex %d is not spanned by the tree", v)
		}
		if !approxEq(dist[v], res.Dist[v]) {
			return fmt.Errorf("vertex %d: Dist %.17g, tree path length %.17g", v, res.Dist[v], dist[v])
		}
		if res.Dist[v] < exact[v]*(1-1e-9) {
			return fmt.Errorf("vertex %d: Dist %.17g below the exact distance %.17g", v, res.Dist[v], exact[v])
		}
		if exact[v] > 0 {
			maxStretch = math.Max(maxStretch, res.Dist[v]/exact[v])
		}
	}
	if bound := 1 + 51*eps; maxStretch > bound {
		return fmt.Errorf("root stretch %.6g exceeds 1+51ε = %g", maxStretch, bound)
	}
	var w float64
	for _, id := range res.TreeEdges {
		w += edges[id].W
	}
	if !approxEq(mstW, res.MSTWeight) {
		return fmt.Errorf("reported MST weight %.17g, Kruskal gives %.17g", res.MSTWeight, mstW)
	}
	if !approxEq(w/mstW, res.Lightness) {
		return fmt.Errorf("reported lightness %.17g, recomputed %.17g", res.Lightness, w/mstW)
	}
	if bound := 1 + 4/eps; res.Lightness > bound {
		return fmt.Errorf("lightness %.6g exceeds 1+4/ε = %g", res.Lightness, bound)
	}
	return nil
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []lightnet.EdgeID) []lightnet.EdgeID {
	s := append([]lightnet.EdgeID(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func sameIDs(a, b []lightnet.EdgeID) error {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return fmt.Errorf("%d edges against %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("edge sets first differ at %d against %d", a[i], b[i])
		}
	}
	return nil
}

// checkSameSLT: the measured tree equals the accounted one edge for edge,
// parent for parent and bit for bit in Dist and lightness.
func checkSameSLT(measured, accounted *lightnet.SLTResult) error {
	if err := sameIDs(measured.TreeEdges, accounted.TreeEdges); err != nil {
		return fmt.Errorf("tree edges: %v", err)
	}
	for v := range measured.Parent {
		if measured.Parent[v] != accounted.Parent[v] {
			return fmt.Errorf("vertex %d: parent %d against %d", v, measured.Parent[v], accounted.Parent[v])
		}
		if math.Float64bits(measured.Dist[v]) != math.Float64bits(accounted.Dist[v]) {
			return fmt.Errorf("vertex %d: Dist %.17g against %.17g", v, measured.Dist[v], accounted.Dist[v])
		}
	}
	if math.Float64bits(measured.Lightness) != math.Float64bits(accounted.Lightness) {
		return fmt.Errorf("lightness %.17g against %.17g", measured.Lightness, accounted.Lightness)
	}
	return nil
}

// checkSameSpanner: the measured spanner equals the accounted
// Baswana-Sen-bucket spanner edge for edge and bit for bit in weight.
func checkSameSpanner(measured, accounted *lightnet.SpannerResult) error {
	if err := sameIDs(measured.Edges, accounted.Edges); err != nil {
		return fmt.Errorf("spanner edges: %v", err)
	}
	if math.Float64bits(measured.Weight) != math.Float64bits(accounted.Weight) {
		return fmt.Errorf("weight %.17g against %.17g", measured.Weight, accounted.Weight)
	}
	return nil
}

// checkRebuild: a build repeated with the same seed gives the output and
// the cost of the build before it. The first build of a round is checked
// in full and every later one against its predecessor, so the figures
// read off the last build rest on checked outputs.
func checkRebuild(prevSLT, slt *lightnet.SLTResult, prevSp, sp *lightnet.SpannerResult) error {
	if err := checkSameSLT(slt, prevSLT); err != nil {
		return fmt.Errorf("slt: %v", err)
	}
	if err := checkSameSpanner(sp, prevSp); err != nil {
		return err
	}
	for _, c := range [][2]lightnet.Cost{{prevSLT.Cost, slt.Cost}, {prevSp.Cost, sp.Cost}} {
		if c[0].Rounds != c[1].Rounds || c[0].Messages != c[1].Messages {
			return fmt.Errorf("cost %d rounds, %d messages against %d, %d", c[1].Rounds, c[1].Messages, c[0].Rounds, c[0].Messages)
		}
	}
	return nil
}

// wireAnswer is the JSON a query endpoint returns.
type wireAnswer struct {
	U         int      `json:"u"`
	V         int      `json:"v"`
	Reachable bool     `json:"reachable"`
	Dist      *float64 `json:"dist"`
	Path      []int    `json:"path"`
	Exact     *float64 `json:"exact"`
	Stretch   *float64 `json:"stretch"`
}

// checkAnswer checks one served answer to q. dH holds the exact distances
// from q.U in H, dG those in G (needed for stretch queries only); h is
// H's adjacency, used to walk a returned path.
func checkAnswer(q serve.Query, body []byte, h *adj, dH, dG []float64, bound float64) error {
	u, v, d := int(q.U), int(q.V), describe(q)
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: bad body %q: %v", d, body, err)
	}
	if a.U != u || a.V != v {
		return fmt.Errorf("%s: answer is for (%d,%d)", d, a.U, a.V)
	}
	want := dH[v]
	if !a.Reachable || a.Dist == nil {
		return fmt.Errorf("%s: reported unreachable, d_H = %g", d, want)
	}
	if !approxEq(*a.Dist, want) {
		return fmt.Errorf("%s: dist %.17g, d_H = %.17g", d, *a.Dist, want)
	}
	switch q.Kind {
	case serve.KindPath:
		return checkPath(q, a.Path, h, *a.Dist)
	case serve.KindStretch:
		if a.Exact == nil || a.Stretch == nil {
			return fmt.Errorf("%s: stretch answer without exact/stretch", d)
		}
		if !approxEq(*a.Exact, dG[v]) {
			return fmt.Errorf("%s: exact %.17g, d_G = %.17g", d, *a.Exact, dG[v])
		}
		want := 1.0
		if dG[v] > 0 {
			want = dH[v] / dG[v]
		}
		if !approxEq(*a.Stretch, want) {
			return fmt.Errorf("%s: stretch %.17g, d_H/d_G = %.17g", d, *a.Stretch, want)
		}
		if *a.Stretch < 1-1e-9 || *a.Stretch > bound*(1+1e-9) {
			return fmt.Errorf("%s: stretch %.17g outside [1, %g]", d, *a.Stretch, bound)
		}
	}
	return nil
}

// checkPath: path runs from q.U to q.V over edges of H and has length dist.
func checkPath(q serve.Query, path []int, h *adj, dist float64) error {
	u, v, d := int(q.U), int(q.V), describe(q)
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("%s: path %v does not run from u to v", d, path)
	}
	var length float64
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a < 0 || a >= h.n() || b < 0 || b >= h.n() {
			return fmt.Errorf("%s: path vertex out of range", d)
		}
		w := math.Inf(1)
		for j := h.off[a]; j < h.off[a+1]; j++ {
			if int(h.to[j]) == b {
				w = math.Min(w, h.w[j])
			}
		}
		if math.IsInf(w, 1) {
			return fmt.Errorf("%s: path step %d→%d is not an edge of H", d, a, b)
		}
		length += w
	}
	if !approxEq(length, dist) {
		return fmt.Errorf("%s: path length %.17g, stated dist %.17g", d, length, dist)
	}
	return nil
}
