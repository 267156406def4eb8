package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lightnet/internal/graph"
)

// testGraph builds a small deterministic weighted graph: a cycle plus
// seeded chords, with irrational-ish weights that exercise exact
// Float64bits round-tripping.
func testGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	w := func() float64 {
		seed = splitmix64(seed)
		return 0.5 + float64(seed%1000000)/999983.0*math.Pi
	}
	for v := 0; v < n; v++ {
		g.MustAddEdge(graph.Vertex(v), graph.Vertex((v+1)%n), w())
	}
	for i := 0; i < n/2; i++ {
		seed = splitmix64(seed)
		u := graph.Vertex(seed % uint64(n))
		seed = splitmix64(seed)
		v := graph.Vertex(seed % uint64(n))
		if u == v {
			continue
		}
		g.MustAddEdge(u, v, w())
	}
	g.Freeze()
	return g
}

// sameGraph asserts structural bit-identity: edges (Float64bits),
// adjacency order, and the derived indexes the graph API exposes.
func sameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size drift: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for id := 0; id < want.M(); id++ {
		a, b := want.Edge(graph.EdgeID(id)), got.Edge(graph.EdgeID(id))
		if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
			t.Fatalf("edge %d drift: got %+v, want %+v", id, b, a)
		}
	}
	for v := 0; v < want.N(); v++ {
		a, b := want.Neighbors(graph.Vertex(v)), got.Neighbors(graph.Vertex(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree drift: got %d, want %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i].To != b[i].To || a[i].ID != b[i].ID || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
				t.Fatalf("vertex %d slot %d drift: got %+v, want %+v", v, i, b[i], a[i])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded graph fails validation: %v", err)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := testGraph(t, 37, 7)
	meta := GraphMeta{
		Workload: "er:maxw=10",
		Seed:     42,
		Labels:   make([]string, 37),
		Coords:   make([][]float64, 37),
	}
	for v := range meta.Labels {
		meta.Labels[v] = string(rune('a' + v%26))
		meta.Coords[v] = []float64{float64(v) * math.E, -float64(v) / 3}
	}
	path := filepath.Join(t.TempDir(), "g.csrz")
	digest, err := WriteGraph(path, g, meta)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := OpenGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Digest != digest {
		t.Fatalf("digest drift: wrote %s, opened %s", digest, snap.Digest)
	}
	sameGraph(t, g, snap.Graph)
	if snap.Meta.Workload != meta.Workload || snap.Meta.Seed != meta.Seed {
		t.Fatalf("meta drift: got %+v", snap.Meta)
	}
	for v := range meta.Labels {
		if snap.Meta.Labels[v] != meta.Labels[v] {
			t.Fatalf("label %d drift: got %q, want %q", v, snap.Meta.Labels[v], meta.Labels[v])
		}
		for d := range meta.Coords[v] {
			if math.Float64bits(snap.Meta.Coords[v][d]) != math.Float64bits(meta.Coords[v][d]) {
				t.Fatalf("coord %d[%d] drift", v, d)
			}
		}
	}
}

// TestGraphWriteDeterministic: two writes of the same frozen graph are
// byte-identical — digests name content, not write events.
func TestGraphWriteDeterministic(t *testing.T) {
	g := testGraph(t, 25, 3)
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.csrz"), filepath.Join(dir, "b.csrz")
	d1, err := WriteGraph(p1, g, GraphMeta{Workload: "er", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := WriteGraph(p2, g, GraphMeta{Workload: "er", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests differ across identical writes: %s vs %s", d1, d2)
	}
	a, _ := os.ReadFile(p1)
	b, _ := os.ReadFile(p2)
	if !bytes.Equal(a, b) {
		t.Fatal("bytes differ across identical writes")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	g := testGraph(t, 16, 9)
	dir := t.TempDir()
	gd, err := WriteGraph(filepath.Join(dir, "g.csrz"), g, GraphMeta{Workload: "er", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]graph.EdgeID, g.N())
	dist := make([]float64, g.N())
	for v := range parent {
		parent[v] = graph.EdgeID(v % g.M())
		dist[v] = float64(v) * math.Sqrt2
	}
	parent[0] = graph.NoEdge
	want := &Artifact{
		Kind: "slt", K: 0, Eps: 0.5, Root: 0, Seed: 5,
		GraphDigest: gd, N: g.N(), M: g.M(),
		Edges:  []graph.EdgeID{0, 3, 5, 7},
		Parent: parent, Dist: dist,
		Weight: 123.456, MSTWeight: 100.25, Lightness: 1.2315,
		Rounds: 987, Messages: 65432, Measured: true,
		Stages: []Stage{{Name: "mst", Rounds: 10, Messages: 100}, {Name: "breakpoints", Rounds: 7, Messages: 42}},
	}
	path := filepath.Join(dir, "a.art")
	digest, err := WriteArtifact(path, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != digest {
		t.Fatalf("digest drift: wrote %s, opened %s", digest, got.Digest)
	}
	if got.Kind != want.Kind || got.K != want.K || got.Eps != want.Eps ||
		got.Root != want.Root || got.Seed != want.Seed || got.GraphDigest != gd ||
		got.N != want.N || got.M != want.M || got.Measured != want.Measured ||
		got.Rounds != want.Rounds || got.Messages != want.Messages {
		t.Fatalf("metadata drift: got %+v", got)
	}
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
		math.Float64bits(got.MSTWeight) != math.Float64bits(want.MSTWeight) ||
		math.Float64bits(got.Lightness) != math.Float64bits(want.Lightness) {
		t.Fatal("summary float drift")
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count drift: %d vs %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d drift", i)
		}
	}
	for v := range parent {
		if got.Parent[v] != parent[v] {
			t.Fatalf("parent %d drift: got %d, want %d", v, got.Parent[v], parent[v])
		}
		if math.Float64bits(got.Dist[v]) != math.Float64bits(dist[v]) {
			t.Fatalf("dist %d drift", v)
		}
	}
	if len(got.Stages) != 2 || got.Stages[0] != want.Stages[0] || got.Stages[1] != want.Stages[1] {
		t.Fatalf("stage drift: got %+v", got.Stages)
	}
}

// TestCorruptionRejected: every single-byte flip past the magic must be
// caught by a checksum (or a structural check) — and never panic.
func TestCorruptionRejected(t *testing.T) {
	g := testGraph(t, 8, 1)
	path := filepath.Join(t.TempDir(), "g.csrz")
	if _, err := WriteGraph(path, g, GraphMeta{Workload: "er", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x40
		if _, err := openGraphBytes(data); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
	for cut := 0; cut < len(orig); cut += 7 {
		if _, err := openGraphBytes(orig[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := openArtifactBytes(orig); err == nil {
		t.Fatal("snapshot accepted as artifact (magic confusion)")
	}
}

// TestUnknownSectionIgnored: a version-1 reader must skip sections it
// does not know (additive format evolution) as long as checksums hold.
func TestUnknownSectionIgnored(t *testing.T) {
	g := testGraph(t, 6, 2)
	b := &fileBuilder{magic: MagicSnapshot}
	path := filepath.Join(t.TempDir(), "g.csrz")
	if _, err := WriteGraph(path, g, GraphMeta{Workload: "er", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections, _, err := parseContainer(orig, MagicSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{tagGraphMeta, tagOffsets, tagHalves, tagEdges} {
		b.add(tag, sections[tag])
	}
	b.add("FUTURE", []byte("from a later format version"))
	buf, _ := b.bytes()
	snap, err := openGraphBytes(buf)
	if err != nil {
		t.Fatalf("unknown section rejected: %v", err)
	}
	sameGraph(t, g, snap.Graph)
}

func TestChecksumProperties(t *testing.T) {
	// Trailing zeros must change the checksum (the length fold).
	a := Checksum([]byte{1, 2, 3})
	b := Checksum([]byte{1, 2, 3, 0})
	if a == b {
		t.Fatal("checksum ignores trailing zero bytes")
	}
	if Checksum(nil) != Checksum([]byte{}) {
		t.Fatal("nil and empty differ")
	}
	if DigestString(0) != "0000000000000000" {
		t.Fatalf("digest formatting drift: %s", DigestString(0))
	}
}

// TestWriteAtomicLeavesNoTmp: a write replaces the file's contents and
// leaves no *.tmp behind; a failed write removes its tmp file.
func TestWriteAtomicLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "f.bin")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := writeAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != string(data) {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("tmp file left behind: %v", err)
		}
	}
	// The rename fails when the target is a non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its tmp file: %v", err)
	}
}
