package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"lightnet/internal/graph"
)

// Snapshot is a graph snapshot opened from disk.
type Snapshot struct {
	// Graph is the reconstructed frozen graph, bit-identical to the
	// one that was written (including adjacency order).
	Graph *graph.Graph
	// Meta echoes the metadata stored with the snapshot.
	Meta GraphMeta
	// Digest is the snapshot's content digest (16 hex digits) — the
	// value artifacts pin via Artifact.GraphDigest.
	Digest string
}

// OpenGraph opens a *.csrz snapshot. The file is mapped read-only where
// the platform supports it (see mmap_unix.go) and fully validated:
// container checksums first, then every structural invariant of the CSR
// arrays via graph.FromFrozenParts. Corrupt or truncated input returns
// an error, never a panic. The returned graph owns copies of the data;
// the mapping is released before returning.
func OpenGraph(path string) (*Snapshot, error) {
	data, done, err := readFileMapped(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer done()
	return openGraphBytes(data)
}

// openGraphBytes parses a snapshot image. Split from OpenGraph so the
// fuzz targets can exercise the parser without a filesystem.
func openGraphBytes(data []byte) (*Snapshot, error) {
	sections, sum, err := parseContainer(data, MagicSnapshot)
	if err != nil {
		return nil, err
	}

	gmeta, err := need(sections, tagGraphMeta)
	if err != nil {
		return nil, err
	}
	if len(gmeta) < 32 {
		return nil, fmt.Errorf("store: %s section is %d bytes, want >= 32", tagGraphMeta, len(gmeta))
	}
	n64 := binary.LittleEndian.Uint64(gmeta[0:])
	m64 := binary.LittleEndian.Uint64(gmeta[8:])
	if n64 > maxIndex || m64 > maxIndex {
		return nil, fmt.Errorf("store: snapshot sizes out of range (n=%d, m=%d)", n64, m64)
	}
	n, m := int(n64), int(m64)
	meta := GraphMeta{Seed: int64(binary.LittleEndian.Uint64(gmeta[16:]))}
	wlen := binary.LittleEndian.Uint32(gmeta[24:])
	if uint64(wlen) != uint64(len(gmeta)-32) {
		return nil, fmt.Errorf("store: workload length %d does not match %s section size %d", wlen, tagGraphMeta, len(gmeta))
	}
	meta.Workload = string(gmeta[32:])

	offsRaw, err := need(sections, tagOffsets)
	if err != nil {
		return nil, err
	}
	if len(offsRaw) != 4*(n+1) {
		return nil, fmt.Errorf("store: %s section is %d bytes, want %d for n=%d", tagOffsets, len(offsRaw), 4*(n+1), n)
	}
	// Offset range/monotonicity is validated by graph.FromFrozenParts.
	offsets := parseOffsets(offsRaw, n)

	halfRaw, err := need(sections, tagHalves)
	if err != nil {
		return nil, err
	}
	if len(halfRaw) != 16*2*m {
		return nil, fmt.Errorf("store: %s section is %d bytes, want %d for m=%d", tagHalves, len(halfRaw), 16*2*m, m)
	}
	halves := parseHalves(halfRaw, m)

	edgeRaw, err := need(sections, tagEdges)
	if err != nil {
		return nil, err
	}
	if len(edgeRaw) != 16*m {
		return nil, fmt.Errorf("store: %s section is %d bytes, want %d for m=%d", tagEdges, len(edgeRaw), 16*m, m)
	}
	edges := parseEdges(edgeRaw, m)

	if labl, ok := sections[tagLabels]; ok {
		labels, err := parseLabels(labl, n)
		if err != nil {
			return nil, err
		}
		meta.Labels = labels
	}
	if coor, ok := sections[tagCoords]; ok {
		coords, err := parseCoords(coor, n)
		if err != nil {
			return nil, err
		}
		meta.Coords = coords
	}

	g, err := graph.FromFrozenParts(n, edges, offsets, halves)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Snapshot{Graph: g, Meta: meta, Digest: DigestString(sum)}, nil
}

func parseLabels(payload []byte, n int) ([]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("store: %s section is %d bytes, want >= 4", tagLabels, len(payload))
	}
	count := binary.LittleEndian.Uint32(payload[0:])
	if int(count) != n {
		return nil, fmt.Errorf("store: %s count %d != n = %d", tagLabels, count, n)
	}
	head := 4 + 4*n
	if len(payload) < head {
		return nil, fmt.Errorf("store: %s section truncated in the length table", tagLabels)
	}
	labels := make([]string, n)
	at := head
	for v := 0; v < n; v++ {
		l := binary.LittleEndian.Uint32(payload[4+4*v:])
		if uint64(l) > uint64(len(payload)-at) {
			return nil, fmt.Errorf("store: label %d (length %d) overruns the %s section", v, l, tagLabels)
		}
		labels[v] = string(payload[at : at+int(l)])
		at += int(l)
	}
	if at != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes in the %s section", len(payload)-at, tagLabels)
	}
	return labels, nil
}

func parseCoords(payload []byte, n int) ([][]float64, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("store: %s section is %d bytes, want >= 8", tagCoords, len(payload))
	}
	dim := binary.LittleEndian.Uint32(payload[0:])
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("store: coordinate dimension %d outside [1,16]", dim)
	}
	if r := binary.LittleEndian.Uint32(payload[4:]); r != 0 {
		return nil, fmt.Errorf("store: reserved %s word is %#x, want 0", tagCoords, r)
	}
	want := 8 + 8*n*int(dim)
	if len(payload) != want {
		return nil, fmt.Errorf("store: %s section is %d bytes, want %d for n=%d dim=%d", tagCoords, len(payload), want, n, dim)
	}
	coords := make([][]float64, n)
	flat := parseFloats(payload[8:], n*int(dim))
	for v := range coords {
		coords[v] = flat[v*int(dim) : (v+1)*int(dim) : (v+1)*int(dim)]
	}
	return coords, nil
}

// OpenArtifact opens a *.art build artifact with full validation of
// every index against the sizes recorded in its own metadata. The
// parent graph is NOT consulted here — pairing an artifact with the
// right snapshot is the caller's job, checked via GraphDigest
// (serve.NetworkFromArtifact enforces it).
func OpenArtifact(path string) (*Artifact, error) {
	data, done, err := readFileMapped(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer done()
	return openArtifactBytes(data)
}

// openArtifactBytes parses an artifact image (fuzzable entry point).
func openArtifactBytes(data []byte) (*Artifact, error) {
	sections, sum, err := parseContainer(data, MagicArtifact)
	if err != nil {
		return nil, err
	}

	ameta, err := need(sections, tagArtMeta)
	if err != nil {
		return nil, err
	}
	if len(ameta) != 96 {
		return nil, fmt.Errorf("store: %s section is %d bytes, want 96", tagArtMeta, len(ameta))
	}
	kind, err := kindName(binary.LittleEndian.Uint32(ameta[0:]))
	if err != nil {
		return nil, err
	}
	aflags := binary.LittleEndian.Uint32(ameta[12:])
	if aflags&^1 != 0 {
		return nil, fmt.Errorf("store: unknown artifact flags %#x", aflags)
	}
	n64 := binary.LittleEndian.Uint64(ameta[40:])
	m64 := binary.LittleEndian.Uint64(ameta[48:])
	if n64 > maxIndex || m64 > maxIndex {
		return nil, fmt.Errorf("store: artifact sizes out of range (n=%d, m=%d)", n64, m64)
	}
	a := &Artifact{
		Kind:        kind,
		K:           int(binary.LittleEndian.Uint32(ameta[4:])),
		Root:        graph.Vertex(int32(binary.LittleEndian.Uint32(ameta[8:]))),
		Measured:    aflags&1 != 0,
		Eps:         math.Float64frombits(binary.LittleEndian.Uint64(ameta[16:])),
		Seed:        int64(binary.LittleEndian.Uint64(ameta[24:])),
		GraphDigest: DigestString(binary.LittleEndian.Uint64(ameta[32:])),
		N:           int(n64),
		M:           int(m64),
		Weight:      math.Float64frombits(binary.LittleEndian.Uint64(ameta[56:])),
		MSTWeight:   math.Float64frombits(binary.LittleEndian.Uint64(ameta[64:])),
		Lightness:   math.Float64frombits(binary.LittleEndian.Uint64(ameta[72:])),
		Rounds:      int64(binary.LittleEndian.Uint64(ameta[80:])),
		Messages:    int64(binary.LittleEndian.Uint64(ameta[88:])),
		Digest:      DigestString(sum),
	}

	edgeRaw, err := need(sections, tagArtEdges)
	if err != nil {
		return nil, err
	}
	if len(edgeRaw)%4 != 0 {
		return nil, fmt.Errorf("store: %s section length %d not a multiple of 4", tagArtEdges, len(edgeRaw))
	}
	a.Edges = make([]graph.EdgeID, len(edgeRaw)/4)
	for i := range a.Edges {
		u := binary.LittleEndian.Uint32(edgeRaw[4*i:])
		if uint64(u) >= m64 {
			return nil, fmt.Errorf("store: artifact edge id %d out of range with m=%d", u, m64)
		}
		a.Edges[i] = graph.EdgeID(u)
	}

	if par, ok := sections[tagArtParent]; ok {
		if len(par) != 4*a.N {
			return nil, fmt.Errorf("store: %s section is %d bytes, want %d for n=%d", tagArtParent, len(par), 4*a.N, a.N)
		}
		a.Parent = make([]graph.EdgeID, a.N)
		for v := range a.Parent {
			u := binary.LittleEndian.Uint32(par[4*v:])
			if u == 0xFFFFFFFF {
				a.Parent[v] = graph.NoEdge
				continue
			}
			if uint64(u) >= m64 {
				return nil, fmt.Errorf("store: parent edge id %d at vertex %d out of range with m=%d", u, v, m64)
			}
			a.Parent[v] = graph.EdgeID(u)
		}
	}

	if dist, ok := sections[tagArtDist]; ok {
		if len(dist) != 8*a.N {
			return nil, fmt.Errorf("store: %s section is %d bytes, want %d for n=%d", tagArtDist, len(dist), 8*a.N, a.N)
		}
		a.Dist = parseFloats(dist, a.N)
	}

	if stag, ok := sections[tagArtStages]; ok {
		stages, err := parseStages(stag)
		if err != nil {
			return nil, err
		}
		a.Stages = stages
	}
	return a, nil
}

func parseStages(payload []byte) ([]Stage, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("store: %s section is %d bytes, want >= 4", tagArtStages, len(payload))
	}
	count := binary.LittleEndian.Uint32(payload[0:])
	if count > maxStages {
		return nil, fmt.Errorf("store: stage count %d exceeds the limit %d", count, maxStages)
	}
	stages := make([]Stage, 0, count)
	at := 4
	for i := uint32(0); i < count; i++ {
		if len(payload)-at < 4 {
			return nil, fmt.Errorf("store: %s section truncated at stage %d", tagArtStages, i)
		}
		l := binary.LittleEndian.Uint32(payload[at:])
		at += 4
		if l > maxStageName || uint64(l)+16 > uint64(len(payload)-at) {
			return nil, fmt.Errorf("store: stage %d name length %d overruns the %s section", i, l, tagArtStages)
		}
		name := string(payload[at : at+int(l)])
		at += int(l)
		stages = append(stages, Stage{
			Name:     name,
			Rounds:   int64(binary.LittleEndian.Uint64(payload[at:])),
			Messages: int64(binary.LittleEndian.Uint64(payload[at+8:])),
		})
		at += 16
	}
	if at != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes in the %s section", len(payload)-at, tagArtStages)
	}
	return stages, nil
}
