package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"

	"lightnet/internal/graph"
)

// GraphMeta is the metadata carried alongside a graph snapshot. Labels
// and Coords are optional (nil omits their sections); when present they
// must have one entry per vertex.
type GraphMeta struct {
	// Workload names the generator scenario the graph came from
	// (e.g. "er", "knn", "grid"); free-form, informational.
	Workload string
	// Seed is the generator seed.
	Seed int64
	// Labels holds optional per-vertex labels.
	Labels []string
	// Coords holds optional per-vertex coordinates; all rows must
	// share one dimension in [1, 16].
	Coords [][]float64
}

// Artifact is a build result — a spanner or an SLT — serialized
// against the snapshot of the graph it was built from. GraphDigest
// pins the parent snapshot: NetworkFromArtifact refuses to apply an
// artifact to a different graph.
type Artifact struct {
	// Kind is "spanner", "slt" or "sltinv".
	Kind string
	// K, Eps are the construction parameters; Root is the SLT root
	// (ignored for spanners).
	K    int
	Eps  float64
	Root graph.Vertex
	// Seed is the construction seed.
	Seed int64
	// GraphDigest is the parent snapshot's digest (16 hex digits).
	GraphDigest string
	// N, M mirror the parent graph's sizes as a fast sanity check.
	N, M int
	// Edges is the result's edge set, as ids into the parent graph.
	Edges []graph.EdgeID
	// Parent and Dist are the per-vertex SLT outputs (nil for
	// spanners): parent edge id (NoEdge at the root) and root
	// distance.
	Parent []graph.EdgeID
	Dist   []float64
	// Weight, MSTWeight and Lightness echo the result's summary
	// numbers bit-exactly.
	Weight    float64
	MSTWeight float64
	Lightness float64
	// Rounds, Messages and Stages carry the Cost accounting;
	// Measured says whether the run used the measured engine.
	Rounds   int64
	Messages int64
	Measured bool
	Stages   []Stage
	// Digest is the artifact file's own content digest; set by
	// WriteArtifact and OpenArtifact, ignored as input.
	Digest string
}

// Stage is one named stage of a measured run's cost breakdown.
type Stage struct {
	Name     string
	Rounds   int64
	Messages int64
}

// Artifact kinds as stored in AMETA.
const (
	kindSpanner = 1
	kindSLT     = 2
	kindSLTInv  = 3
)

func kindCode(kind string) (uint32, error) {
	switch kind {
	case "spanner":
		return kindSpanner, nil
	case "slt":
		return kindSLT, nil
	case "sltinv":
		return kindSLTInv, nil
	}
	return 0, fmt.Errorf("store: unknown artifact kind %q", kind)
}

func kindName(code uint32) (string, error) {
	switch code {
	case kindSpanner:
		return "spanner", nil
	case kindSLT:
		return "slt", nil
	case kindSLTInv:
		return "sltinv", nil
	}
	return "", fmt.Errorf("store: unknown artifact kind code %d", code)
}

// WriteGraph serializes a frozen graph (plus metadata) to path as a
// *.csrz snapshot and returns the snapshot's content digest. The write
// is atomic (tmp file + rename) and deterministic: writing the same
// frozen graph twice yields byte-identical files, hence equal digests.
func WriteGraph(path string, g *graph.Graph, meta GraphMeta) (string, error) {
	if !g.Frozen() {
		return "", fmt.Errorf("store: graph must be frozen before writing")
	}
	n, m := g.N(), g.M()
	if n > maxIndex || m > maxIndex {
		return "", fmt.Errorf("store: graph too large to snapshot (n=%d, m=%d)", n, m)
	}
	if meta.Labels != nil && len(meta.Labels) != n {
		return "", fmt.Errorf("store: %d labels for %d vertices", len(meta.Labels), n)
	}
	if meta.Coords != nil && len(meta.Coords) != n {
		return "", fmt.Errorf("store: %d coordinate rows for %d vertices", len(meta.Coords), n)
	}

	b := &fileBuilder{magic: MagicSnapshot}

	gmeta := make([]byte, 32+len(meta.Workload))
	le32 := binary.LittleEndian.PutUint32
	le64 := binary.LittleEndian.PutUint64
	le64(gmeta[0:], uint64(n))
	le64(gmeta[8:], uint64(m))
	le64(gmeta[16:], uint64(meta.Seed))
	le32(gmeta[24:], uint32(len(meta.Workload)))
	le32(gmeta[28:], 0)
	copy(gmeta[32:], meta.Workload)
	b.add(tagGraphMeta, gmeta)

	offs := make([]byte, 4*(n+1))
	pos := 0
	for v := 0; v <= n; v++ {
		le32(offs[4*v:], uint32(pos))
		if v < n {
			pos += g.Degree(graph.Vertex(v))
		}
	}
	b.add(tagOffsets, offs)

	halves := make([]byte, 16*2*m)
	at := 0
	for v := 0; v < n; v++ {
		for _, h := range g.Neighbors(graph.Vertex(v)) {
			le32(halves[at:], uint32(h.To))
			le32(halves[at+4:], uint32(h.ID))
			le64(halves[at+8:], math.Float64bits(h.W))
			at += 16
		}
	}
	b.add(tagHalves, halves)

	edges := make([]byte, 16*m)
	for id, e := range g.Edges() {
		le32(edges[16*id:], uint32(e.U))
		le32(edges[16*id+4:], uint32(e.V))
		le64(edges[16*id+8:], math.Float64bits(e.W))
	}
	b.add(tagEdges, edges)

	if meta.Labels != nil {
		size := 4 + 4*n
		for _, s := range meta.Labels {
			size += len(s)
		}
		labl := make([]byte, 0, size)
		labl = binary.LittleEndian.AppendUint32(labl, uint32(n))
		for _, s := range meta.Labels {
			labl = binary.LittleEndian.AppendUint32(labl, uint32(len(s)))
		}
		for _, s := range meta.Labels {
			labl = append(labl, s...)
		}
		b.add(tagLabels, labl)
	}

	if meta.Coords != nil && n > 0 {
		dim := len(meta.Coords[0])
		if dim < 1 || dim > 16 {
			return "", fmt.Errorf("store: coordinate dimension %d outside [1,16]", dim)
		}
		coor := make([]byte, 8+8*n*dim)
		le32(coor[0:], uint32(dim))
		le32(coor[4:], 0)
		at := 8
		for v, row := range meta.Coords {
			if len(row) != dim {
				return "", fmt.Errorf("store: coordinate row %d has dimension %d, want %d", v, len(row), dim)
			}
			for _, x := range row {
				le64(coor[at:], math.Float64bits(x))
				at += 8
			}
		}
		b.add(tagCoords, coor)
	}

	buf, sum := b.bytes()
	if err := writeAtomic(path, buf); err != nil {
		return "", err
	}
	return DigestString(sum), nil
}

// WriteArtifact serializes a build artifact to path as a *.art file and
// returns its content digest (also stored into a.Digest). Writes are
// atomic and deterministic like WriteGraph's.
func WriteArtifact(path string, a *Artifact) (string, error) {
	code, err := kindCode(a.Kind)
	if err != nil {
		return "", err
	}
	gd, err := strconv.ParseUint(a.GraphDigest, 16, 64)
	if err != nil || len(a.GraphDigest) != 16 {
		return "", fmt.Errorf("store: graph digest %q is not 16 hex digits", a.GraphDigest)
	}
	if a.N < 0 || a.N > maxIndex || a.M < 0 || a.M > maxIndex {
		return "", fmt.Errorf("store: artifact sizes out of range (n=%d, m=%d)", a.N, a.M)
	}
	if a.Parent != nil && len(a.Parent) != a.N {
		return "", fmt.Errorf("store: %d parents for %d vertices", len(a.Parent), a.N)
	}
	if a.Dist != nil && len(a.Dist) != a.N {
		return "", fmt.Errorf("store: %d distances for %d vertices", len(a.Dist), a.N)
	}

	b := &fileBuilder{magic: MagicArtifact}
	le32 := binary.LittleEndian.PutUint32
	le64 := binary.LittleEndian.PutUint64

	var aflags uint32
	if a.Measured {
		aflags |= 1
	}
	ameta := make([]byte, 96)
	le32(ameta[0:], code)
	le32(ameta[4:], uint32(a.K))
	le32(ameta[8:], uint32(int32(a.Root)))
	le32(ameta[12:], aflags)
	le64(ameta[16:], math.Float64bits(a.Eps))
	le64(ameta[24:], uint64(a.Seed))
	le64(ameta[32:], gd)
	le64(ameta[40:], uint64(a.N))
	le64(ameta[48:], uint64(a.M))
	le64(ameta[56:], math.Float64bits(a.Weight))
	le64(ameta[64:], math.Float64bits(a.MSTWeight))
	le64(ameta[72:], math.Float64bits(a.Lightness))
	le64(ameta[80:], uint64(a.Rounds))
	le64(ameta[88:], uint64(a.Messages))
	b.add(tagArtMeta, ameta)

	edges := make([]byte, 4*len(a.Edges))
	for i, id := range a.Edges {
		if int(id) < 0 || int(id) >= a.M {
			return "", fmt.Errorf("store: artifact edge id %d out of range with m=%d", id, a.M)
		}
		le32(edges[4*i:], uint32(id))
	}
	b.add(tagArtEdges, edges)

	if a.Parent != nil {
		par := make([]byte, 4*a.N)
		for v, id := range a.Parent {
			u := uint32(0xFFFFFFFF)
			if id != graph.NoEdge {
				if int(id) < 0 || int(id) >= a.M {
					return "", fmt.Errorf("store: parent edge id %d at vertex %d out of range with m=%d", id, v, a.M)
				}
				u = uint32(id)
			}
			le32(par[4*v:], u)
		}
		b.add(tagArtParent, par)
	}

	if a.Dist != nil {
		dist := make([]byte, 8*a.N)
		for v, d := range a.Dist {
			le64(dist[8*v:], math.Float64bits(d))
		}
		b.add(tagArtDist, dist)
	}

	if len(a.Stages) > 0 {
		if len(a.Stages) > maxStages {
			return "", fmt.Errorf("store: %d stages exceed the limit %d", len(a.Stages), maxStages)
		}
		stag := binary.LittleEndian.AppendUint32(nil, uint32(len(a.Stages)))
		for _, s := range a.Stages {
			if len(s.Name) > maxStageName {
				return "", fmt.Errorf("store: stage name %q longer than %d bytes", s.Name, maxStageName)
			}
			stag = binary.LittleEndian.AppendUint32(stag, uint32(len(s.Name)))
			stag = append(stag, s.Name...)
			stag = binary.LittleEndian.AppendUint64(stag, uint64(s.Rounds))
			stag = binary.LittleEndian.AppendUint64(stag, uint64(s.Messages))
		}
		b.add(tagArtStages, stag)
	}

	buf, sum := b.bytes()
	if err := writeAtomic(path, buf); err != nil {
		return "", err
	}
	a.Digest = DigestString(sum)
	return a.Digest, nil
}

const (
	maxStages    = 4096
	maxStageName = 256
)

// writeAtomic writes data to path via a sibling tmp file and rename, so
// readers never observe a partial file and a crash — a power loss
// included — leaves at most a stray *.tmp: the tmp file is synced
// before the rename, and the directory after it.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir flushes a directory's entries, making a rename inside it
// durable. Where a directory cannot be synced — Windows, and file
// systems that answer EINVAL or ENOTSUP — the rename is as durable as
// the platform makes it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	err = d.Sync()
	if runtime.GOOS == "windows" || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
