package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Graph serialization. Two formats are supported, mirroring the paper
// artifact's "textual format" (weighted edge lists) and "binary format"
// (a direct CSR dump, the analogue of GAP's .wsg files):
//
//   - Text: one edge per line, "u v w", '#'-prefixed comments, and an
//     optional header line "n <vertices> <directed|undirected>".
//   - Binary (WSPG version 2): the header wspgHeader, then the out-CSR
//     (n+1 int64 offsets, m uint32 targets, m uint32 weights), all
//     little-endian: 36 + 8(n+1) + 8m bytes.
//
// A file stores one adjacency: ReadBinary derives a directed graph's
// in-adjacency by one transpose, and an undirected graph's out-CSR is
// its in-CSR. Version 1, which also stored a directed graph's in-CSR,
// is rejected. A load is O(m) with no re-sorting, plus the twin check
// on undirected graphs, which is what makes the cmd/graphgen →
// cmd/sssp pipeline fast.

const (
	binaryMagic   = "WSPG"
	binaryVersion = 2
)

// wspgHeader is the 36-byte head of a WSPG stream.
type wspgHeader struct {
	Magic   [4]byte
	Version uint64
	Flags   uint64 // bit 0: directed; no other bit is defined
	N, M    uint64 // vertices; arcs, two per undirected edge
}

// WriteText writes the graph as a weighted edge list with a header.
// Undirected edges are written once (u < v).
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(bw, "n %d %s\n", g.n, kind); err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		dst, wt := g.OutNeighbors(Vertex(u))
		for i, v := range dst {
			if !g.directed && Vertex(u) > v {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", u, v, wt[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText parses a weighted edge list. Without a header the graph is
// assumed directed with n = max vertex id + 1.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	n := -1
	directed := true
	line := 0
	maxID := Vertex(0)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: bad header", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %v", line, err)
			}
			if v < 1 || v > 1<<31 {
				return nil, fmt.Errorf("graph: line %d: vertex count %d out of range [1, 2^31]", line, v)
			}
			n = v
			if len(fields) >= 3 {
				directed = fields[2] == "directed"
			}
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v [w]'", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		w := uint64(1)
		if len(fields) >= 3 {
			w, err = strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		}
		// Infinity is the "unreached" sentinel of every distance array;
		// admitting it (or anything that saturates to it) as an edge
		// weight would make a real edge indistinguishable from no path.
		if w >= uint64(Infinity) {
			return nil, fmt.Errorf("graph: line %d: weight %d is not below Infinity (%d)", line, w, uint32(Infinity))
		}
		if n >= 0 {
			if u >= uint64(n) {
				return nil, fmt.Errorf("graph: line %d: vertex %d out of range for declared count %d", line, u, n)
			}
			if v >= uint64(n) {
				return nil, fmt.Errorf("graph: line %d: vertex %d out of range for declared count %d", line, v, n)
			}
		}
		if Vertex(u) > maxID {
			maxID = Vertex(u)
		}
		if Vertex(v) > maxID {
			maxID = Vertex(v)
		}
		edges = append(edges, Edge{From: Vertex(u), To: Vertex(v), W: Weight(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		if uint64(maxID)+1 > 1<<31 {
			return nil, fmt.Errorf("graph: vertex id %d exceeds the 32-bit id space", maxID)
		}
		n = int(maxID) + 1
	} else if len(edges) > 0 && int(maxID) >= n {
		return nil, fmt.Errorf("graph: edge endpoint %d exceeds declared vertex count %d", maxID, n)
	}
	return FromEdges(n, directed, edges), nil
}

// WriteBinary dumps the out-CSR in the WSPG binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	h := wspgHeader{Version: binaryVersion, N: uint64(g.n), M: uint64(len(g.outDst))}
	copy(h.Magic[:], binaryMagic)
	if g.directed {
		h.Flags = 1
	}
	for _, sec := range []any{&h, g.outOff, g.outDst, g.outW} {
		if err := binary.Write(bw, binary.LittleEndian, sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary loads a WSPG graph. It is the one place untrusted bytes
// become a Graph. Each array grows only as its bytes arrive, so a
// header cannot demand memory the stream does not hold, and a stream
// that ends early fails with an error wrapping io.ErrUnexpectedEOF.
// The graph is returned only if it meets every invariant the solvers
// assume (validate.go lists them): strictly ascending out-lists of
// in-range endpoints without self-loops, weights below Infinity, and a
// twin (v,u,w) for every arc (u,v,w) of an undirected graph. ReadBinary
// reads no byte past the graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	var h wspgHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, truncated("header", err)
	}
	switch {
	case string(h.Magic[:]) != binaryMagic:
		return nil, fmt.Errorf("graph: bad magic %q", h.Magic[:])
	case h.Version != binaryVersion:
		return nil, fmt.Errorf("graph: unsupported WSPG version %d (this build reads version %d)", h.Version, binaryVersion)
	case h.Flags&^1 != 0:
		return nil, fmt.Errorf("graph: unknown WSPG flag bits %#x", h.Flags&^1)
	case h.N == 0 || h.N > 1<<31:
		return nil, fmt.Errorf("graph: vertex count %d out of range [1, 2^31]", h.N)
	}
	g := &Graph{n: int(h.N), directed: h.Flags&1 != 0}
	var err error
	if g.outOff, err = readArray[int64](r, h.N+1); err != nil {
		return nil, truncated("offsets", err)
	}
	if g.outDst, err = readArray[Vertex](r, h.M); err != nil {
		return nil, truncated("targets", err)
	}
	if g.outW, err = readArray[Weight](r, h.M); err != nil {
		return nil, truncated("weights", err)
	}
	if err := validate(g); err != nil {
		return nil, err
	}
	g.deriveIn()
	return g, nil
}

// firstRead is how many values readArray reads before an array grows.
const firstRead = 1 << 13

// readArray reads count little-endian values in reads that double up to
// count, so an array's size tracks the bytes that have arrived.
func readArray[T int64 | uint32](r io.Reader, count uint64) ([]T, error) {
	var out []T
	for uint64(len(out)) < count {
		k := int(min(count-uint64(len(out)), max(uint64(len(out)), firstRead)))
		out = slices.Grow(out, k)
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}

// truncated names the part of a WSPG stream that a read error cut
// short; a stream ending there wraps io.ErrUnexpectedEOF.
func truncated(part string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("graph: WSPG %s: %w", part, err)
}
