// Package checkpoint defines the on-disk format for Wasp solve
// snapshots: a versioned, checksummed binary codec ("WSCK") plus
// crash-safe save/load helpers. A snapshot is a monotone upper-bound
// distance state captured mid-solve (see core.Solver.Checkpoint); the
// codec's job is to make that state survive a process kill and to
// refuse, loudly, anything that is not a snapshot it wrote.
//
// Layout (all integers little-endian):
//
//	[0:4]    magic "WSCK"
//	[4:8]    format version (currently 1)
//	[8:12]   flags (bit 0: graph is directed; bit 1: fingerprint present)
//	[12:16]  source vertex
//	[16:24]  graph vertex count
//	[24:32]  graph edge count
//	[32:40]  elapsed solve time, nanoseconds
//	[40:48]  relaxations attempted
//	[48:56]  distance entry count n (must equal the vertex count)
//	[56:64]  graph content fingerprint (required: flag bit 1 must be set)
//	then the distance array (4n bytes) followed by a CRC-32 (IEEE)
//	trailer over every byte after the magic.
//
// The content fingerprint (graph.WeightFingerprint: wiring + weights,
// not just shape) is the snapshot's graph identity. Flag bit 1 marks it
// present; every producer sets it, Encode refuses a snapshot without
// one, and Decode rejects a stream whose flag bit 1 is clear — a
// snapshot that cannot name its graph cannot safely seed a solve.
//
// The checksum covers everything after the magic, so a flipped bit in
// header, payload or trailer is detected; the magic itself gates the
// "is this even ours" check with a clearer error than a checksum
// mismatch.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"wasp/internal/graph"
)

// Magic identifies a Wasp checkpoint stream.
const Magic = "WSCK"

// Version is the current format version. Decoders reject anything
// newer; older versions would be migrated here if the format evolves.
const Version = 1

const headerSize = 64

// Header flag bits.
const (
	// flagDirected (bit 0): the graph is directed.
	flagDirected = 1 << 0
	// flagWeightFP (bit 1): the header carries the graph content
	// fingerprint at [56:64]. Required on every stream.
	flagWeightFP = 1 << 1
)

// Decode errors. All decode failures wrap one of these (or an
// underlying I/O error), so callers can distinguish "not a checkpoint"
// from "a checkpoint, but damaged".
var (
	ErrBadMagic  = errors.New("checkpoint: bad magic (not a WSCK stream)")
	ErrVersion   = errors.New("checkpoint: unsupported format version")
	ErrChecksum  = errors.New("checkpoint: checksum mismatch")
	ErrTruncated = errors.New("checkpoint: truncated stream")
	ErrMalformed = errors.New("checkpoint: malformed header")
)

// Snapshot is a decoded (or to-be-encoded) solve checkpoint: the
// upper-bound distance array plus the identity of the solve it belongs
// to. WeightFP identifies the graph, so a resume against the wrong
// input fails fast instead of converging to garbage (the warm-start
// contract requires the same graph); GraphVertices/GraphEdges/Directed
// repeat its shape so a mismatch reads as more than two hex numbers.
type Snapshot struct {
	Source        uint32
	GraphVertices int
	GraphEdges    int64
	Directed      bool
	// WeightFP is the content fingerprint of the graph the snapshot was
	// taken on (graph.WeightFingerprint: wiring + weights). It is
	// required — Encode refuses zero — and it distinguishes two
	// same-shape graphs that differ only in edge weights, the case the
	// shape triple above cannot catch; see Matches.
	WeightFP uint64
	// Elapsed is the solve wall time already spent when the snapshot
	// was captured; a resumed solve adds to it rather than restarting
	// the clock.
	Elapsed time.Duration
	// Relaxations attempted up to the capture (approximate: workers
	// publish at chunk granularity).
	Relaxations int64
	// Dist is the upper-bound distance array, one entry per vertex.
	Dist []uint32
}

// Settled counts the finite entries of Dist — the vertices the
// captured solve had already reached.
func (s *Snapshot) Settled() int {
	n := 0
	for _, d := range s.Dist {
		if d != graph.Infinity {
			n++
		}
	}
	return n
}

// Matches verifies the snapshot belongs to the graph with the given
// shape and content fingerprint (graph.WeightFingerprint), returning a
// descriptive error when it does not. It is the one check that a
// snapshot may seed a solve on a graph: the fingerprint is the
// identity, and the shape checks before it explain the common
// mismatches in words.
func (s *Snapshot) Matches(numVertices int, numEdges int64, directed bool, weightFP uint64) error {
	switch {
	case s.GraphVertices != numVertices:
		return fmt.Errorf("checkpoint: graph has %d vertices, snapshot was taken on %d",
			numVertices, s.GraphVertices)
	case s.GraphEdges != numEdges:
		return fmt.Errorf("checkpoint: graph has %d edges, snapshot was taken on %d",
			numEdges, s.GraphEdges)
	case s.Directed != directed:
		return fmt.Errorf("checkpoint: graph directedness %v, snapshot was taken on %v",
			directed, s.Directed)
	case len(s.Dist) != numVertices:
		return fmt.Errorf("checkpoint: snapshot has %d distance entries for %d vertices",
			len(s.Dist), numVertices)
	case int(s.Source) >= numVertices:
		return fmt.Errorf("checkpoint: source %d out of range for %d vertices",
			s.Source, numVertices)
	case s.WeightFP != weightFP:
		return fmt.Errorf("checkpoint: graph content fingerprint %016x, snapshot was taken on %016x",
			weightFP, s.WeightFP)
	}
	return nil
}

// encodeChunk is the staging-buffer size for streaming the distance
// payload: bounded memory regardless of graph size.
const encodeChunk = 1 << 14 // entries per write (64 KiB)

// Encode writes the snapshot to w in WSCK format.
func (s *Snapshot) Encode(w io.Writer) error {
	if len(s.Dist) != s.GraphVertices {
		return fmt.Errorf("checkpoint: %d distance entries for %d vertices", len(s.Dist), s.GraphVertices)
	}
	if s.WeightFP == 0 {
		return errors.New("checkpoint: snapshot has no graph content fingerprint")
	}
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	flags := uint32(flagWeightFP)
	if s.Directed {
		flags |= flagDirected
	}
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], s.Source)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(s.GraphVertices))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(s.GraphEdges))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(s.Elapsed.Nanoseconds()))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(s.Relaxations))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(len(s.Dist)))
	binary.LittleEndian.PutUint64(hdr[56:64], s.WeightFP)

	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	buf := make([]byte, 4*encodeChunk)
	for off := 0; off < len(s.Dist); off += encodeChunk {
		end := off + encodeChunk
		if end > len(s.Dist) {
			end = len(s.Dist)
		}
		b := buf[:4*(end-off)]
		for i, d := range s.Dist[off:end] {
			binary.LittleEndian.PutUint32(b[4*i:], d)
		}
		crc.Write(b)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}

	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Decode reads one WSCK snapshot from r. It never trusts the header's
// sizes for allocation: the distance payload is read in bounded chunks
// and grown as bytes actually arrive, so a lying header on a truncated
// file fails with ErrTruncated instead of attempting a giant
// allocation.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("%w: %d (decoder speaks %d)", ErrVersion, v, Version)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if flags&^uint32(flagDirected|flagWeightFP) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrMalformed, flags)
	}
	if flags&flagWeightFP == 0 {
		return nil, fmt.Errorf("%w: no graph content fingerprint (flag bit 1 clear)", ErrMalformed)
	}
	weightFP := binary.LittleEndian.Uint64(hdr[56:64])
	if weightFP == 0 {
		return nil, fmt.Errorf("%w: fingerprint flag set with zero fingerprint", ErrMalformed)
	}
	nVerts := binary.LittleEndian.Uint64(hdr[16:24])
	nEdges := binary.LittleEndian.Uint64(hdr[24:32])
	distLen := binary.LittleEndian.Uint64(hdr[48:56])
	if distLen != nVerts {
		return nil, fmt.Errorf("%w: %d distance entries for %d vertices", ErrMalformed, distLen, nVerts)
	}
	if nVerts > uint64(graph.Infinity) || nEdges > 1<<62 {
		return nil, fmt.Errorf("%w: implausible graph shape (%d vertices, %d edges)",
			ErrMalformed, nVerts, nEdges)
	}

	crc := crc32.NewIEEE()
	crc.Write(hdr[4:])

	const maxChunk = 1 << 20 // entries per read: bounds allocation growth
	dist := []uint32{}
	buf := make([]byte, 0)
	for remaining := distLen; remaining > 0; {
		chunk := remaining
		if chunk > maxChunk {
			chunk = maxChunk
		}
		if uint64(cap(buf)) < 4*chunk {
			buf = make([]byte, 4*chunk)
		}
		b := buf[:4*chunk]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: distance payload: %v", ErrTruncated, err)
		}
		crc.Write(b)
		for i := uint64(0); i < chunk; i++ {
			dist = append(dist, binary.LittleEndian.Uint32(b[4*i:]))
		}
		remaining -= chunk
	}

	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrTruncated, err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}

	return &Snapshot{
		Source:        binary.LittleEndian.Uint32(hdr[12:16]),
		GraphVertices: int(nVerts),
		GraphEdges:    int64(nEdges),
		Directed:      flags&flagDirected != 0,
		WeightFP:      weightFP,
		Elapsed:       time.Duration(binary.LittleEndian.Uint64(hdr[32:40])),
		Relaxations:   int64(binary.LittleEndian.Uint64(hdr[40:48])),
		Dist:          dist,
	}, nil
}
