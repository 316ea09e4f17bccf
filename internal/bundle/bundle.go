// Package bundle defines the on-disk unit of graph deployment: one
// file ("WSPB") carrying a named, versioned graph together with an
// optional locality relabeling permutation. A bundle is what a
// registry hot-loads under live traffic, so the format is built to be
// rejected safely: every section is length-framed and CRC-checked
// (mirroring the checkpoint codec), allocation never trusts a header
// beyond the bytes actually present, and Read validates the whole
// bundle — graph structure (graph.ReadBinary, the one decoder of graph
// bytes), manifest↔graph shape and content fingerprint, permutation
// bijectivity — before any of it is handed to solver workers.
//
// Layout (all integers little-endian):
//
//	[0:4]  magic "WSPB"
//	[4:8]  format version (currently 2)
//	[8:12] section count
//	then count sections, each:
//	  [0:4]    section kind
//	  [4:8]    flags (none defined; nonzero rejected)
//	  [8:16]   payload length L
//	  [16:16+L]      payload
//	  [16+L:20+L]    CRC-32 (IEEE) over kind, flags, length and payload
//
// Section kinds: 1 manifest (canonical JSON), 2 graph (a WSPG binary
// CSR dump), 4 relabel (vertex count + old→new permutation). Kind 3 is
// retired: it once carried a warm-start checkpoint (one WSCK stream),
// which no writer produced, and is now rejected like any unknown kind.
// Exactly one manifest and one graph are required, the manifest first
// — a loader reports the bundle identity in every later error; the
// relabeling is optional and appears at most once. Unknown kinds and
// unknown flag bits are rejected: a bundle is an instruction to
// replace live serving state, so "skip what you don't understand" is
// the wrong default.
package bundle

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"wasp/internal/fault"
	"wasp/internal/graph"
)

// Magic identifies a Wasp graph bundle stream.
const Magic = "WSPB"

// Version is the current format version, the only one Read accepts.
// Version 2 changed no byte of the layout: it marks the manifest's
// weight_fp as graph.WeightFingerprint's word-at-a-time hash, where
// version 1 stored byte-wise FNV-1a. A version-1 bundle is refused with
// ErrVersion, not migrated; graphgen writes its replacement.
const Version = 2

// Section kinds.
const (
	secManifest = 1
	secGraph    = 2
	secRelabel  = 4
)

// maxSections bounds the section count a header may claim: one
// manifest, one graph and one relabeling.
const maxSections = 3

// Decode errors. Every decode failure wraps one of these (or an
// underlying I/O error), so a registry can distinguish "not a bundle"
// from "a bundle, but damaged" from "well-formed, but inconsistent".
var (
	ErrBadMagic  = errors.New("bundle: bad magic (not a WSPB stream)")
	ErrVersion   = errors.New("bundle: unsupported format version")
	ErrChecksum  = errors.New("bundle: section checksum mismatch")
	ErrTruncated = errors.New("bundle: truncated stream")
	ErrMalformed = errors.New("bundle: malformed")
	ErrInvalid   = errors.New("bundle: validation failed")
)

// Manifest names and versions the bundle and pins the identity of the
// graph it must contain. Writers may leave the shape and fingerprint
// fields zero — Write fills them from the graph — but on disk they are
// mandatory: Read rejects a bundle whose manifest and graph sections
// disagree, so a manifest spliced onto the wrong graph cannot activate.
type Manifest struct {
	// Name is the graph's registry key. Required, and stable across
	// versions of the same logical graph.
	Name string `json:"name"`
	// Version distinguishes successive bundles of the same graph. A
	// registry treats the active version with the same content as
	// "already loaded", refuses a version it has deployed with other
	// content, and deploys anything else, so producers should increment
	// it.
	Version uint64 `json:"version"`
	// Description is free-form provenance (generator, date, tuning
	// notes). Optional.
	Description string `json:"description,omitempty"`

	// Shape fingerprint of the graph section.
	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`
	Directed bool  `json:"directed"`

	// WeightFP is the graph section's content fingerprint
	// (graph.WeightFingerprint: wiring + weights), the graph's identity.
	// Shape alone cannot distinguish two versions that differ only in
	// edge weights — the stale-read hazard once fingerprints key result
	// caches and warm-start seeds. Required on disk; Write fills it.
	WeightFP uint64 `json:"weight_fp"`
}

// Bundle is a decoded (or to-be-encoded) graph deployment.
type Bundle struct {
	Manifest Manifest
	// Graph is the deployable graph. When Relabel is present the graph
	// is stored in relabeled (locality-optimized) id space.
	Graph *graph.Graph
	// Relabel, when non-empty, is the old→new vertex permutation that
	// produced Graph from the original id space (see
	// graph.RelabelByDegree). A serving layer maps query sources
	// through it and result arrays back through ApplyPermutation.
	Relabel []graph.Vertex
}

// Validate checks the cross-section consistency of a decoded (or
// hand-assembled) bundle: manifest identity and the binding of the
// manifest and the permutation to the graph. The graph's own structure
// is not rescanned: every graph.Graph constructor yields a valid graph,
// and the decoder of a graph section is graph.ReadBinary. Read calls
// Validate on every successful decode; registries call it again on
// hand-assembled bundles.
func (b *Bundle) Validate() error {
	if err := validateName(b.Manifest.Name); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if b.Graph == nil {
		return fmt.Errorf("%w: bundle %q has no graph", ErrInvalid, b.Manifest.Name)
	}
	n, m, dir := b.Graph.NumVertices(), b.Graph.NumEdges(), b.Graph.Directed()
	if b.Manifest.Vertices != int64(n) || b.Manifest.Edges != m || b.Manifest.Directed != dir {
		return fmt.Errorf("%w: bundle %q: manifest fingerprint (%d vertices, %d edges, directed=%v) does not match graph (%d, %d, %v)",
			ErrInvalid, b.Manifest.Name, b.Manifest.Vertices, b.Manifest.Edges, b.Manifest.Directed, n, m, dir)
	}
	// Content check beyond shape: the manifest must carry this graph's
	// actual wiring+weights fingerprint.
	if fp := b.Graph.WeightFingerprint(); b.Manifest.WeightFP != fp {
		return fmt.Errorf("%w: bundle %q: manifest content fingerprint %016x does not match graph %016x",
			ErrInvalid, b.Manifest.Name, b.Manifest.WeightFP, fp)
	}
	if len(b.Relabel) > 0 {
		if err := validatePermutation(b.Relabel, n); err != nil {
			return fmt.Errorf("%w: bundle %q: %w", ErrInvalid, b.Manifest.Name, err)
		}
	}
	return nil
}

// validatePermutation checks that perm is a bijection on [0, n).
func validatePermutation(perm []graph.Vertex, n int) error {
	if len(perm) != n {
		return fmt.Errorf("relabel permutation has %d entries for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for i, v := range perm {
		if int(v) >= n {
			return fmt.Errorf("relabel permutation entry %d maps to %d, out of range for %d vertices", i, v, n)
		}
		if seen[v] {
			return fmt.Errorf("relabel permutation is not a bijection: %d mapped to twice", v)
		}
		seen[v] = true
	}
	return nil
}

// validateName restricts graph names to a charset that is safe to use
// as a path component (checkpoint files are keyed by graph name), a
// Prometheus label value, and a URL query value without escaping.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("manifest has no graph name")
	}
	if len(name) > 128 {
		return fmt.Errorf("graph name %q exceeds 128 bytes", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("graph name %q: character %q not in [a-zA-Z0-9._-]", name, c)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("graph name %q is a path traversal", name)
	}
	return nil
}

// Normalize fills the manifest's shape from the graph when all three
// fields are zero and the content fingerprint whenever it is zero — the
// convenience for bundles assembled in memory. A partially-set or
// disagreeing identity is left alone for Validate to reject. Read does
// not normalize: a manifest on disk must carry both.
func (b *Bundle) Normalize() {
	if b.Graph == nil {
		return
	}
	if b.Manifest.Vertices == 0 && b.Manifest.Edges == 0 && !b.Manifest.Directed {
		b.Manifest.Vertices = int64(b.Graph.NumVertices())
		b.Manifest.Edges = b.Graph.NumEdges()
		b.Manifest.Directed = b.Graph.Directed()
	}
	if b.Manifest.WeightFP == 0 {
		b.Manifest.WeightFP = b.Graph.WeightFingerprint()
	}
}

// Write encodes the bundle to w. The manifest's shape and fingerprint
// fields are filled from the graph when zero; the assembled bundle is
// validated before a byte is written, so Write never produces a bundle
// Read would reject.
func Write(w io.Writer, b *Bundle) error {
	b.Normalize()
	if err := b.Validate(); err != nil {
		return err
	}

	var hdr [12]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	nSections := 2
	if len(b.Relabel) > 0 {
		nSections++
	}
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(nSections))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	manifest, err := json.Marshal(&b.Manifest)
	if err != nil {
		return fmt.Errorf("bundle: encoding manifest: %w", err)
	}
	if err := writeSection(w, secManifest, manifest); err != nil {
		return err
	}

	var gbuf bytes.Buffer
	if err := graph.WriteBinary(&gbuf, b.Graph); err != nil {
		return fmt.Errorf("bundle: encoding graph: %w", err)
	}
	if err := writeSection(w, secGraph, gbuf.Bytes()); err != nil {
		return err
	}

	if len(b.Relabel) > 0 {
		rbuf := make([]byte, 8+4*len(b.Relabel))
		binary.LittleEndian.PutUint64(rbuf[0:8], uint64(len(b.Relabel)))
		for i, v := range b.Relabel {
			binary.LittleEndian.PutUint32(rbuf[8+4*i:], uint32(v))
		}
		if err := writeSection(w, secRelabel, rbuf); err != nil {
			return err
		}
	}
	return nil
}

// writeSection frames one section: kind, flags, length, payload, CRC
// over all of the preceding (magic-independent) bytes.
func writeSection(w io.Writer, kind uint32, payload []byte) error {
	var frame [16]byte
	binary.LittleEndian.PutUint32(frame[0:4], kind)
	binary.LittleEndian.PutUint32(frame[4:8], 0) // flags
	binary.LittleEndian.PutUint64(frame[8:16], uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(frame[:])
	crc.Write(payload)
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// sectionReadChunk bounds how much of a section payload is read (and
// allocated) at once, so a lying length field on a truncated file fails
// with ErrTruncated instead of attempting a giant allocation.
const sectionReadChunk = 1 << 20

// readSection reads one framed section, verifying its CRC before the
// payload is interpreted.
func readSection(r io.Reader) (kind uint32, payload []byte, err error) {
	var frame [16]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section frame: %v", ErrTruncated, err)
	}
	kind = binary.LittleEndian.Uint32(frame[0:4])
	if flags := binary.LittleEndian.Uint32(frame[4:8]); flags != 0 {
		return 0, nil, fmt.Errorf("%w: section kind %d has unknown flag bits %#x", ErrMalformed, kind, flags)
	}
	length := binary.LittleEndian.Uint64(frame[8:16])
	crc := crc32.NewIEEE()
	crc.Write(frame[:])
	payload = []byte{}
	for remaining := length; remaining > 0; {
		chunk := remaining
		if chunk > sectionReadChunk {
			chunk = sectionReadChunk
		}
		start := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, fmt.Errorf("%w: section kind %d payload: %v", ErrTruncated, kind, err)
		}
		remaining -= chunk
	}
	crc.Write(payload)
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section kind %d trailer: %v", ErrTruncated, kind, err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return 0, nil, fmt.Errorf("%w: section kind %d: computed %08x, stored %08x", ErrChecksum, kind, got, want)
	}
	return kind, payload, nil
}

// Read decodes one bundle from r and validates it end to end. A nil
// error means the bundle is deployable: CRCs verified, graph
// structurally sound and bound to the manifest's fingerprint, the
// permutation a bijection.
func Read(r io.Reader) (*Bundle, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("%w: %d (decoder speaks %d)", ErrVersion, v, Version)
	}
	nSections := binary.LittleEndian.Uint32(hdr[8:12])
	if nSections < 2 || nSections > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrMalformed, nSections)
	}

	b := &Bundle{}
	haveManifest, haveGraph := false, false
	for i := 0; i < int(nSections); i++ {
		fault.Inject(fault.BundleSection, i)
		kind, payload, err := readSection(r)
		if err != nil {
			return nil, err
		}
		switch kind {
		case secManifest:
			if haveManifest {
				return nil, fmt.Errorf("%w: duplicate manifest section", ErrMalformed)
			}
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&b.Manifest); err != nil {
				return nil, fmt.Errorf("%w: manifest: %v", ErrMalformed, err)
			}
			haveManifest = true
		case secGraph:
			if haveGraph {
				return nil, fmt.Errorf("%w: duplicate graph section", ErrMalformed)
			}
			if !haveManifest {
				return nil, fmt.Errorf("%w: graph section before manifest", ErrMalformed)
			}
			g, err := decodeGraphSection(payload)
			if err != nil {
				return nil, err
			}
			b.Graph = g
			haveGraph = true
		case secRelabel:
			if len(b.Relabel) > 0 {
				return nil, fmt.Errorf("%w: duplicate relabel section", ErrMalformed)
			}
			perm, err := decodeRelabelSection(payload)
			if err != nil {
				return nil, err
			}
			b.Relabel = perm
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrMalformed, kind)
		}
	}
	if !haveManifest || !haveGraph {
		return nil, fmt.Errorf("%w: bundle needs a manifest and a graph section", ErrMalformed)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeGraphSection parses a WSPG dump whose exact byte length is
// known from the section frame. graph.ReadBinary bounds allocation by
// the bytes present and checks the graph; a graph it rejects fails the
// bundle with ErrInvalid. The dump must fill the section exactly.
func decodeGraphSection(payload []byte) (*graph.Graph, error) {
	r := bytes.NewReader(payload)
	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, fmt.Errorf("%w: graph section: %w", ErrInvalid, err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%w: graph section has %d bytes after the graph", ErrMalformed, r.Len())
	}
	return g, nil
}

// decodeRelabelSection parses a relabel permutation payload.
func decodeRelabelSection(payload []byte) ([]graph.Vertex, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: relabel section too short", ErrMalformed)
	}
	count := binary.LittleEndian.Uint64(payload[0:8])
	if uint64(len(payload)) != 8+4*count {
		return nil, fmt.Errorf("%w: relabel section is %d bytes for %d entries", ErrMalformed, len(payload), count)
	}
	perm := make([]graph.Vertex, count)
	for i := range perm {
		perm[i] = graph.Vertex(binary.LittleEndian.Uint32(payload[8+4*i:]))
	}
	return perm, nil
}
