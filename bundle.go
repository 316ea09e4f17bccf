package wasp

import (
	"io"

	"wasp/internal/bundle"
)

// Bundle is the on-disk deployment unit the Registry serves from: a
// manifest naming and versioning a graph, the graph itself, and an
// optional locality relabeling permutation — each section
// length-framed and CRC-checked so a torn or corrupted file is
// rejected as a whole rather than partially applied. See
// internal/bundle for the format specification.
type Bundle = bundle.Bundle

// BundleManifest names and versions a bundle and pins its graph's
// shape and content fingerprint.
type BundleManifest = bundle.Manifest

// ReadBundle decodes and fully validates a bundle from r. A bundle
// that decodes without error is safe to deploy: checksums verified,
// structure validated, manifest bound to the graph's fingerprint.
func ReadBundle(r io.Reader) (*Bundle, error) { return bundle.Read(r) }

// WriteBundle validates and encodes b to w. Zero manifest shape and
// fingerprint fields are filled from the graph.
func WriteBundle(w io.Writer, b *Bundle) error { return bundle.Write(w, b) }

// LoadBundle reads and validates the bundle file at path.
func LoadBundle(path string) (*Bundle, error) { return bundle.Load(path) }

// SaveBundle writes b to path atomically (temp file, fsync, rename),
// so a registry rescanning the directory never observes a torn write.
func SaveBundle(path string, b *Bundle) error { return bundle.Save(path, b) }
