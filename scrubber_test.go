package wasp

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/fault"
)

// fullBundle builds a bundle exercising every WSPB section kind:
// manifest, graph and a relabel permutation.
func fullBundle(n int, w Weight) *Bundle {
	perm := make([]Vertex, n)
	for i := range perm {
		perm[i] = Vertex(i) // identity is a legal bijection
	}
	return &Bundle{
		Manifest: BundleManifest{Name: "scrubme", Version: 1},
		Graph:    chain(n, w),
		Relabel:  perm,
	}
}

func writeTestCheckpoint(t *testing.T, path string, n int, w Weight) {
	t.Helper()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = uint32(i) * w
	}
	cp := &Checkpoint{
		Source: 0, GraphVertices: n, GraphEdges: int64(n - 1),
		Directed: true, WeightFP: chain(n, w).WeightFingerprint(), Dist: dist,
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
}

// sectionOffset walks a WSPB image and returns the byte offset of the
// i-th payload byte of the first section with the given kind.
func sectionOffset(t *testing.T, data []byte, kind uint32) int {
	t.Helper()
	if len(data) < 12 {
		t.Fatalf("bundle image only %d bytes", len(data))
	}
	count := binary.LittleEndian.Uint32(data[8:12])
	off := 12
	for s := uint32(0); s < count; s++ {
		if off+16 > len(data) {
			t.Fatalf("section %d header past EOF", s)
		}
		k := binary.LittleEndian.Uint32(data[off : off+4])
		l := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if k == kind {
			if l == 0 {
				t.Fatalf("section kind %d has empty payload", kind)
			}
			return off + 16 + int(l)/2
		}
		off += 16 + int(l) + 4 // header, payload, CRC
	}
	t.Fatalf("no section of kind %d", kind)
	return 0
}

// TestScrubberCleanPass: healthy artifacts survive a pass untouched.
func TestScrubberCleanPass(t *testing.T) {
	dir := t.TempDir()
	if err := SaveBundle(filepath.Join(dir, "g.wspb"), fullBundle(8, 2)); err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, filepath.Join(dir, "ckpt-g-0.wsck"), 8, 2)

	s := NewScrubber(ScrubberOptions{CheckpointDir: dir, BundleDir: dir})
	if bad := s.ScrubOnce(); bad != 0 {
		t.Fatalf("clean pass found %d corrupt artifacts: %s", bad, s.Stats().LastError)
	}
	st := s.Stats()
	if st.Passes != 1 || st.Files != 2 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "g.wspb")); err != nil {
		t.Fatalf("healthy bundle was touched: %v", err)
	}
}

// TestScrubberCorruptArtifacts is the corruption table: a WSCK flip, a
// flip inside every WSPB section kind, a WSPB image carrying the retired
// checkpoint section, a truncation, and a WSCK stream without a content
// fingerprint. Each must be detected by a full re-decode and renamed
// aside to .bad.
func TestScrubberCorruptArtifacts(t *testing.T) {
	var bundleImage []byte
	{
		dir := t.TempDir()
		p := filepath.Join(dir, "b.wspb")
		if err := SaveBundle(p, fullBundle(8, 2)); err != nil {
			t.Fatal(err)
		}
		var err error
		if bundleImage, err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	const (
		secManifest = 1
		secGraph    = 2
		secCheckpt  = 3
		secRelabel  = 4
	)
	cases := []struct {
		name    string
		file    string
		corrupt func(t *testing.T, path string)
	}{
		{"wsck-flip", "ckpt-g-0.wsck", func(t *testing.T, path string) {
			flipByteAt(t, path, -1)
		}},
		{"wsck-truncated", "ckpt-g-0.wsck", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wsck-no-fingerprint", "ckpt-g-0.wsck", func(t *testing.T, path string) {
			stripFingerprint(t, path)
		}},
		{"wspb-manifest", "b.wspb", func(t *testing.T, path string) {
			flipByteAt(t, path, sectionOffset(t, bundleImage, secManifest))
		}},
		{"wspb-graph", "b.wspb", func(t *testing.T, path string) {
			flipByteAt(t, path, sectionOffset(t, bundleImage, secGraph))
		}},
		{"wspb-checkpoint", "b.wspb", func(t *testing.T, path string) {
			// A well-framed WSCK stream for the bundle's own graph, in
			// the retired kind-3 section.
			wsck := filepath.Join(t.TempDir(), "ckpt.wsck")
			writeTestCheckpoint(t, wsck, 8, 2)
			payload, err := os.ReadFile(wsck)
			if err != nil {
				t.Fatal(err)
			}
			appendSection(t, path, secCheckpt, payload)
		}},
		{"wspb-relabel", "b.wspb", func(t *testing.T, path string) {
			flipByteAt(t, path, sectionOffset(t, bundleImage, secRelabel))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			if tc.file == "ckpt-g-0.wsck" {
				writeTestCheckpoint(t, path, 8, 2)
			} else if err := os.WriteFile(path, bundleImage, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path)

			var gotPath atomic.Pointer[string]
			s := NewScrubber(ScrubberOptions{
				CheckpointDir: dir,
				BundleDir:     dir,
				OnCorrupt:     func(p string, err error) { gotPath.Store(&p) },
			})
			if bad := s.ScrubOnce(); bad != 1 {
				t.Fatalf("ScrubOnce = %d corrupt, want 1", bad)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still present: %v", err)
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Fatalf("no .bad rename: %v", err)
			}
			if p := gotPath.Load(); p == nil || *p != path {
				t.Fatalf("OnCorrupt path = %v, want %q", p, path)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.LastError == "" {
				t.Fatalf("stats = %+v", st)
			}
			// The next pass sees only the .bad file, which is out of the
			// glob: nothing left to condemn.
			if bad := s.ScrubOnce(); bad != 0 {
				t.Fatalf("second pass found %d corrupt artifacts", bad)
			}
		})
	}
}

// flipByteAt flips one byte of the file (at off, or mid-file when -1).
func flipByteAt(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = len(data) / 2
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendSection appends one well-framed WSPB section — kind, zero flags,
// length, payload, CRC — to the bundle file at path and bumps its
// section count: every checksum in the file stays valid.
func appendSection(t *testing.T, path string, kind uint32, payload []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], binary.LittleEndian.Uint32(data[8:12])+1)
	var frame [16]byte
	binary.LittleEndian.PutUint32(frame[0:4], kind)
	binary.LittleEndian.PutUint64(frame[8:16], uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(frame[:])
	crc.Write(payload)
	data = append(append(data, frame[:]...), payload...)
	data = binary.LittleEndian.AppendUint32(data, crc.Sum32())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// stripFingerprint rewrites the WSCK file at path as a stream written
// before the content fingerprint was required: flag bit 1 clear, the
// 8 fingerprint bytes at [56:64] gone, and a CRC that still verifies.
func stripFingerprint(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(append([]byte(nil), data[:56]...), data[64:len(data)-4]...)
	legacy[8] &^= 1 << 1
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.ChecksumIEEE(legacy[4:]))
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubberCacheScrub: a cache entry whose distances rot in memory
// fails its insert-time hash on the next pass and is evicted.
func TestScrubberCacheScrub(t *testing.T) {
	g := chain(16, 3)
	cache := NewCache(CacheOptions{MaxBytes: 1 << 20})
	p, err := NewPool(g, Options{Workers: 1}, PoolOptions{
		Sessions: 1, Cache: cache, CacheScope: "line@1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	if _, err := p.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	s := NewScrubber(ScrubberOptions{Cache: cache})
	if bad := s.ScrubOnce(); bad != 0 {
		t.Fatalf("clean cache pass found %d corrupt entries", bad)
	}

	// Rot the resident entry's memory underneath the cache.
	cache.mu.Lock()
	for _, el := range cache.entries {
		el.Value.(*cacheEntry).cp.Dist[3] ^= 1 << 6
	}
	cache.mu.Unlock()

	if bad := s.ScrubOnce(); bad != 1 {
		t.Fatalf("ScrubOnce = %d, want the rotted entry evicted", bad)
	}
	st := s.Stats()
	if st.CacheCorrupt != 1 || st.CacheEntries < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if cs := cache.Stats(); cs.Entries != 0 {
		t.Fatalf("corrupt entry still resident: %+v", cs)
	}
}

// TestScrubberFileCorruptFault: the chaos hook — a seeded FileCorrupt
// plan flips a byte of the in-memory image between read and decode,
// proving the decode catches arbitrary single-byte corruption without
// any real disk damage.
func TestScrubberFileCorruptFault(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, filepath.Join(dir, "ckpt-g-0.wsck"), 8, 2)

	fault.Activate(fault.NewPlan(fault.Config{Seed: 4, FileCorrupt: 1000}))
	defer fault.Deactivate()
	s := NewScrubber(ScrubberOptions{CheckpointDir: dir})
	if bad := s.ScrubOnce(); bad != 1 {
		t.Fatalf("ScrubOnce = %d, want the injected flip detected", bad)
	}
}

// TestScrubberLoop: Start/Close lifecycle with a tiny interval — the
// loop must run passes and shut down cleanly.
func TestScrubberLoop(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, filepath.Join(dir, "ckpt-g-0.wsck"), 8, 2)
	s := NewScrubber(ScrubberOptions{CheckpointDir: dir, Interval: time.Millisecond})
	s.Start()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Passes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no scrub pass within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	var nilScrub *Scrubber
	nilScrub.Close() // nil-safe
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("healthy artifact condemned: %+v", st)
	}
}
