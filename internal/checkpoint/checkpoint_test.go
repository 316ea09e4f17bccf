package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wasp/internal/graph"
)

func sample() *Snapshot {
	return &Snapshot{
		Source:        3,
		GraphVertices: 5,
		GraphEdges:    7,
		Directed:      true,
		WeightFP:      0xdeadbeefcafef00d,
		Elapsed:       1500 * time.Millisecond,
		Relaxations:   42,
		Dist:          []uint32{10, 20, graph.Infinity, 0, 30},
	}
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Decode(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Source != want.Source || got.GraphVertices != want.GraphVertices ||
		got.GraphEdges != want.GraphEdges || got.Directed != want.Directed ||
		got.WeightFP != want.WeightFP || got.Elapsed != want.Elapsed ||
		got.Relaxations != want.Relaxations {
		t.Fatalf("metadata mismatch: got %+v want %+v", got, want)
	}
	if len(got.Dist) != len(want.Dist) {
		t.Fatalf("Dist length %d, want %d", len(got.Dist), len(want.Dist))
	}
	for i := range want.Dist {
		if got.Dist[i] != want.Dist[i] {
			t.Fatalf("Dist[%d] = %d, want %d", i, got.Dist[i], want.Dist[i])
		}
	}
	if got.Settled() != 4 {
		t.Fatalf("Settled = %d, want 4", got.Settled())
	}
}

func TestRoundTripLarge(t *testing.T) {
	// Crosses both the encode (2^14) and decode (2^20) chunk
	// boundaries so the streaming paths are exercised, not just the
	// single-chunk fast case.
	n := 1<<20 + 1<<14 + 17
	s := &Snapshot{GraphVertices: n, GraphEdges: 0, WeightFP: 1, Dist: make([]uint32, n)}
	for i := range s.Dist {
		s.Dist[i] = uint32(i * 2654435761)
	}
	got, err := Decode(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range s.Dist {
		if got.Dist[i] != s.Dist[i] {
			t.Fatalf("Dist[%d] = %d, want %d", i, got.Dist[i], s.Dist[i])
		}
	}
}

// legacyHex is a version-1 stream written before the content
// fingerprint was required: flag bit 1 clear, no fingerprint, payload
// at byte 56. Decode must refuse it.
const legacyHex = "5753434b" + // "WSCK"
	"01000000" + // version 1
	"01000000" + // flags: directed, no fingerprint
	"03000000" + // source 3
	"0500000000000000" + // 5 vertices
	"0700000000000000" + // 7 edges
	"002f685900000000" + // 1.5s in ns
	"2a00000000000000" + // 42 relaxations
	"0500000000000000" + // 5 dist entries
	"0a000000" + "14000000" + "ffffffff" + "00000000" + "1e000000" +
	"564cbc49" // crc32 IEEE over bytes [4:76)

// v1Hex is sample() as version 1 wrote it, fingerprint and all: the
// same bytes as version 2 but for the version word and the CRC. Its
// fingerprint was byte-wise FNV-1a, which no graph hashes to any more,
// so Decode must refuse it by version.
const v1Hex = "5753434b" + // "WSCK"
	"01000000" + // version 1
	"03000000" + // flags: directed, fingerprint present
	"03000000" + // source 3
	"0500000000000000" + // 5 vertices
	"0700000000000000" + // 7 edges
	"002f685900000000" + // 1.5s in ns
	"2a00000000000000" + // 42 relaxations
	"0500000000000000" + // 5 dist entries
	"0df0fecaefbeadde" + // content fingerprint 0xdeadbeefcafef00d
	"0a000000" + "14000000" + "ffffffff" + "00000000" + "1e000000" +
	"13264d89" // crc32 IEEE over bytes [4:84)

// TestGoldenFormat pins the on-disk byte layout every producer writes.
// If this test breaks, the format changed: bump Version and keep the
// old bytes as a fixture Decode refuses (as v1Hex), do not just update
// the hex.
func TestGoldenFormat(t *testing.T) {
	got := hex.EncodeToString(encode(t, sample()))
	want := "5753434b" + // "WSCK"
		"02000000" + // version 2
		"03000000" + // flags: directed, fingerprint present
		"03000000" + // source 3
		"0500000000000000" + // 5 vertices
		"0700000000000000" + // 7 edges
		"002f685900000000" + // 1.5s in ns
		"2a00000000000000" + // 42 relaxations
		"0500000000000000" + // 5 dist entries
		"0df0fecaefbeadde" + // content fingerprint 0xdeadbeefcafef00d
		"0a000000" + "14000000" + "ffffffff" + "00000000" + "1e000000" +
		"2c8e25ad" // crc32 IEEE over bytes [4:84)
	if got != want {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, want)
	}
	if got[16:] != v1Hex[16:len(v1Hex)-8]+got[len(got)-8:] {
		t.Fatal("version 2 differs from version 1 beyond the version word and the CRC")
	}
}

// TestDecodeRefusesVersion1: both streams version 1 wrote — with the
// FNV-1a fingerprint, and the older one without any — are refused
// with ErrVersion, though each has an intact CRC.
func TestDecodeRefusesVersion1(t *testing.T) {
	for name, h := range map[string]string{"fingerprinted": v1Hex, "fingerprint-less": legacyHex} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: err = %v, want ErrVersion", name, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encode(t, sample())

	t.Run("bad magic", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[0] = 'X'
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[4] = 99
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[headerSize+2] ^= 0x40
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped header byte", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[12] ^= 0x01 // source
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped trailer byte", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[len(b)-1] ^= 0x80
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncation at every length", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := Decode(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("dist length disagrees with vertex count", func(t *testing.T) {
		b := bytes.Clone(valid)
		b[48] = 4 // distLen: 5 → 4
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
	t.Run("absurd header sizes do not over-allocate", func(t *testing.T) {
		b := bytes.Clone(valid[:headerSize])
		for _, off := range []int{16, 48} { // vertex count and distLen
			for i := 0; i < 8; i++ {
				b[off+i] = 0xff
			}
		}
		// Claims ~2^64 entries with zero payload behind it: must fail
		// fast (malformed or truncated), never attempt the allocation.
		_, err := Decode(bytes.NewReader(b))
		if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrMalformed or ErrTruncated", err)
		}
	})
	t.Run("fingerprint-less legacy stream", func(t *testing.T) {
		// Intact CRC, known version: only the missing fingerprint is
		// wrong, and that alone must refuse the stream. legacyHex is a
		// version-1 stream, so it is restamped with the current version.
		b, err := hex.DecodeString(legacyHex)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[4:8], Version)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[4:len(b)-4]))
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
}

func TestEncodeRejectsInconsistentSnapshot(t *testing.T) {
	s := sample()
	s.GraphVertices = 99
	if err := s.Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("Encode accepted len(Dist) != GraphVertices")
	}
	s = sample()
	s.WeightFP = 0
	if err := s.Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("Encode accepted a snapshot without a content fingerprint")
	}
}

func TestMatches(t *testing.T) {
	s := sample()
	fp := s.WeightFP
	if err := s.Matches(5, 7, true, fp); err != nil {
		t.Fatalf("Matches on identical graph: %v", err)
	}
	for name, check := range map[string]error{
		"vertices": s.Matches(6, 7, true, fp),
		"edges":    s.Matches(5, 8, true, fp),
		"directed": s.Matches(5, 7, false, fp),
	} {
		if check == nil {
			t.Errorf("Matches ignored a %s mismatch", name)
		}
	}
	bad := sample()
	bad.Source = 5
	if bad.Matches(5, 7, true, fp) == nil {
		t.Error("Matches accepted out-of-range source")
	}
}

// TestMatchesWeights covers the content-fingerprint half of Matches: on
// an identical shape only an identical fingerprint passes, and a zero
// fingerprint on either side is a mismatch, not a wildcard.
func TestMatchesWeights(t *testing.T) {
	s := sample()
	fp := s.WeightFP
	if err := s.Matches(5, 7, true, fp); err != nil {
		t.Fatalf("identical fingerprints: %v", err)
	}
	if err := s.Matches(5, 7, true, fp+1); err == nil {
		t.Error("Matches accepted differing fingerprints")
	}
	if err := s.Matches(5, 7, true, 0); err == nil {
		t.Error("Matches accepted a graph without a fingerprint")
	}
	noFP := sample()
	noFP.WeightFP = 0
	if err := noFP.Matches(5, 7, true, fp); err == nil {
		t.Error("Matches accepted a snapshot without a fingerprint")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.wsck")
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Source != want.Source || len(got.Dist) != len(want.Dist) {
		t.Fatalf("Load returned %+v, want %+v", got, want)
	}

	// Overwrite is atomic: a second Save replaces the first cleanly and
	// leaves no temp files behind.
	want.Relaxations = 1000
	if err := Save(path, want); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatalf("Load after overwrite: %v", err)
	}
	if got.Relaxations != 1000 {
		t.Fatalf("Relaxations = %d, want 1000", got.Relaxations)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(entries))
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wsck")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.wsck")); err == nil {
		t.Fatal("Load invented a missing file")
	}
}

func TestWeightFPRoundTrip(t *testing.T) {
	want := sample()
	want.WeightFP = 0x0123456789abcdef
	b := encode(t, want)
	if n := headerSize + 4*len(want.Dist) + 4; len(b) != n {
		t.Fatalf("stream is %d bytes, want header %d + payload + trailer = %d", len(b), headerSize, n)
	}
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.WeightFP != want.WeightFP {
		t.Fatalf("WeightFP = %016x, want %016x", got.WeightFP, want.WeightFP)
	}
	if got.Source != want.Source || got.Directed != want.Directed ||
		got.Elapsed != want.Elapsed || len(got.Dist) != len(want.Dist) {
		t.Fatalf("metadata mismatch: got %+v want %+v", got, want)
	}
	for i := range want.Dist {
		if got.Dist[i] != want.Dist[i] {
			t.Fatalf("Dist[%d] = %d, want %d", i, got.Dist[i], want.Dist[i])
		}
	}

	// The fingerprint is covered by the checksum and the truncation
	// guard like every other byte.
	t.Run("truncation at every length", func(t *testing.T) {
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(bytes.NewReader(b[:cut])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("flipped fingerprint byte", func(t *testing.T) {
		c := bytes.Clone(b)
		c[56+3] ^= 0x10
		if _, err := Decode(bytes.NewReader(c)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
}

func TestWeightFPFlagWithZeroFingerprintRejected(t *testing.T) {
	b := encode(t, sample())
	// Zero the fingerprint and rewrite the trailer so only the semantic
	// check — flag set but fingerprint zero — can fire, not the CRC.
	for i := 56; i < headerSize; i++ {
		b[i] = 0
	}
	crc := crc32.ChecksumIEEE(b[4 : len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}
