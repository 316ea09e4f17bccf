package graph

import (
	"math/bits"
	"slices"
	"testing"
)

// TestHashLaneConstants: the lane starting values are XXH64's for seed
// 0, written out because the sums wrap.
func TestHashLaneConstants(t *testing.T) {
	p1, p2 := prime1, prime2
	if lane0 != p1+p2 || lane3 != -p1 {
		t.Fatalf("lane0 %d, lane3 %d; want %d, %d", lane0, lane3, p1+p2, -p1)
	}
}

// TestContentHashOneWord: changing any one word of a graph's hashed
// arrays — directedness, n, an offset, a destination, a weight —
// changes the content hash. The arrays are edited in place and passed
// through the helper, so no edit needs to be a valid graph.
func TestContentHashOneWord(t *testing.T) {
	// A graph large enough that each array fills several four-lane
	// rounds and leaves a tail.
	b := NewBuilder(23, true)
	for u := 0; u < 23; u++ {
		for k := 1; k <= 3; k++ {
			b.AddEdge(Vertex(u), Vertex((u*k+7)%23), Weight(u*31+k))
		}
	}
	g := b.Build()
	off, dst, w := slices.Clone(g.outOff), slices.Clone(g.outDst), slices.Clone(g.outW)
	base := hashCSR(g.directed, g.n, off, dst, w)
	if base != g.ContentHash() {
		t.Fatalf("hashCSR %#x, ContentHash %#x", base, g.ContentHash())
	}
	if fp := g.WeightFingerprint(); fp != base {
		t.Fatalf("WeightFingerprint %#x, content hash %#x", fp, base)
	}
	differ := func(what string, i int, h uint64) {
		t.Helper()
		if h == base {
			t.Fatalf("%s[%d] changed, hash unchanged: %#x", what, i, h)
		}
	}
	differ("directed", 0, hashCSR(!g.directed, g.n, off, dst, w))
	differ("n", 0, hashCSR(g.directed, g.n+1, off, dst, w))
	// Single-bit edits at both ends of a word and a whole-word edit.
	for _, flip := range []uint64{1, 1 << 31, 1 << 63, ^uint64(0)} {
		for i := range off {
			off[i] ^= int64(flip)
			differ("off", i, hashCSR(g.directed, g.n, off, dst, w))
			off[i] ^= int64(flip)
		}
		for i := range dst {
			dst[i] ^= uint32(flip | flip>>32)
			differ("dst", i, hashCSR(g.directed, g.n, off, dst, w))
			dst[i] ^= uint32(flip | flip>>32)
		}
		for i := range w {
			w[i] ^= uint32(flip | flip>>32)
			differ("w", i, hashCSR(g.directed, g.n, off, dst, w))
			w[i] ^= uint32(flip | flip>>32)
		}
	}
	if h := hashCSR(g.directed, g.n, off, dst, w); h != base {
		t.Fatalf("restored arrays hash %#x, want %#x", h, base)
	}
}

// TestHashWordsOneWord: at every length up to three rounds of lanes
// plus a tail, a change to any one word, or to the seed, changes
// HashWords; so does appending a zero word.
func TestHashWordsOneWord(t *testing.T) {
	for n := 0; n <= 27; n++ {
		ws := make([]uint32, n)
		for i := range ws {
			ws[i] = uint32(i * 0x9e3779b9)
		}
		base := HashWords(7, ws)
		if HashWords(8, ws) == base {
			t.Fatalf("n=%d: seed change not seen", n)
		}
		if HashWords(7, append(slices.Clone(ws), 0)) == base {
			t.Fatalf("n=%d: appended zero word not seen", n)
		}
		for i := range ws {
			for _, flip := range []uint32{1, 1 << 31, ^uint32(0)} {
				ws[i] ^= flip
				if HashWords(7, ws) == base {
					t.Fatalf("n=%d: word %d ^= %#x not seen", n, i, flip)
				}
				ws[i] ^= flip
			}
		}
		if HashWords(7, ws) != base {
			t.Fatalf("n=%d: not deterministic", n)
		}
	}
}

// TestHashBijectiveSteps: the argument behind the one-word guarantee,
// checked on the steps themselves — each is invertible in the state
// for a fixed word and in the word for a fixed state.
func TestHashBijectiveSteps(t *testing.T) {
	inv := func(a uint64) uint64 { // inverse of an odd a mod 2^64 (Newton)
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	unround := func(lane, r uint64) uint64 { // round(lane, w) = r, solved for w
		return (bits.RotateLeft64(r*inv(prime1), -31) - lane) * inv(prime2)
	}
	for i, x := range []uint64{0, 1, 1 << 63, 0xdeadbeefcafef00d, ^uint64(0)} {
		for _, y := range []uint64{0, 3, 1 << 40, 0x0123456789abcdef} {
			if got := unround(x, round(x, y)); got != y {
				t.Fatalf("%d: round(%#x, ·) not invertible: %#x → %#x", i, x, y, got)
			}
			// round in the lane for a fixed word: lane = rotr(r/p1) - w*p2.
			if got := bits.RotateLeft64(round(y, x)*inv(prime1), -31) - x*prime2; got != y {
				t.Fatalf("%d: round(·, %#x) not invertible", i, x)
			}
		}
	}
}

// FuzzContentHash: on any word array, changing any one word changes
// HashWords, and changing any one offset changes the 64-bit variant.
func FuzzContentHash(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(1), uint64(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint16(5), uint32(0x80000000), uint64(99))
	f.Add(make([]byte, 64), uint16(15), uint32(0xffffffff), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip uint32, seed uint64) {
		if flip == 0 {
			flip = 1
		}
		ws := make([]uint32, len(data)/4)
		for i := range ws {
			ws[i] = uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
		}
		if len(ws) > 0 {
			i := int(at) % len(ws)
			base := HashWords(seed, ws)
			ws[i] ^= flip
			if h := HashWords(seed, ws); h == base {
				t.Fatalf("word %d of %d ^= %#x: hash unchanged %#x", i, len(ws), flip, h)
			}
			ws[i] ^= flip
		}
		offs := make([]int64, len(ws)/2)
		for i := range offs {
			offs[i] = int64(uint64(ws[2*i]) | uint64(ws[2*i+1])<<32)
		}
		if len(offs) > 0 {
			i := int(at) % len(offs)
			base := hashOffsets(seed, offs)
			offs[i] ^= int64(flip) << (at % 33)
			if h := hashOffsets(seed, offs); h == base {
				t.Fatalf("offset %d of %d changed: hash unchanged %#x", i, len(offs), h)
			}
		}
	})
}
