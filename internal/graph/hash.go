package graph

import "math/bits"

// The content hash behind WeightFingerprint and the result cache's
// integrity sum. It reads 64-bit words into four independent lanes, so
// the multiplies of neighbouring words overlap instead of waiting on
// one another, each lane absorbing one word per round with XXH64's
// multiply–rotate–multiply step. The hash is defined on word values,
// not on memory bytes: two uint32 form one uint64 by value (the first
// in the low half) and offsets are read as uint64, so every platform
// computes the same value and nothing needs unsafe. hash/maphash cannot
// serve here: it is seeded per process, and these values key files on
// disk.
//
// The one guarantee, which identity checks rely on: two inputs of the
// same length that differ in exactly one word never collide. Every step
// below is a bijection of the state for a fixed word and of the word
// for a fixed state, so the changed word changes its lane, the lane's
// later rounds carry the change to the end, the fold absorbs the lanes
// one at a time through a bijective mixer, and the tail, the length and
// the final avalanche are bijections too.
// XXH64's own fold first adds rotated copies of all four lanes and then
// merges each lane again, so one lane reaches the result twice and the
// two paths can cancel; that is why the fold here differs.

// XXH64's primes. All are odd, so multiplying by one is a bijection of
// uint64.
const (
	prime1 uint64 = 11400714785074694791
	prime2 uint64 = 14029467366897019727
	prime3 uint64 = 1609587929392839161
	prime4 uint64 = 9650029242287828579
)

// XXH64's lane starting values for seed 0: prime1+prime2, prime2, 0 and
// -prime1, wrapped to 64 bits. The seed enters through the fold
// instead, where it stays a bijection of the result.
const (
	lane0 uint64 = 6983438078262162902
	lane1 uint64 = prime2
	lane2 uint64 = 0
	lane3 uint64 = 7046029288634856825
)

// round absorbs one word into a lane.
func round(lane, w uint64) uint64 {
	return bits.RotateLeft64(lane+w*prime2, 31) * prime1
}

// fold absorbs the four lanes into h, one lane per bijective merge.
func fold(h, v0, v1, v2, v3 uint64) uint64 {
	h = (h^round(0, v0))*prime1 + prime4
	h = (h^round(0, v1))*prime1 + prime4
	h = (h^round(0, v2))*prime1 + prime4
	return (h^round(0, v3))*prime1 + prime4
}

// absorb takes one word after the fold: the words that did not fill a
// round of four lanes.
func absorb(h, w uint64) uint64 {
	return bits.RotateLeft64(h^round(0, w), 27)*prime1 + prime4
}

// avalanche is XXH64's final mix: every output bit depends on every
// input bit.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	return h ^ h>>32
}

// HashWords returns the content hash of ws continued from seed. Equal
// inputs give equal values on every platform and in every process; two
// arrays of one length that differ in one word give different values,
// and so do two seeds for one array, which lets a caller chain arrays
// by passing one call's result as the next one's seed. It allocates
// nothing.
func HashWords(seed uint64, ws []uint32) uint64 {
	n := uint64(len(ws))
	v0, v1, v2, v3 := lane0, lane1, lane2, lane3
	for ; len(ws) >= 8; ws = ws[8:] {
		v0 = round(v0, uint64(ws[0])|uint64(ws[1])<<32)
		v1 = round(v1, uint64(ws[2])|uint64(ws[3])<<32)
		v2 = round(v2, uint64(ws[4])|uint64(ws[5])<<32)
		v3 = round(v3, uint64(ws[6])|uint64(ws[7])<<32)
	}
	h := fold(seed, v0, v1, v2, v3) + n
	for ; len(ws) >= 2; ws = ws[2:] {
		h = absorb(h, uint64(ws[0])|uint64(ws[1])<<32)
	}
	if len(ws) == 1 {
		h = absorb(h, uint64(ws[0]))
	}
	return avalanche(h)
}

// hashOffsets is HashWords over 64-bit words: a CSR offset array.
func hashOffsets(seed uint64, ws []int64) uint64 {
	n := uint64(len(ws))
	v0, v1, v2, v3 := lane0, lane1, lane2, lane3
	for ; len(ws) >= 4; ws = ws[4:] {
		v0 = round(v0, uint64(ws[0]))
		v1 = round(v1, uint64(ws[1]))
		v2 = round(v2, uint64(ws[2]))
		v3 = round(v3, uint64(ws[3]))
	}
	h := fold(seed, v0, v1, v2, v3) + n
	for _, w := range ws {
		h = absorb(h, uint64(w))
	}
	return avalanche(h)
}

// hashCSR is the content hash of one out-CSR. The header words,
// directedness and n, form the seed (n<<1 | directed, one-to-one for
// any vertex count), and each array's hash seeds the next one's, so a
// change to any one word changes the result.
func hashCSR(directed bool, n int, off []int64, dst []Vertex, w []Weight) uint64 {
	seed := uint64(n) << 1
	if directed {
		seed |= 1
	}
	h := hashOffsets(seed, off)
	h = HashWords(h, dst)
	return HashWords(h, w)
}
