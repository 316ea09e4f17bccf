package wasp_test

// Golden regression tests: each workload generator's output and the
// resulting SSSP solution are pinned by an FNV checksum. A changed
// checksum means a generator or algorithm change altered results —
// which must be a deliberate, reviewed decision, because every
// recorded number in EXPERIMENTS.md depends on these streams.

import (
	"hash/fnv"
	"testing"

	"wasp"
)

func graphChecksum(g *wasp.Graph) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf)
	}
	put(uint64(g.NumVertices()))
	put(uint64(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		dst, w := g.OutNeighbors(wasp.Vertex(v))
		for i := range dst {
			put(uint64(v)<<40 ^ uint64(dst[i])<<8 ^ uint64(w[i]))
		}
	}
	return h.Sum64()
}

func distChecksum(d []uint32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for _, x := range d {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenN is the pinned workload size for the checksums below.
const goldenN = 1200

func TestGoldenWorkloadsAndDistances(t *testing.T) {
	// To regenerate after a deliberate change:
	//   go test -run TestGoldenWorkloadsAndDistances -v -golden-print
	// (see the printGolden block below).
	golden := map[string][2]uint64{}
	for _, name := range wasp.Workloads(true) {
		g, err := wasp.GenerateWorkload(name, wasp.WorkloadConfig{N: goldenN, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		src := wasp.SourceInLargestComponent(g, 99)
		res, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		golden[name] = [2]uint64{graphChecksum(g), distChecksum(res.Dist)}
	}

	// The actual regression property: regeneration is bit-identical
	// within a process AND parallel Wasp reproduces the pinned
	// Dijkstra distances exactly.
	for _, name := range wasp.Workloads(true) {
		g, _ := wasp.GenerateWorkload(name, wasp.WorkloadConfig{N: goldenN, Seed: 99})
		if got := graphChecksum(g); got != golden[name][0] {
			t.Errorf("%s: graph checksum changed within one process: %x", name, got)
		}
		src := wasp.SourceInLargestComponent(g, 99)
		res, err := wasp.Run(g, src, wasp.Options{
			Algorithm: wasp.AlgoWasp, Workers: 3, Delta: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := distChecksum(res.Dist); got != golden[name][1] {
			t.Errorf("%s: wasp distances differ from dijkstra's checksum", name)
		}
	}
}

// TestGoldenPinnedValues pins the absolute checksum of every workload
// across process boundaries: the in-process test above cannot catch
// platform- or compiler-dependent drift in the generators, nor a change
// in how graph.Builder lays out the CSR. Workloads sharing a generator
// share a pin.
func TestGoldenPinnedValues(t *testing.T) {
	// Pinned on linux/amd64, Go 1.24. The generators use only integer
	// arithmetic and the portable rng package for structure, apart from
	// the power-law models' float degree table, so these must hold on
	// every platform. (The weight streams of WeightNormal use float
	// math; every workload here uses the default WeightUniform.)
	pins := map[string]uint64{
		"friendster":     0x61c9b0f139b2979f,
		"kmer":           0x5a73e677ac29c1cd,
		"kron":           0x0eb8096492606fc1,
		"mawi":           0xd2145260f687fea8,
		"moliere":        0xd8e1d1daf8c7007d,
		"orkut":          0x99e1d75623f8843c,
		"road-eu":        0xa8c8df897ac465b0,
		"road-usa":       0xa8c8df897ac465b0,
		"sk2005":         0x38138dfb811a77a4,
		"twitter":        0xde3e4a7cb20b9ce7,
		"uk2007":         0x0eb8096492606fc1,
		"ukunion":        0x38138dfb811a77a4,
		"urand":          0x669a1f802a5793e5,
		"circuit":        0x99cf2194ec8dc877,
		"delaunay":       0xb6f9cfee9a81bb15,
		"hypercube":      0xd4c05de17a31171c,
		"kkt":            0xb6f9cfee9a81bb15,
		"nlpkkt":         0xe12122ecce129687,
		"random-regular": 0x8f45567db24c4441,
		"spielman":       0xa8c8df897ac465b0,
		"stokes":         0x99cf2194ec8dc877,
		"webbase":        0x38138dfb811a77a4,
	}
	if len(pins) != len(wasp.Workloads(true)) {
		t.Errorf("%d pins for %d workloads", len(pins), len(wasp.Workloads(true)))
	}
	for _, name := range wasp.Workloads(true) {
		want, ok := pins[name]
		if !ok {
			t.Errorf("%s: no pinned checksum", name)
			continue
		}
		g, err := wasp.GenerateWorkload(name, wasp.WorkloadConfig{N: goldenN, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if got := graphChecksum(g); got != want {
			t.Errorf("%s: checksum %#016x, pinned %#016x — generator stream or CSR layout changed",
				name, got, want)
		}
	}
}

// TestGoldenFingerprints pins Graph.WeightFingerprint, the content hash
// bundles and checkpoints store on disk, for four generators. The hash
// reads word values, not memory bytes, so these hold on every
// platform. A changed value is a format change: bump the bundle and
// checkpoint versions with it.
func TestGoldenFingerprints(t *testing.T) {
	pins := map[string]uint64{
		"road-usa": 0x65bd11ed22f6abf7,
		"kron":     0x655a8e9284f55235,
		"twitter":  0x30fa352e4c1d4ebf,
		"mawi":     0x397704a66a2d8269,
	}
	for name, want := range pins {
		g, err := wasp.GenerateWorkload(name, wasp.WorkloadConfig{N: goldenN, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.WeightFingerprint(); got != want {
			t.Errorf("%s: fingerprint %#016x, pinned %#016x — the content hash changed", name, got, want)
		}
	}
}
