package wasp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/fault"
)

// chain builds a directed path 0→1→…→n-1 with uniform weight w, so
// dist[n-1] = (n-1)*w distinguishes which version answered a query.
func chain(n int, w Weight) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{From: Vertex(i), To: Vertex(i + 1), W: w})
	}
	return FromEdges(n, true, edges)
}

func chainBundle(name string, version uint64, n int, w Weight) *Bundle {
	return &Bundle{
		Manifest: BundleManifest{Name: name, Version: version},
		Graph:    chain(n, w),
	}
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 5 * time.Second},
		DrainTimeout: 10 * time.Second,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	return r
}

// TestRegistryServeAndStatus: the basic load → query → introspect loop.
func TestRegistryServeAndStatus(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := r.Run(ctx, "line", 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Dist[15]; got != 45 {
		t.Fatalf("dist[15] = %d, want 45", got)
	}
	st, ok := r.Status("line")
	if !ok {
		t.Fatal("Status: graph missing")
	}
	if st.Version != 1 || st.State != GraphServing || st.Vertices != 16 || st.Edges != 15 {
		t.Fatalf("Status = %+v", st)
	}
	if _, err := r.Run(ctx, "nope", 0); !errors.Is(err, ErrNoSuchGraph) {
		t.Fatalf("Run on unknown graph: %v, want ErrNoSuchGraph", err)
	}
	if _, err := r.Run(ctx, "line", 16); err == nil {
		t.Fatal("Run with out-of-range source accepted")
	}
	if names := r.Graphs(); len(names) != 1 || names[0] != "line" {
		t.Fatalf("Graphs() = %v", names)
	}
	if !r.Servable() {
		t.Fatal("Servable() = false with an active graph")
	}
}

// TestRegistryHotSwap: a new version atomically replaces the old one,
// the old version enters the rollback history, and queries after the
// swap answer from the new graph.
func TestRegistryHotSwap(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	var events []RegistryEventKind
	r.conf.OnEvent = func(ev RegistryEvent) { events = append(events, ev.Kind) }

	if err := r.Load(ctx, chainBundle("g", 1, 8, 1)); err != nil {
		t.Fatalf("Load v1: %v", err)
	}
	if err := r.Load(ctx, chainBundle("g", 2, 8, 5)); err != nil {
		t.Fatalf("Load v2: %v", err)
	}
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dist[7] != 35 {
		t.Fatalf("dist[7] = %d, want 35 (v2 weights)", res.Dist[7])
	}
	st, _ := r.Status("g")
	if st.Version != 2 || len(st.History) != 1 || st.History[0] != 1 {
		t.Fatalf("Status after swap = %+v", st)
	}
	stats := r.ReloadStats()
	if stats.Loaded != 2 || stats.Rejected != 0 {
		t.Fatalf("ReloadStats = %+v", stats)
	}
	if len(events) != 2 || events[0] != EventLoaded || events[1] != EventLoaded {
		t.Fatalf("events = %v", events)
	}
}

// TestRegistryLoadNoop: re-loading the active version changes nothing.
func TestRegistryLoadNoop(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("g", 1, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(ctx, chainBundle("g", 1, 8, 9)); err != nil {
		t.Fatalf("noop Load: %v", err)
	}
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[7] != 7 {
		t.Fatalf("noop load replaced the graph: dist[7] = %d", res.Dist[7])
	}
	if stats := r.ReloadStats(); stats.Noop != 1 || stats.Loaded != 1 {
		t.Fatalf("ReloadStats = %+v", stats)
	}
}

// TestRegistryConcurrentLoadGraph: LoadGraph picks its version under
// the graph's load lock, so two concurrent calls on one name both
// activate, with distinct versions, and neither degrades to a no-op
// whose graph never serves.
func TestRegistryConcurrentLoadGraph(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var mu sync.Mutex
		loaded := map[uint64]bool{}
		r := NewRegistry(RegistryOptions{OnEvent: func(ev RegistryEvent) {
			if ev.Kind == EventLoaded {
				mu.Lock()
				loaded[ev.Version] = true
				mu.Unlock()
			}
		}})
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, g := range []*Graph{chain(8, 2), chain(8, 9)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = r.LoadGraph(ctx, "g", g)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: LoadGraph %d: %v", trial, i, err)
			}
		}
		if st := r.ReloadStats(); st.Noop != 0 || st.Loaded != 2 {
			t.Fatalf("trial %d: ReloadStats = %+v, want 2 loaded and no no-op", trial, st)
		}
		if !loaded[1] || !loaded[2] {
			t.Fatalf("trial %d: activated versions %v, want 1 and 2", trial, loaded)
		}
		if st, _ := r.Status("g"); st.Version != 2 || len(st.History) != 1 || st.History[0] != 1 {
			t.Fatalf("trial %d: Status = %+v, want version 2 with history [1]", trial, st)
		}
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = r.Close(cctx)
		cancel()
	}
}

// TestRegistryHistoryBounded: the rollback history keeps the newest
// RegistryOptions.History versions only.
func TestRegistryHistoryBounded(t *testing.T) {
	r := testRegistry(t) // History defaults to 2
	ctx := context.Background()
	for v := uint64(1); v <= 5; v++ {
		if err := r.Load(ctx, chainBundle("g", v, 8, Weight(v))); err != nil {
			t.Fatalf("Load v%d: %v", v, err)
		}
	}
	st, _ := r.Status("g")
	if st.Version != 5 || len(st.History) != 2 || st.History[0] != 4 || st.History[1] != 3 {
		t.Fatalf("Status = %+v, want version 5 with history [4 3]", st)
	}
}

// TestRegistryHistoryDropsSeeds: a retired version enters the rollback
// history as its graph and permutation alone. The repair seeds Mutate
// built for it, each a full distance array held outside the cache
// budget, stay behind, and a rollback still answers exactly, cold.
func TestRegistryHistoryDropsSeeds(t *testing.T) {
	const n = 32
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 5 * time.Second},
		DrainTimeout: 10 * time.Second,
		Cache:        NewCache(CacheOptions{}),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	ctx := context.Background()
	if err := r.LoadGraph(ctx, "g", chain(n, 1)); err != nil {
		t.Fatal(err)
	}
	const sources = 3
	for src := Vertex(0); src < sources; src++ {
		if _, err := r.Run(ctx, "g", src); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range []Mutation{
		{Kind: MutSetWeight, From: 0, To: 1, W: 7},
		{Kind: MutSetWeight, From: 1, To: 2, W: 5},
	} {
		if _, _, err := r.Mutate(ctx, "g", []Mutation{m}); err != nil {
			t.Fatal(err)
		}
		if st, _ := r.Status("g"); i == 0 && st.WarmSources != sources {
			t.Fatalf("v2 carries %d repair seeds, want %d", st.WarmSources, sources)
		}
	}

	r.mu.RLock()
	hist := append([]*graphVersion(nil), r.graphs["g"].history...)
	r.mu.RUnlock()
	if len(hist) != 2 || hist[1].version != 2 {
		t.Fatalf("history holds %d versions, want v1 and v2", len(hist))
	}
	for _, v := range hist {
		if len(v.warm) != 0 {
			t.Fatalf("history v%d pins %d seeds, want none", v.version, len(v.warm))
		}
	}

	if v, err := r.Rollback(ctx, "g"); err != nil || v != 2 {
		t.Fatalf("Rollback: v=%d err=%v", v, err)
	}
	for src := Vertex(0); src < sources; src++ {
		res, err := r.Run(ctx, "g", src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(hist[1].g, src, Options{Algorithm: AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Dist, ref.Dist) {
			t.Fatalf("rolled-back v2 from %d: %v, want %v", src, res.Dist, ref.Dist)
		}
	}
}

// TestRegistryRejectCorruptFile: a corrupted bundle file is rejected by
// LoadFile, the counter increments, and the last good version serves.
func TestRegistryRejectCorruptFile(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("g", 1, 8, 2)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "g.wspb")
	if err := SaveBundle(good, chainBundle("g", 2, 8, 9)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"truncated": data[:len(data)/2],
		"crc-flip":  append(bytes.Clone(data[:len(data)-1]), data[len(data)-1]^0xff),
	} {
		bad := filepath.Join(dir, name+".wspb")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.LoadFile(ctx, bad); err == nil {
			t.Fatalf("%s bundle accepted", name)
		}
	}

	// Last good keeps serving.
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatalf("Run after rejections: %v", err)
	}
	if res.Dist[7] != 14 {
		t.Fatalf("dist[7] = %d, want 14 (v1 still serving)", res.Dist[7])
	}
	if stats := r.ReloadStats(); stats.Rejected != 2 || stats.Loaded != 1 {
		t.Fatalf("ReloadStats = %+v", stats)
	}

	// The intact file then loads fine.
	if _, _, err := r.LoadFile(ctx, good); err != nil {
		t.Fatalf("LoadFile(good): %v", err)
	}
	res, err = r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[7] != 63 {
		t.Fatalf("dist[7] = %d, want 63 (v2)", res.Dist[7])
	}
}

// TestRegistryRejectAsymmetricGraph: an "undirected" WSPG graph with an
// arc that has no twin — arcs 0→1:5, 1→0:5, 1→2:1, 2→0:1, 2→1:1,
// which Wasp would answer [0 2 1] from 0 where Dijkstra reads [0 5 6]
// — is refused by ReadBinaryGraph, by ReadBundle and by the registry's
// file load path, and never serves.
func TestRegistryRejectAsymmetricGraph(t *testing.T) {
	var honest bytes.Buffer
	if err := WriteBinaryGraph(&honest, chain(2, 1)); err != nil {
		t.Fatal(err)
	}
	var wspg bytes.Buffer
	wspg.WriteString("WSPG")
	for _, field := range []any{
		binary.LittleEndian.Uint64(honest.Bytes()[4:12]), uint64(0), uint64(3), uint64(5), // version, undirected, n, m
		[]int64{0, 1, 3, 5}, []uint32{1, 0, 2, 0, 1}, []uint32{5, 5, 1, 1, 1},
	} {
		if err := binary.Write(&wspg, binary.LittleEndian, field); err != nil {
			t.Fatal(err)
		}
	}
	fp := uint64(1) // any nonzero value: the graph section must fail first
	if g, err := ReadBinaryGraph(bytes.NewReader(wspg.Bytes())); err == nil {
		t.Errorf("ReadBinaryGraph accepted %v", g)
		fp = g.WeightFingerprint() // judge the bundle paths on the graph alone
	} else if !strings.Contains(err.Error(), "no twin") {
		t.Errorf("ReadBinaryGraph: %v, want the missing twin named", err)
	}

	// A bundle framed by hand: header, then manifest and graph sections
	// of kind | flags | length | payload | CRC-32.
	var data bytes.Buffer
	data.WriteString("WSPB")
	binary.Write(&data, binary.LittleEndian, []uint32{1, 2}) // format version, sections
	manifest := fmt.Sprintf(`{"name":"asym","version":1,"vertices":3,"edges":5,"directed":false,"weight_fp":%d}`, fp)
	for i, payload := range [][]byte{[]byte(manifest), wspg.Bytes()} {
		var frame [16]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(i+1)) // kinds 1 manifest, 2 graph
		binary.LittleEndian.PutUint64(frame[8:], uint64(len(payload)))
		crc := crc32.NewIEEE()
		crc.Write(frame[:])
		crc.Write(payload)
		data.Write(frame[:])
		data.Write(payload)
		binary.Write(&data, binary.LittleEndian, crc.Sum32())
	}
	if _, err := ReadBundle(bytes.NewReader(data.Bytes())); err == nil || !strings.Contains(err.Error(), "no twin") {
		t.Errorf("ReadBundle: %v, want the missing twin named", err)
	}

	r := testRegistry(t)
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "asym.wspb")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LoadFile(ctx, path); err == nil || !strings.Contains(err.Error(), "no twin") {
		t.Errorf("LoadFile: %v, want the missing twin named", err)
	}
	if res, err := r.Run(ctx, "asym", 0); err == nil {
		t.Fatalf("the asymmetric graph serves: %v", res.Dist)
	}
	if stats := r.ReloadStats(); stats.Rejected != 1 || stats.Loaded != 0 {
		t.Fatalf("ReloadStats = %+v, want one rejection", stats)
	}
}

// TestRegistryRejectInvalidBundle: a bundle failing structural
// validation (manifest fingerprint disagreeing with the graph) never
// reaches the serving path.
func TestRegistryRejectInvalidBundle(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("g", 1, 8, 2)); err != nil {
		t.Fatal(err)
	}
	bad := chainBundle("g", 2, 8, 3)
	bad.Manifest.Vertices = 999
	if err := r.Load(ctx, bad); err == nil {
		t.Fatal("fingerprint-mismatched bundle accepted")
	}
	st, _ := r.Status("g")
	if st.Version != 1 || st.State != GraphServing {
		t.Fatalf("Status after pre-entry rejection = %+v", st)
	}
	if _, err := r.Run(ctx, "g", 0); err != nil {
		t.Fatalf("Run after rejection: %v", err)
	}
}

// TestRegistryRejectsPoolCacheAndAuditor: a registry's pools get their
// cache and auditor from RegistryOptions alone. A cache set through
// RegistryOptions.Pool would never be invalidated on a swap nor
// harvested by Mutate, and an auditor set there would never quarantine,
// so the load fails naming the field to set instead.
func TestRegistryRejectsPoolCacheAndAuditor(t *testing.T) {
	aud := NewAuditor(AuditorOptions{})
	t.Cleanup(aud.Close)
	for _, tc := range []struct {
		pool PoolOptions
		want string
	}{
		{PoolOptions{Cache: NewCache(CacheOptions{})}, "RegistryOptions.Cache"},
		{PoolOptions{Auditor: aud}, "RegistryOptions.Audit"},
	} {
		r := NewRegistry(RegistryOptions{Pool: tc.pool})
		err := r.LoadGraph(context.Background(), "g", chain(8, 1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadGraph error %v, want one naming %s", err, tc.want)
		}
		if r.Servable() {
			t.Errorf("%s: a graph serves after the rejected load", tc.want)
		}
		if err := r.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistryRollback: rolling back re-activates the previous version
// with a fresh pool; rolling back again moves forward through history.
func TestRegistryRollback(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("g", 1, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(ctx, chainBundle("g", 2, 8, 5)); err != nil {
		t.Fatal(err)
	}
	v, err := r.Rollback(ctx, "g")
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if v != 1 {
		t.Fatalf("Rollback landed on v%d, want v1", v)
	}
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[7] != 7 {
		t.Fatalf("dist[7] = %d, want 7 (v1 weights)", res.Dist[7])
	}
	st, _ := r.Status("g")
	if st.Version != 1 || len(st.History) != 1 || st.History[0] != 2 {
		t.Fatalf("Status after rollback = %+v", st)
	}
	// The rolled-back-from version is itself in history: roll forward.
	if v, err = r.Rollback(ctx, "g"); err != nil || v != 2 {
		t.Fatalf("roll-forward: v%d, %v", v, err)
	}
	if stats := r.ReloadStats(); stats.RolledBack != 2 {
		t.Fatalf("ReloadStats = %+v", stats)
	}
	// Unknown graph and exhausted history are errors.
	if _, err := r.Rollback(ctx, "nope"); !errors.Is(err, ErrNoSuchGraph) {
		t.Fatalf("Rollback unknown: %v", err)
	}
}

// TestRegistryRollbackEmptyHistory: a graph with no retired versions
// cannot roll back.
func TestRegistryRollbackEmptyHistory(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("g", 1, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rollback(ctx, "g"); err == nil {
		t.Fatal("Rollback with empty history succeeded")
	}
}

// TestRegistryRelabeledBundle: a bundle shipping a relabeled graph and
// its permutation serves queries in original vertex ids — the source is
// translated in, the distance array translated back.
func TestRegistryRelabeledBundle(t *testing.T) {
	// A graph with skewed degrees so RelabelByDegree actually permutes.
	g := FromEdges(6, true, []Edge{
		{From: 0, To: 1, W: 2}, {From: 0, To: 2, W: 7}, {From: 1, To: 2, W: 3},
		{From: 2, To: 3, W: 1}, {From: 3, To: 4, W: 4}, {From: 4, To: 5, W: 1},
		{From: 1, To: 4, W: 20}, {From: 2, To: 5, W: 30},
	})
	rg, perm := RelabelByDegree(g)

	r := testRegistry(t)
	ctx := context.Background()
	err := r.Load(ctx, &Bundle{
		Manifest: BundleManifest{Name: "g", Version: 1},
		Graph:    rg,
		Relabel:  perm,
	})
	if err != nil {
		t.Fatalf("Load relabeled: %v", err)
	}
	st, _ := r.Status("g")
	if !st.Relabeled {
		t.Fatalf("Status.Relabeled = false: %+v", st)
	}

	want, err := Run(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatalf("registry Run: %v", err)
	}
	for v := 0; v < 6; v++ {
		if got.Dist[v] != want.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d (original-id space)", v, got.Dist[v], want.Dist[v])
		}
	}
}

// TestRegistryWarmStart: Mutate repairs the retiring version's cached
// answer into a seed, and the successor answers that source by warm
// resume — including concurrently (the seed is shared read-only) —
// with the distances a cold solve of the mutated graph produces.
func TestRegistryWarmStart(t *testing.T) {
	cache := NewCache(CacheOptions{})
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 5 * time.Second},
		DrainTimeout: 10 * time.Second,
		Cache:        cache,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	ctx := context.Background()
	if err := r.LoadGraph(ctx, "g", chain(32, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, "g", 0); err != nil {
		t.Fatal(err)
	}
	// Decrease-only: a shortcut to the middle of the chain.
	if _, _, err := r.Mutate(ctx, "g", []Mutation{{Kind: MutInsert, From: 0, To: 16, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Status("g"); st.WarmSources != 1 {
		t.Fatalf("WarmSources = %d, want 1", st.WarmSources)
	}
	r.mu.RLock()
	v := r.graphs["g"].active
	r.mu.RUnlock()
	seed := slices.Clone(v.warm[0].Dist)
	cold, err := Run(v.g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(ctx, "g", 0)
			if err != nil {
				t.Errorf("warm Run: %v", err)
				return
			}
			for v := range cold.Dist {
				if res.Dist[v] != cold.Dist[v] {
					t.Errorf("dist[%d] = %d, want %d", v, res.Dist[v], cold.Dist[v])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1: the repair seed did not seed the solve", st.WarmStarts)
	}
	// The shared seed must not have been mutated by the resumes.
	if !slices.Equal(v.warm[0].Dist, seed) {
		t.Fatalf("repair seed mutated by serving: %v, was %v", v.warm[0].Dist, seed)
	}
}

// TestRegistryRemoveAndClose: removal drains and unregisters; Close
// stops everything.
func TestRegistryRemoveAndClose(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("a", 1, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(ctx, chainBundle("b", 1, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(ctx, "a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := r.Run(ctx, "a", 0); !errors.Is(err, ErrNoSuchGraph) {
		t.Fatalf("Run after Remove: %v", err)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Load(ctx, chainBundle("c", 1, 8, 1)); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Load after Close: %v", err)
	}
	// Queries after Close fail with the registry's own error, not the
	// leaked ErrPoolClosed of the still-attached (for Stats) pools.
	if _, err := r.Run(ctx, "b", 0); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	if r.Servable() {
		t.Fatal("Servable() = true: closed registry still claims a servable graph")
	}
}

// TestRegistryMidSwapCrash: a crash between validation and the swap
// (the RegistrySwap injection point) leaves the old version serving,
// and a "restarted" registry rebuilt from the bundle directory comes
// back on a consistent version.
func TestRegistryMidSwapCrash(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "g-1.wspb")
	v2 := filepath.Join(dir, "g-2.wspb")
	if err := SaveBundle(v1, chainBundle("g", 1, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if err := SaveBundle(v2, chainBundle("g", 2, 8, 9)); err != nil {
		t.Fatal(err)
	}

	r := testRegistry(t)
	ctx := context.Background()
	if _, _, err := r.LoadFile(ctx, v1); err != nil {
		t.Fatal(err)
	}

	fault.Activate(fault.NewPlan(fault.Config{
		Seed: 11, PanicOnHit: 1, PanicPoint: fault.RegistrySwap,
	}))
	defer fault.Deactivate()
	crashed := func() (c bool) {
		defer func() { c = recover() != nil }()
		_, _, _ = r.LoadFile(ctx, v2)
		return false
	}()
	fault.Deactivate()
	if !crashed {
		t.Fatal("RegistrySwap injection did not fire")
	}

	// The crashing load never activated: v1 still serves.
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatalf("Run after mid-swap crash: %v", err)
	}
	if res.Dist[7] != 14 {
		t.Fatalf("dist[7] = %d, want 14 (v1)", res.Dist[7])
	}

	// "Restart": a fresh registry loading everything the directory
	// holds converges on the newest intact bundle.
	r2 := testRegistry(t)
	for _, p := range []string{v1, v2} {
		if _, _, err := r2.LoadFile(ctx, p); err != nil {
			t.Fatalf("restart LoadFile(%s): %v", p, err)
		}
	}
	st, _ := r2.Status("g")
	if st.Version != 2 || st.State != GraphServing {
		t.Fatalf("restart Status = %+v, want v2 serving", st)
	}
}

// TestRegistryReloadUnderFire is the acceptance stress: two graphs
// under continuous query load while a reloader hot-swaps good bundles,
// throws corrupt ones at the registry, and rolls back — with the
// BundleSection stall hook stretching every load window. No query may
// fail for a reload-attributable reason, every answer must be
// consistent with some deployed version, and the registry must end on
// the last good version of each graph.
func TestRegistryReloadUnderFire(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		n       = 64
		clients = 3
		reloads = 12
	)
	fault.Activate(fault.NewPlan(fault.Config{Seed: 42, BundleStall: 500, MaxYields: 8}))
	defer fault.Deactivate()

	// The shared result cache rides along: under reload fire most
	// queries are hits or coalesced followers, and none may ever be a
	// retired version's answer.
	cache := NewCache(CacheOptions{})
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 256, QueueWait: 30 * time.Second},
		History:      3,
		DrainTimeout: 30 * time.Second,
		Cache:        cache,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()

	ctx := context.Background()
	dir := t.TempDir()
	graphs := []string{"alpha", "beta"}
	lastGood := map[string]uint64{}
	for _, name := range graphs {
		if err := r.Load(ctx, chainBundle(name, 1, n, 1)); err != nil {
			t.Fatal(err)
		}
		lastGood[name] = 1
	}

	var stop atomic.Bool
	var queries, failures atomic.Int64
	var wg sync.WaitGroup
	for _, name := range graphs {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for !stop.Load() {
					res, err := r.Run(ctx, name, 0)
					queries.Add(1)
					if err != nil {
						failures.Add(1)
						t.Errorf("query on %q failed: %v", name, err)
						return
					}
					// dist[n-1] = (n-1)*w where w is some version's
					// weight — any answer must be one whole version's.
					d := res.Dist[n-1]
					if d == 0 || d%uint32(n-1) != 0 || d/uint32(n-1) > reloads+1 {
						failures.Add(1)
						t.Errorf("query on %q returned torn distances: dist[%d]=%d", name, n-1, d)
						return
					}
				}
			}(name)
		}
	}

	// The reloader: good swaps, corrupt files, the occasional rollback.
	for i := 0; i < reloads && !t.Failed(); i++ {
		name := graphs[i%len(graphs)]
		version := lastGood[name] + 1
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.wspb", name, version))
		if err := SaveBundle(path, chainBundle(name, version, n, Weight(version))); err != nil {
			t.Fatal(err)
		}
		// freshNow asserts the query path reflects version v the moment
		// a swap or rollback returns: the cache must miss into the new
		// version's pool, never replay the predecessor.
		freshNow := func(name string, v uint64) {
			t.Helper()
			res, err := r.Run(ctx, name, 0)
			if err != nil {
				t.Fatalf("post-swap query on %q: %v", name, err)
			}
			if want := uint32(n-1) * uint32(v); res.Dist[n-1] != want {
				t.Fatalf("post-swap query on %q: dist[%d] = %d, want %d (stale version served)",
					name, n-1, res.Dist[n-1], want)
			}
		}
		switch i % 3 {
		case 0, 1:
			if _, _, err := r.LoadFile(ctx, path); err != nil {
				t.Fatalf("reload %d (%s v%d): %v", i, name, version, err)
			}
			lastGood[name] = version
			freshNow(name, version)
		case 2:
			// Corrupt the bundle on disk before loading: must reject.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x20
			bad := path + ".bad"
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.LoadFile(ctx, bad); err == nil {
				t.Fatalf("reload %d: corrupt bundle accepted", i)
			}
			// And an occasional rollback of the other graph.
			other := graphs[(i+1)%len(graphs)]
			if st, _ := r.Status(other); len(st.History) > 0 {
				v, err := r.Rollback(ctx, other)
				if err != nil {
					t.Fatalf("rollback of %q: %v", other, err)
				}
				lastGood[other] = v
				freshNow(other, v)
			}
		}
	}

	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed under reload fire", failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("stress ran zero queries")
	}
	for _, name := range graphs {
		st, ok := r.Status(name)
		if !ok || st.Version != lastGood[name] || st.State != GraphServing {
			t.Fatalf("%s final status = %+v, want v%d serving", name, st, lastGood[name])
		}
		res, err := r.Run(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint32(n-1) * uint32(lastGood[name]); res.Dist[n-1] != want {
			t.Fatalf("%s final dist = %d, want %d", name, res.Dist[n-1], want)
		}
	}
	cs := cache.Stats()
	if cs.Hits == 0 {
		t.Fatal("cache recorded zero hits under sustained identical-query load")
	}
	t.Logf("reload-under-fire: %d queries, %d reloads, stats %+v, cache %+v",
		queries.Load(), reloads, r.ReloadStats(), cs)
}

// TestCacheRegistryHotSwapNoStaleResults: the cache must never serve a
// retired version's distances. Two versions share a shape and differ
// only in weights — exactly the aliasing the content fingerprint and
// per-version scopes exist to prevent — and every query lands the
// serving version's answer, before and after reload and rollback.
func TestCacheRegistryHotSwapNoStaleResults(t *testing.T) {
	const n = 32
	cache := NewCache(CacheOptions{})
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 5 * time.Second},
		History:      3,
		DrainTimeout: 10 * time.Second,
		Cache:        cache,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()

	query := func(wantW uint32) {
		t.Helper()
		res, err := r.Run(ctx, "g", 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got, want := res.Dist[n-1], uint32(n-1)*wantW; got != want {
			t.Fatalf("dist[%d] = %d, want %d (weight %d)", n-1, got, want, wantW)
		}
	}

	if err := r.Load(ctx, chainBundle("g", 1, n, 1)); err != nil {
		t.Fatal(err)
	}
	query(1) // miss, populates v1's scope
	query(1) // hit
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("v1 stats = %+v, want 1 hit / 1 miss", st)
	}

	// Same shape, weight 2. The very next query must see v2 — a stale
	// v1 answer here is the bug this cache's keying exists to prevent.
	if err := r.Load(ctx, chainBundle("g", 2, n, 2)); err != nil {
		t.Fatal(err)
	}
	query(2)
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-reload stats = %+v: v2 query did not miss", st)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after reload, want 1 (v1's entry invalidated)", st.Entries)
	}
	query(2) // hit on v2's own entry

	// Rollback re-activates v1; its old entries are long gone and v2's
	// are invalidated, so the answer is solved fresh and correct.
	if v, err := r.Rollback(ctx, "g"); err != nil || v != 1 {
		t.Fatalf("Rollback: v=%d err=%v", v, err)
	}
	query(1)
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("post-rollback stats = %+v, want 2 hits / 3 misses", st)
	}

	// Removing the graph clears its residue too.
	if err := r.Remove(ctx, "g"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after Remove, want 0", st.Entries)
	}
}

// TestRegistryCacheSharedResults: callers served one cached distance
// array — the flight leader, its coalesced followers and later exact
// hits — each need their own Result header, because a relabeled
// version translates every answer back to original ids by assigning a
// permuted array to the caller's Dist. A header shared between callers
// would be permuted once per caller (and race): every answer here must
// still equal the oracle in original ids.
func TestRegistryCacheSharedResults(t *testing.T) {
	const followers, hits = 4, 4
	g := incrGraph(rand.New(rand.NewSource(23)), 200, false)
	rg, perm := RelabelByDegree(g)
	cache := NewCache(CacheOptions{})
	release := make(chan struct{})
	r := NewRegistry(RegistryOptions{
		Options: Options{Workers: 2},
		Pool: PoolOptions{
			Sessions: 2, QueueDepth: 64, QueueWait: 10 * time.Second,
			// Holding the leader's solve keeps its flight open until
			// every follower has coalesced onto it.
			OnSolve: func(SolveObservation) { <-release },
		},
		Cache:        cache,
		DrainTimeout: 10 * time.Second,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	ctx := context.Background()
	if err := r.Load(ctx, &Bundle{Manifest: BundleManifest{Name: "g", Version: 1}, Graph: rg, Relabel: perm}); err != nil {
		t.Fatal(err)
	}
	const src = Vertex(5)
	if perm[src] == src {
		t.Fatal("the relabeling keeps the source in place; pick another source")
	}
	want := oracleDist(t, g, src)

	results := make([]*Result, 1+followers+hits)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	query := func(i int) {
		wg.Add(1)
		go func() { defer wg.Done(); results[i], errs[i] = r.Run(ctx, "g", src) }()
	}
	query(0)
	waitFor(t, "leader miss", func() bool { return cache.Stats().Misses == 1 })
	for i := 1; i <= followers; i++ {
		query(i)
	}
	waitFor(t, "followers coalesced", func() bool { return cache.Stats().Coalesced == followers })
	close(release)
	// The hits start as soon as the entry is resident, while the leader
	// and followers may still be translating their answers.
	waitFor(t, "entry resident", func() bool { return cache.Stats().Entries == 1 })
	for i := 1 + followers; i < len(results); i++ {
		query(i)
	}
	wg.Wait()

	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !sameDist(res.Dist, want) {
			t.Fatalf("caller %d: distances differ from the oracle in original ids (first at %d)", i, firstDiff(res.Dist, want))
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Coalesced != followers || st.Hits != hits {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced / %d hits", st, followers, hits)
	}
}
