package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

// The chaos graph is an undirected unit-weight path of chaosN
// vertices, so the true distance from any source s to any target v is
// exactly |s-v| — every complete response is checkable without an
// oracle solver, and a stale or corrupted distance cannot hide.
const chaosN = 256

func chaosGraph() *wasp.Graph {
	edges := make([]wasp.Edge, 0, chaosN-1)
	for i := 0; i < chaosN-1; i++ {
		edges = append(edges, wasp.Edge{From: wasp.Vertex(i), To: wasp.Vertex(i + 1), W: 1})
	}
	return wasp.FromEdges(chaosN, false, edges)
}

// chaosCheckpoint is a genuine mid-solve snapshot for source 3 on the
// chaos path: the first few vertices settled at their exact distances,
// everything else unreached. Every finite entry is a real path length,
// so resuming from it is legitimate on any version of the graph (all
// republished versions carry identical content).
func chaosCheckpoint(g *wasp.Graph) *wasp.Checkpoint {
	dist := make([]uint32, chaosN)
	for v := range dist {
		dist[v] = wasp.Infinity
	}
	for v := 0; v <= 10; v++ {
		if v <= 3 {
			dist[v] = uint32(3 - v)
		} else {
			dist[v] = uint32(v - 3)
		}
	}
	return &wasp.Checkpoint{
		Source:        3,
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Elapsed:       time.Millisecond,
		Relaxations:   10,
		Dist:          dist,
	}
}

// TestDaemonChaos is the daemon-level chaos suite: for each seed it
// assembles a full serving stack (registry + cache + governor +
// checkpoint tracker + bundle scanner behind the real HTTP mux),
// pre-seeds the checkpoint directory with a resumable file and a
// garbage file, then runs an overload storm of concurrent queries
// against injected solve stalls, disk write errors, ENOSPC, disk read
// errors, and bundle load errors — while a reloader keeps republishing
// the same graph under bumped versions.
//
// Invariants asserted, per seed:
//   - no stale results: every complete response carries the exact
//     distance; every degraded response carries an upper bound;
//   - every 429 carries a Retry-After hint;
//   - the brownout ladder only ever moves one rung at a time;
//   - after the faults clear, the daemon recovers to ready with the
//     ladder back at "none" and serves exact results again;
//   - the ENOSPC degraded mode self-heals once the disk drains;
//   - nothing leaks: goroutines return to baseline after shutdown.
func TestDaemonChaos(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			chaosRound(t, uint64(seed))
		})
	}
}

func chaosRound(t *testing.T, seed uint64) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	g := chaosGraph()
	bundleDir, ckptDir := t.TempDir(), t.TempDir()
	bundlePath := filepath.Join(bundleDir, "chaos.wspb")

	// Recovery inputs a crashed predecessor could have left: one
	// resumable checkpoint, one file of garbage.
	if err := wasp.SaveCheckpoint(filepath.Join(ckptDir, "ckpt-chaos-3.wsck"), chaosCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	if err := writeGarbage(filepath.Join(ckptDir, "ckpt-chaos-999.wsck")); err != nil {
		t.Fatal(err)
	}

	var tmu sync.Mutex
	var transitions []wasp.BrownoutTransition
	gov := wasp.NewGovernor(wasp.GovernorConfig{
		QueueDelayBudget: 2 * time.Millisecond,
		DegradedDeadline: 2 * time.Millisecond,
		MinDwell:         5 * time.Millisecond,
		MaxRetryAfter:    2 * time.Second,
		Slots:            2,
		OnTransition: func(tr wasp.BrownoutTransition) {
			tmu.Lock()
			transitions = append(transitions, tr)
			tmu.Unlock()
		},
	})
	tracker := newCkptTracker(ckptDir)
	tracker.probeEvery = 10 * time.Millisecond
	cache := wasp.NewCache(wasp.CacheOptions{MaxBytes: 4 << 20})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2, CheckpointInterval: 2 * time.Millisecond},
		Cache:   cache,
		Pool: wasp.PoolOptions{
			Sessions:   2,
			QueueDepth: 4,
			QueueWait:  5 * time.Millisecond,
			Governor:   gov,
		},
		ConfigureOptions: func(graph string, _ uint64, o wasp.Options) wasp.Options {
			o.CheckpointSink = tracker.sinkFor(graph)
			return o
		},
		// Full-rate async auditing all round: the plan injects stalls and
		// disk faults but never corrupts a result, so a single audit
		// failure (and the quarantine it triggers) would be the certifier
		// crying wolf — asserted at the end of the round.
		Audit: &wasp.AuditorOptions{SampleRate: 1, Async: true},
	})
	sc := newBundleScanner(reg, bundleDir)
	sc.backoffBase = 5 * time.Millisecond
	sc.backoffMax = 20 * time.Millisecond

	// The initial publish happens before the faults arm so every round
	// starts from a serving daemon (chaos on top of an empty registry
	// tests nothing).
	if err := wasp.SaveBundle(bundlePath, &wasp.Bundle{
		Manifest: wasp.BundleManifest{Name: "chaos", Version: 1}, Graph: g,
	}); err != nil {
		t.Fatal(err)
	}
	if loaded, rejected := sc.rescan(ctx); loaded != 1 || rejected != 0 {
		t.Fatalf("initial scan: loaded %d rejected %d", loaded, rejected)
	}
	s := &server{reg: reg, cache: cache, ckpt: tracker, gov: gov, scan: sc}
	// Integrity scrubber on a hot cadence, racing the checkpoint writer,
	// the reloader, and the recovery reads for the whole round. It may
	// legitimately condemn the pre-seeded garbage file; it must never
	// condemn the bundle the scanner is serving from.
	s.scrub = wasp.NewScrubber(wasp.ScrubberOptions{
		CheckpointDir: ckptDir,
		BundleDir:     bundleDir,
		Cache:         cache,
		Interval:      10 * time.Millisecond,
	})
	s.scrub.Start()
	ts := httptest.NewServer(s.routes())
	client := ts.Client()

	plan := fault.NewPlan(fault.Config{
		Seed:            seed,
		SolveStall:      400,
		DiskStall:       300,
		DiskWriteErr:    150,
		DiskWriteENOSPC: 80,
		DiskReadErr:     300,
		BundleLoadErr:   400,
		MaxYields:       16,
	})
	fault.Activate(plan)
	defer fault.Deactivate()

	// Startup recovery runs under read faults: any per-file outcome
	// (resumed, retried, dropped) is acceptable; crashing or wedging is
	// not.
	s.recoverCheckpoints(ctx)

	var bad struct {
		mu    sync.Mutex
		msgs  []string
		count int
	}
	fail := func(format string, args ...any) {
		bad.mu.Lock()
		if bad.count < 5 {
			bad.msgs = append(bad.msgs, fmt.Sprintf(format, args...))
		}
		bad.count++
		bad.mu.Unlock()
	}

	var wg sync.WaitGroup
	// Reloader: republish identical content under bumped versions while
	// the storm runs, rescanning under injected bundle-load faults.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); v < 10; v++ {
			b := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "chaos", Version: v}, Graph: g}
			if err := wasp.SaveBundle(bundlePath, b); err != nil {
				fail("republish v%d: %v", v, err)
				return
			}
			sc.rescan(ctx)
			time.Sleep(3 * time.Millisecond)
		}
	}()
	// Checkpoint writer: a steady stream of sink writes so the disk
	// write faults (including ENOSPC) are exercised every round
	// regardless of how fast the path-graph solves finish. It runs on
	// its own WaitGroup because it stops on signal, not on its own.
	ckptDone := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		sink := tracker.sinkFor("chaos")
		cp := chaosCheckpoint(g)
		for {
			select {
			case <-ckptDone:
				return
			default:
				sink(cp)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Query storm: more concurrency than the pool has slots, so the
	// governor sees real queue pressure and walks the ladder.
	const target = chaosN - 1
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 18; i++ {
				src := (w*7 + i*3) % 8
				checkChaosQuery(t, client, ts.URL, src, target, fail)
			}
		}(w)
	}
	wg.Wait()
	close(ckptDone)
	ckptWG.Wait()

	// Faults off: the daemon must recover on its own — ladder back to
	// none, readiness green, exact answers again.
	fault.Deactivate()
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		sc.rescan(ctx) // heal any quarantined bundle
		ok := chaosExactQuery(client, ts.URL, 0, target)
		var ready readyResponse
		resp, err := client.Get(ts.URL + "/healthz/ready")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&ready)
			resp.Body.Close()
		}
		if err == nil && ok && ready.Ready && ready.Brownout == "none" {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("daemon did not recover: level %s, pressure %.2f", gov.Level(), gov.Pressure())
	}

	// If the storm tripped the ENOSPC degraded mode, it must self-heal
	// now that the injected disk is gone.
	if tracker.disabled.Load() {
		time.Sleep(tracker.probeEvery + 5*time.Millisecond)
		tracker.sinkFor("chaos")(chaosCheckpoint(g))
		if tracker.disabled.Load() {
			t.Error("checkpointing did not self-heal after ENOSPC cleared")
		}
	}

	// The ladder never jumps: every transition is exactly one rung, and
	// consecutive transitions chain (no hidden moves between them).
	tmu.Lock()
	for i, tr := range transitions {
		if d := int(tr.To) - int(tr.From); d != 1 && d != -1 {
			t.Errorf("transition %d: %s -> %s skips rungs", i, tr.From, tr.To)
		}
		if i > 0 && transitions[i-1].To != tr.From {
			t.Errorf("transition %d: %s -> %s does not chain from %s",
				i, tr.From, tr.To, transitions[i-1].To)
		}
	}
	tmu.Unlock()

	bad.mu.Lock()
	if bad.count > 0 {
		t.Fatalf("%d bad responses under chaos, first %d: %v", bad.count, len(bad.msgs), bad.msgs)
	}
	bad.mu.Unlock()

	// Zero false positives from the integrity layer: every served result
	// was sampled, none failed its certificate, nothing got quarantined.
	if as := reg.Auditor().Stats(); as.Failed != 0 || reg.Quarantined() != 0 {
		t.Fatalf("false audit failure under result-clean chaos: %+v, quarantines %d",
			as, reg.Quarantined())
	} else if as.Sampled == 0 {
		t.Fatal("auditor sampled nothing across the whole round")
	}
	s.scrub.Close()
	if _, err := os.Stat(bundlePath); err != nil {
		t.Fatalf("scrubber condemned the healthy serving bundle: %v", err)
	}
	if st := s.scrub.Stats(); st.CacheCorrupt != 0 {
		t.Fatalf("scrubber evicted healthy cache entries: %+v", st)
	}

	// Shutdown leaks nothing: goroutines return to the pre-round
	// baseline (the +2 tolerance absorbs the runtime's own background
	// variance, same as the drain test).
	ts.Close()
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Close(cctx); err != nil {
		t.Fatal(err)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, n)
	}
}

// checkChaosQuery issues one storm query and validates whatever came
// back. Acceptable outcomes under chaos: an exact complete answer, a
// degraded upper bound, a 429 with a Retry-After hint, or a 503 from a
// drain race. A wrong distance or an unexplained status is a failure.
func checkChaosQuery(t *testing.T, client *http.Client, base string, src, target int, fail func(string, ...any)) {
	t.Helper()
	want := uint32(target - src)
	resp, err := client.Get(fmt.Sprintf("%s/sssp?source=%d&target=%d", base, src, target))
	if err != nil {
		fail("GET source=%d: %v", src, err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var q queryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			fail("source=%d: bad JSON %q: %v", src, body, err)
			return
		}
		if q.Distance == nil {
			fail("source=%d: 200 without a distance", src)
			return
		}
		if q.Complete {
			if *q.Distance != want {
				fail("STALE: source=%d complete distance %d, want %d", src, *q.Distance, want)
			}
		} else if *q.Distance < want {
			fail("source=%d: degraded distance %d below true %d", src, *q.Distance, want)
		}
	case http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			fail("source=%d: 429 without Retry-After", src)
		}
	case http.StatusServiceUnavailable:
		// A query racing a version swap's drain; admissible, never wrong.
	default:
		fail("source=%d: status %d: %s", src, resp.StatusCode, body)
	}
}

// chaosExactQuery reports whether one query came back 200, complete,
// and exact — the recovery loop's "serving normally again" check.
func chaosExactQuery(client *http.Client, base string, src, target int) bool {
	resp, err := client.Get(fmt.Sprintf("%s/sssp?source=%d&target=%d", base, src, target))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var q queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return false
	}
	return q.Complete && q.Distance != nil && *q.Distance == uint32(target-src)
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("this is not a checkpoint"), 0o644)
}

// TestDaemonMutationChaos is the overlay case of the chaos harness: a
// mutation storm (PATCH /graph re-weighting the chain's first edge)
// runs concurrently with a query storm, under full-rate synchronous
// auditing. Every incremental activation repairs the prior version's
// cached distances into warm seeds, so the auditor is certifying
// repair-derived results the whole time. Invariants:
//   - complete responses are always consistent with SOME applied
//     weight (never a torn or stale mix);
//   - paths that avoid the mutated edge stay exact throughout;
//   - the auditor certifies every sampled result — zero failures,
//     zero quarantines — and the mutation counter matches the number
//     of accepted batches;
//   - after the storm the daemon serves exact answers for the final
//     weight.
func TestDaemonMutationChaos(t *testing.T) {
	ctx := context.Background()
	g := chaosGraph()
	cache := wasp.NewCache(wasp.CacheOptions{MaxBytes: 4 << 20})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 2, QueueDepth: 16, QueueWait: 2 * time.Second},
		Cache:   cache,
		Audit:   &wasp.AuditorOptions{SampleRate: 1},
	})
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(cctx)
	}()
	if err := reg.LoadGraph(ctx, "chaos", g); err != nil {
		t.Fatal(err)
	}
	s := &server{reg: reg, cache: cache}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	client := ts.Client()

	var bad struct {
		mu   sync.Mutex
		msgs []string
	}
	fail := func(format string, args ...any) {
		bad.mu.Lock()
		if len(bad.msgs) < 5 {
			bad.msgs = append(bad.msgs, fmt.Sprintf(format, args...))
		}
		bad.mu.Unlock()
	}

	// Mutator: walk edge (0,1) through weights 2..5 and back down,
	// one accepted batch per step. minW/maxW bound every weight the
	// edge ever holds, so racing readers have a checkable envelope.
	const batches = 8
	const minW, maxW = 1, 5
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		weights := []uint32{2, 3, 4, 5, 4, 3, 2, 1}
		for _, w := range weights[:batches] {
			body := fmt.Sprintf(`{"mutations":[{"op":"set-weight","from":0,"to":1,"weight":%d}]}`, w)
			req, err := http.NewRequest(http.MethodPatch, ts.URL+"/graph?graph=chaos", strings.NewReader(body))
			if err != nil {
				fail("mutate w=%d: %v", w, err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				fail("mutate w=%d: %v", w, err)
				return
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("mutate w=%d: status %d: %s", w, resp.StatusCode, rb)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Query storm: sources past the mutated edge must stay exact under
	// every version; source 0 must land inside the weight envelope.
	const target = chaosN - 1
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				src := (w*5 + i*3) % 8
				want := uint32(target - src)
				resp, err := client.Get(fmt.Sprintf("%s/sssp?source=%d&target=%d", ts.URL, src, target))
				if err != nil {
					fail("GET source=%d: %v", src, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var q queryResponse
					if err := json.Unmarshal(body, &q); err != nil || q.Distance == nil {
						fail("source=%d: bad body %q: %v", src, body, err)
						continue
					}
					if !q.Complete {
						continue // queue pressure degrade; bounds checked elsewhere
					}
					if src == 0 {
						// Path uses edge (0,1) whose weight races 1..5.
						lo, hi := want-1+minW, want-1+maxW
						if *q.Distance < lo || *q.Distance > hi {
							fail("source=0: distance %d outside weight envelope [%d,%d]",
								*q.Distance, lo, hi)
						}
					} else if *q.Distance != want {
						fail("STALE: source=%d distance %d, want %d", src, *q.Distance, want)
					}
				case http.StatusServiceUnavailable:
					// Racing an activation's drain; admissible.
				default:
					fail("source=%d: status %d: %s", src, resp.StatusCode, body)
				}
			}
		}(w)
	}
	wg.Wait()

	bad.mu.Lock()
	if len(bad.msgs) > 0 {
		t.Fatalf("bad outcomes under mutation chaos: %v", bad.msgs)
	}
	bad.mu.Unlock()

	// The final batch set the edge back to weight 1: the daemon must be
	// serving the fully-repaired graph exactly.
	deadline := time.Now().Add(10 * time.Second)
	for !chaosExactQuery(client, ts.URL, 0, target) {
		if time.Now().After(deadline) {
			t.Fatal("daemon did not serve exact results after the mutation storm")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if st, ok := reg.Status("chaos"); !ok || st.Version != batches+1 {
		t.Fatalf("status after storm = %+v, want version %d", st, batches+1)
	}
	if rs := reg.ReloadStats(); rs.Mutated != batches {
		t.Fatalf("mutated count = %d, want %d", rs.Mutated, batches)
	}
	// The certifier saw every served result — incremental ones included —
	// and never cried wolf.
	if as := reg.Auditor().Stats(); as.Failed != 0 || reg.Quarantined() != 0 {
		t.Fatalf("false audit failure under mutation chaos: %+v, quarantines %d",
			as, reg.Quarantined())
	} else if as.Sampled == 0 {
		t.Fatal("auditor sampled nothing across the storm")
	}
}

// TestDaemonCorruptionDetection proves the corruption faults are
// detected end to end: a DistFlip on a served result fails its sampled
// audit and quarantines the graph (503s, readiness shows it, its
// checkpoints are distrusted, other graphs keep serving), and a
// FileCorrupt flip during a scrub pass is caught by the re-decode —
// with every step recorded in /metrics and the daemon never exiting.
func TestDaemonCorruptionDetection(t *testing.T) {
	ctx := context.Background()
	g := chaosGraph()
	bundleDir, ckptDir := t.TempDir(), t.TempDir()
	if err := wasp.SaveBundle(filepath.Join(bundleDir, "alpha.wspb"), &wasp.Bundle{
		Manifest: wasp.BundleManifest{Name: "alpha", Version: 1}, Graph: g,
	}); err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(ckptDir, "ckpt-alpha-3.wsck")
	if err := wasp.SaveCheckpoint(ckptPath, chaosCheckpoint(g)); err != nil {
		t.Fatal(err)
	}

	tracker := newCkptTracker(ckptDir)
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 2, QueueDepth: 8, QueueWait: time.Second},
		// Synchronous full-rate auditing: the quarantine lands before the
		// corrupted response is even off the serving goroutine.
		Audit: &wasp.AuditorOptions{SampleRate: 1},
		OnEvent: func(ev wasp.RegistryEvent) {
			if ev.Kind == wasp.EventQuarantined {
				tracker.distrust(ev.Graph)
			}
		},
	})
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(cctx)
	}()
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.Load(ctx, &wasp.Bundle{
			Manifest: wasp.BundleManifest{Name: name, Version: 1}, Graph: g,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := &server{reg: reg, ckpt: tracker}
	s.scrub = wasp.NewScrubber(wasp.ScrubberOptions{CheckpointDir: ckptDir, BundleDir: bundleDir})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	client := ts.Client()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// One corrupted solve: the flipped result is served (the audit is a
	// detector, not a gate), but the version is quarantined behind it.
	fault.Activate(fault.NewPlan(fault.Config{Seed: 2, DistFlip: 1000}))
	code, body := get("/sssp?graph=alpha&source=0&target=255")
	fault.Deactivate()
	if code != http.StatusOK {
		t.Fatalf("corrupted solve: status %d: %s", code, body)
	}

	if code, body = get("/sssp?graph=alpha&source=0&target=255"); code != http.StatusServiceUnavailable {
		t.Fatalf("query on quarantined graph: status %d: %s", code, body)
	}
	// alpha's pool counters outlive its quarantine: the flipped solve
	// stays counted while no version of alpha serves.
	if _, body = get("/metrics"); !strings.Contains(string(body), "ssspd_solves_completed_total 1\n") {
		t.Fatalf("ssspd_solves_completed_total dropped the quarantined graph's solve:\n%s", body)
	}
	// The other graph is untouched — corruption in one version never
	// takes the daemon down.
	code, body = get("/sssp?graph=beta&source=0&target=255")
	if code != http.StatusOK {
		t.Fatalf("beta query: status %d: %s", code, body)
	}
	var q queryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.Complete || q.Distance == nil || *q.Distance != 255 {
		t.Fatalf("beta response = %+v, want exact 255", q)
	}

	// Readiness stays green overall and names the quarantined graph.
	code, body = get("/healthz/ready")
	if code != http.StatusOK {
		t.Fatalf("ready: status %d: %s", code, body)
	}
	var ready readyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Graphs["alpha"].State != "quarantined" || ready.Graphs["beta"].State != "serving" {
		t.Fatalf("readiness = %+v", ready)
	}

	// The quarantine distrusted alpha's checkpoint: renamed aside, so no
	// future recovery resumes from a solver that served wrong answers.
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("distrusted checkpoint still present: %v", err)
	}
	if _, err := os.Stat(ckptPath + ".bad"); err != nil {
		t.Fatalf("distrusted checkpoint not preserved as .bad: %v", err)
	}

	// FileCorrupt: a scrub pass under the fault flips one byte of each
	// file image between read and decode; the full re-decode catches it.
	fault.Activate(fault.NewPlan(fault.Config{Seed: 6, FileCorrupt: 1000}))
	found := s.scrub.ScrubOnce()
	fault.Deactivate()
	if found == 0 {
		t.Fatal("scrub pass under FileCorrupt detected nothing")
	}

	// Every detection is on the metrics surface.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"ssspd_quarantined 1",
		"ssspd_quarantines_total 1",
		`ssspd_audits_total{outcome="failed"} 1`,
		"ssspd_audit_failures_total 1",
		"ssspd_checkpoints_distrusted_total 1",
		"ssspd_scrub_corrupt_total 1",
		"ssspd_solves_completed_total 2", // alpha's flipped solve and beta's
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The daemon is alive and still answering after all of it.
	if !chaosExactQuery(client, ts.URL, 0, 255) {
		// beta may need the explicit graph param (two graphs are loaded)
		code, body = get("/sssp?graph=beta&source=0&target=255")
		if code != http.StatusOK {
			t.Fatalf("daemon stopped serving after detection round: %d: %s", code, body)
		}
	}
}
