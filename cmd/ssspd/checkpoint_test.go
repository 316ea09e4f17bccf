package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

func testGraph() *wasp.Graph {
	return wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 2},
	})
}

func testCheckpoint(g *wasp.Graph) *wasp.Checkpoint {
	// A genuine mid-solve state for source 0 on testGraph: vertex 1
	// settled, vertex 2 not yet reached. Every finite entry is a real
	// path length, so resuming from it is legitimate.
	return &wasp.Checkpoint{
		Source:        0,
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Elapsed:       5 * time.Millisecond,
		Relaxations:   1,
		Dist:          []uint32{0, 1, wasp.Infinity, wasp.Infinity},
	}
}

// TestCheckpointTrackerLifecycle: the sink writes per-source files and
// feeds the stats fields; the refcount keeps a shared source's file
// alive until its last completed query releases it.
func TestCheckpointTrackerLifecycle(t *testing.T) {
	g := testGraph()
	c := newCkptTracker(t.TempDir())
	if c.ageMS() != -1 {
		t.Fatalf("ageMS before any write = %v, want -1", c.ageMS())
	}

	cp := testCheckpoint(g)
	c.sinkFor("test")(cp)
	if c.writes.Load() != 1 {
		t.Fatalf("writes = %d, want 1", c.writes.Load())
	}
	if age := c.ageMS(); age < 0 {
		t.Fatalf("ageMS after a write = %v, want >= 0", age)
	}
	if _, err := os.Stat(c.path("test", 0)); err != nil {
		t.Fatalf("sink wrote no file: %v", err)
	}
	got, err := wasp.LoadCheckpoint(c.path("test", 0))
	if err != nil || got.Settled() != 2 {
		t.Fatalf("persisted checkpoint unreadable or wrong: %v, %+v", err, got)
	}

	// Two queries share source 0: the first completed release must not
	// remove the file while the second is still in flight.
	c.acquire("test", 0)
	c.acquire("test", 0)
	c.release("test", 0, true)
	if _, err := os.Stat(c.path("test", 0)); err != nil {
		t.Fatal("file removed while a query was still in flight")
	}
	c.release("test", 0, true)
	if _, err := os.Stat(c.path("test", 0)); !os.IsNotExist(err) {
		t.Fatalf("spent file not removed after last completed release: %v", err)
	}

	// The same source on a DIFFERENT graph is a distinct key: releasing
	// one graph's query must not delete the other's file.
	c.sinkFor("test")(cp)
	c.sinkFor("other")(cp)
	c.acquire("test", 0)
	c.acquire("other", 0)
	c.release("other", 0, true)
	if _, err := os.Stat(c.path("test", 0)); err != nil {
		t.Fatal("other graph's release removed this graph's file")
	}

	// An incomplete exit keeps the file for restart recovery.
	c.release("test", 0, false)
	if _, err := os.Stat(c.path("test", 0)); err != nil {
		t.Fatal("incomplete release must keep the checkpoint file")
	}
}

// TestParseCkptName: the ckpt-<graph>-<source> layout parses; graph-less
// names and garbage do not.
func TestParseCkptName(t *testing.T) {
	for _, tc := range []struct {
		base  string
		graph string
		src   uint32
		ok    bool
	}{
		{"ckpt-road-usa-17.wsck", "road-usa", 17, true},
		{"ckpt-g-0.wsck", "g", 0, true},
		{"ckpt-42.wsck", "", 0, false}, // no graph name
		{"ckpt-road-usa-.wsck", "", 0, false},
		{"ckpt-.wsck", "", 0, false},
		{"other-1.wsck", "", 0, false},
		{"ckpt-1.txt", "", 0, false},
	} {
		graph, src, ok := parseCkptName(tc.base)
		if graph != tc.graph || src != tc.src || ok != tc.ok {
			t.Errorf("parseCkptName(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.base, graph, src, ok, tc.graph, tc.src, tc.ok)
		}
	}
}

// TestCheckpointDistrustExactGraph: quarantining graph "road" renames
// road's checkpoint files only. Graph names may contain dashes, so
// road-usa's files share the ckpt-road- prefix and must stay
// resumable.
func TestCheckpointDistrustExactGraph(t *testing.T) {
	c := newCkptTracker(t.TempDir())
	cp := testCheckpoint(testGraph())
	c.sinkFor("road")(cp)
	c.sinkFor("road-usa")(cp)

	if n := c.distrust("road"); n != 1 {
		t.Fatalf("distrust(road) renamed %d files, want 1", n)
	}
	if _, err := os.Stat(c.path("road", 0) + ".bad"); err != nil {
		t.Fatalf("road's checkpoint not renamed .bad: %v", err)
	}
	if _, err := os.Stat(c.path("road-usa", 0)); err != nil {
		t.Fatalf("road-usa's checkpoint was distrusted with road's: %v", err)
	}
	if got := c.distrusted.Load(); got != 1 {
		t.Fatalf("distrusted = %d, want 1", got)
	}
}

// TestRecoverCheckpoints: a restarted server resumes valid leftover
// files through the registry and deletes them; corrupt files, files
// for unregistered graphs, fingerprint-mismatched files and graph-less
// file names are removed — logged and counted, never a daemon failure.
// /stats reflects all of it.
func TestRecoverCheckpoints(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	tracker := newCkptTracker(dir)
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1},
	})
	s := &server{reg: reg, ckpt: tracker}

	// Resumable: the ckpt-<graph>-<source> layout.
	if err := wasp.SaveCheckpoint(tracker.path("test", 0), testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	// Droppable: a valid snapshot under a graph-less name (not adopted),
	// corrupt bytes, a stream without a content fingerprint, an
	// unregistered graph, and a fingerprint that no longer matches the
	// graph's deployed shape.
	graphless := testCheckpoint(g)
	graphless.Source = 1
	graphless.Dist = []uint32{wasp.Infinity, 0, wasp.Infinity, wasp.Infinity}
	if err := wasp.SaveCheckpoint(filepath.Join(dir, "ckpt-1.wsck"), graphless); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "ckpt-test-2.wsck")
	if err := os.WriteFile(corrupt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	noFP := tracker.path("test", 1)
	if err := wasp.SaveCheckpoint(noFP, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	stripFingerprint(t, noFP)
	ghost := tracker.path("ghost", 0)
	if err := wasp.SaveCheckpoint(ghost, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	stale := testCheckpoint(g)
	stale.GraphVertices = 5
	stale.Dist = []uint32{0, 1, wasp.Infinity, wasp.Infinity, wasp.Infinity}
	mismatched := tracker.path("test", 3)
	stale.Source = 3
	if err := wasp.SaveCheckpoint(mismatched, stale); err != nil {
		t.Fatal(err)
	}

	s.recoverCheckpoints(context.Background())

	if n := tracker.recovered.Load(); n != 1 {
		t.Fatalf("recovered = %d, want 1", n)
	}
	if n := tracker.skipped.Load(); n != 2 {
		t.Fatalf("skipped = %d, want 2 (ghost graph + stale fingerprint)", n)
	}
	for _, f := range []string{
		tracker.path("test", 0), filepath.Join(dir, "ckpt-1.wsck"),
		corrupt, noFP, ghost, mismatched,
	} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s not removed after recovery", f)
		}
	}

	ts := newHTTPServer(t, s)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Recovered != 1 || st.RecoverySkipped != 2 || st.Completed != 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

// TestRecoverRefusesVersion1Checkpoint: a checkpoint left by a build
// that wrote WSCK version 1 names its graph by the retired FNV-1a
// fingerprint. Recovery removes it with a log line that names the
// version, resumes nothing, and the daemon becomes ready.
func TestRecoverRefusesVersion1Checkpoint(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	tracker := newCkptTracker(dir)
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1},
	})
	s := &server{reg: reg, ckpt: tracker}
	old := tracker.path("test", 0)
	if err := wasp.SaveCheckpoint(old, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], 1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[4:len(data)-4]))
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	s.recoverCheckpoints(context.Background())
	log.SetOutput(os.Stderr)

	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("version-1 checkpoint not removed: %v", err)
	}
	if !strings.Contains(logs.String(), "recovery: removing "+old) ||
		!strings.Contains(logs.String(), "unsupported format version: 1") {
		t.Fatalf("recovery log does not name the removal and the version:\n%s", logs.String())
	}
	if n := tracker.recovered.Load(); n != 0 {
		t.Fatalf("recovered = %d, want 0", n)
	}
	ts := newHTTPServer(t, s)
	var ready readyResponse
	getJSON(t, ts.URL+"/healthz/ready", http.StatusOK, &ready)
	if !ready.Ready {
		t.Fatalf("ready = %+v", ready)
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

// TestOverloadRetryAfter: a 429 carries the configured Retry-After
// hint. The only session is parked on a fault-injection block, so the
// second query's rejection is deterministic, not a race.
func TestOverloadRetryAfter(t *testing.T) {
	g := testGraph()
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1, QueueDepth: 0},
	})
	s := &server{reg: reg, retry: "7"}
	ts := newHTTPServer(t, s)

	plan := fault.NewPlan(fault.Config{Seed: 1, BlockOnHit: 1, BlockPoint: fault.SolveStart})
	fault.Activate(plan)
	defer fault.Deactivate()
	defer plan.Unblock()

	first := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sssp?source=0")
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	// Wait until the solve is actually parked inside the session.
	deadline := time.Now().Add(5 * time.Second)
	for plan.BlockedHits() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if plan.BlockedHits() == 0 {
		t.Fatal("first query never reached the solver")
	}

	resp, err := http.Get(ts.URL + "/sssp?source=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}

	plan.Unblock()
	if err := <-first; err != nil {
		t.Fatalf("blocked query failed after unblock: %v", err)
	}
}
