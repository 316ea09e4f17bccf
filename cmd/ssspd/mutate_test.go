package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wasp"
)

// mutateChain builds the daemon-under-test for mutation tests: a
// 16-vertex weight-1 chain named "g", fronted by a cache and a
// full-rate synchronous auditor so every served result — incremental
// ones included — is certified before the response leaves the handler.
func newMutateServer(t *testing.T) (*server, *httptest.Server, *wasp.Registry, *wasp.Cache) {
	t.Helper()
	const n = 16
	edges := make([]wasp.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, wasp.Edge{From: wasp.Vertex(i), To: wasp.Vertex(i + 1), W: 1})
	}
	g := wasp.FromEdges(n, true, edges)

	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 2, QueueDepth: 16, QueueWait: 5 * time.Second},
		Cache:   cache,
		Audit:   &wasp.AuditorOptions{SampleRate: 1},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(ctx)
	})
	if err := reg.LoadGraph(context.Background(), "g", g); err != nil {
		t.Fatal(err)
	}
	s := &server{reg: reg}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts, reg, cache
}

func patchJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func queryDistance(t *testing.T, base string, source, target int) uint32 {
	t.Helper()
	var out struct {
		Complete bool    `json:"complete"`
		Distance *uint32 `json:"distance"`
	}
	getJSON(t, fmt.Sprintf("%s/sssp?graph=g&source=%d&target=%d", base, source, target), http.StatusOK, &out)
	if !out.Complete || out.Distance == nil {
		t.Fatalf("query source=%d target=%d: incomplete or missing distance", source, target)
	}
	return *out.Distance
}

// TestDaemonGraphMutate: the PATCH endpoint end to end — apply a
// batch, version bump, distances change, metrics advance, and the
// synchronous auditor certifies the post-mutation (incremental) result
// that the repaired warm seed produced.
func TestDaemonGraphMutate(t *testing.T) {
	_, ts, reg, _ := newMutateServer(t)
	const n = 16

	if got := queryDistance(t, ts.URL, 0, n-1); got != n-1 {
		t.Fatalf("pre-mutation distance = %d, want %d", got, n-1)
	}

	status, body := patchJSON(t, ts.URL+"/graph?graph=g", `{"mutations":[
		{"op":"set-weight","from":0,"to":1,"weight":5},
		{"op":"insert","from":0,"to":3,"weight":1},
		{"op":"delete","from":3,"to":4}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("PATCH status %d: %s", status, body)
	}
	var resp mutationResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad response %q: %v", body, err)
	}
	if resp.Version != 2 || resp.Applied != 3 {
		t.Fatalf("response = %+v, want version 2 with 3 applied", resp)
	}
	if resp.Kinds["insert"] != 1 || resp.Kinds["delete"] != 1 || resp.Kinds["set-weight"] != 1 {
		t.Fatalf("per-kind counts = %v", resp.Kinds)
	}
	if resp.Edges != 15 { // 15 - 1 deleted + 1 inserted
		t.Fatalf("edges = %d, want 15", resp.Edges)
	}

	// 0->3 now costs 1; 3->4 is gone, so 4..15 are unreachable.
	if got := queryDistance(t, ts.URL, 0, 3); got != 1 {
		t.Fatalf("post-mutation distance to 3 = %d, want 1", got)
	}
	if got := queryDistance(t, ts.URL, 0, n-1); got != wasp.Infinity {
		t.Fatalf("post-mutation distance to %d = %d, want Infinity (edge deleted)", n-1, got)
	}

	// Every served result above went through the synchronous full-rate
	// auditor; the incremental ones must have certified clean.
	as := reg.Auditor().Stats()
	if as.Sampled == 0 || as.Failed != 0 {
		t.Fatalf("auditor stats = %+v, want sampled > 0 with zero failures", as)
	}
	if reg.Quarantined() != 0 {
		t.Fatal("mutation traffic triggered a quarantine")
	}

	// The mutation shows up in /metrics: per-kind counters, the update
	// latency histogram, and the reload-outcome family.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metrics := string(mb)
	for _, want := range []string{
		`ssspd_mutations_total{kind="insert"} 1`,
		`ssspd_mutations_total{kind="delete"} 1`,
		`ssspd_mutations_total{kind="set-weight"} 1`,
		`ssspd_mutation_duration_seconds_count 1`,
		`ssspd_reloads_total{outcome="mutated"} 1`,
		`ssspd_graph_version{graph="g"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonGraphMutateErrors: every malformed request is rejected
// without touching the serving version.
func TestDaemonGraphMutateErrors(t *testing.T) {
	_, ts, reg, _ := newMutateServer(t)

	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"empty-batch", "/graph?graph=g", `{"mutations":[]}`, http.StatusBadRequest},
		{"bad-json", "/graph?graph=g", `{`, http.StatusBadRequest},
		{"unknown-op", "/graph?graph=g", `{"mutations":[{"op":"upsert","from":0,"to":1,"weight":1}]}`, http.StatusBadRequest},
		{"missing-weight", "/graph?graph=g", `{"mutations":[{"op":"insert","from":0,"to":5}]}`, http.StatusBadRequest},
		{"negative-vertex", "/graph?graph=g", `{"mutations":[{"op":"delete","from":-1,"to":1}]}`, http.StatusBadRequest},
		// 2^32 must not wrap onto vertex 0 and re-weight edge (0,1).
		{"vertex-above-uint32", "/graph?graph=g", `{"mutations":[{"op":"set-weight","from":4294967296,"to":1,"weight":100}]}`, http.StatusBadRequest},
		{"absent-edge", "/graph?graph=g", `{"mutations":[{"op":"delete","from":0,"to":9}]}`, http.StatusUnprocessableEntity},
		{"duplicate-edge", "/graph?graph=g", `{"mutations":[{"op":"delete","from":0,"to":1},{"op":"set-weight","from":0,"to":1,"weight":2}]}`, http.StatusUnprocessableEntity},
		{"unknown-graph", "/graph?graph=nope", `{"mutations":[{"op":"delete","from":0,"to":1}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		if status, body := patchJSON(t, ts.URL+tc.url, tc.body); status != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, strings.TrimSpace(body), tc.status)
		}
	}

	// GET on /graph is not allowed.
	resp, err := http.Get(ts.URL + "/graph?graph=g")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /graph status %d, want 405", resp.StatusCode)
	}

	// Nothing above may have advanced the version.
	if st, ok := reg.Status("g"); !ok || st.Version != 1 {
		t.Fatalf("status after rejected batches = %+v, want version 1", st)
	}
	if got := queryDistance(t, ts.URL, 0, 15); got != 15 {
		t.Fatalf("distance after rejected batches = %d, want 15", got)
	}
}
