package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"wasp"
)

// newRegistry builds a single-graph registry the way main does, with
// the graph served under the given name.
func newRegistry(t *testing.T, name string, g *wasp.Graph, ropt wasp.RegistryOptions) *wasp.Registry {
	t.Helper()
	reg := wasp.NewRegistry(ropt)
	if err := reg.LoadGraph(context.Background(), name, g); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(ctx)
	})
	return reg
}

func newTestServer(t *testing.T, popt wasp.PoolOptions) (*server, *httptest.Server) {
	t.Helper()
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 2},
	})
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    popt,
	})
	s := &server{reg: reg}
	return s, newHTTPServer(t, s)
}

func newHTTPServer(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeQuery: the happy path — a complete solve with a target
// distance, reflected in /stats.
func TestServeQuery(t *testing.T) {
	_, ts := newTestServer(t, wasp.PoolOptions{Sessions: 1})

	var q queryResponse
	getJSON(t, ts.URL+"/sssp?source=0&target=2", http.StatusOK, &q)
	if !q.Complete || q.Degraded {
		t.Fatalf("response = %+v, want complete", q)
	}
	if q.Distance == nil || *q.Distance != 3 {
		t.Fatalf("distance = %v, want 3", q.Distance)
	}
	if q.Reached != 3 || q.Settled != 0.75 {
		t.Fatalf("reached %d settled %v, want 3 and 0.75", q.Reached, q.Settled)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Completed != 1 || st.Sessions != 1 || st.Draining {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeQueryCacheHit: with a cache in front of the pool, the
// repeat of an identical query is an exact hit — no second solve —
// and reports the same distance and coverage as the solve. reached
// comes from the stored Progress, not from a scan of the distances.
func TestServeQueryCacheHit(t *testing.T) {
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 2},
	})
	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1},
		Cache:   cache,
	})
	ts := newHTTPServer(t, &server{reg: reg})

	for i := 1; i <= 2; i++ {
		var q queryResponse
		getJSON(t, ts.URL+"/sssp?source=0&target=2", http.StatusOK, &q)
		if !q.Complete || q.Degraded {
			t.Fatalf("query %d: response = %+v, want complete", i, q)
		}
		if q.Distance == nil || *q.Distance != 3 {
			t.Fatalf("query %d: distance = %v, want 3", i, q.Distance)
		}
		if q.Reached != 3 || q.Settled != 0.75 {
			t.Fatalf("query %d: reached %d settled %v, want 3 and 0.75", i, q.Reached, q.Settled)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}
	if st, _ := reg.Stats("test"); st.Completed != 1 {
		t.Fatalf("pool completed %d solves, want 1 (the repeat must be a hit)", st.Completed)
	}
}

// TestServeBadArgs: malformed and out-of-range parameters are 400s,
// never solver work.
func TestServeBadArgs(t *testing.T) {
	s, ts := newTestServer(t, wasp.PoolOptions{Sessions: 1})
	for _, path := range []string{
		"/sssp", "/sssp?source=abc", "/sssp?source=-1",
		"/sssp?source=99", "/sssp?source=0&target=99",
	} {
		getJSON(t, ts.URL+path, http.StatusBadRequest, nil)
	}
	// An unknown graph name is a 404, not solver work.
	getJSON(t, ts.URL+"/sssp?source=0&graph=nope", http.StatusNotFound, nil)
	if st := s.state(); st.Completed+st.Shed != 0 {
		t.Fatalf("bad args reached the pool: %+v", st)
	}
}

// TestServeTargetAcrossShrinkingReload: /sssp range-checks target
// against the Status it read before the solve, and a hot reload may
// swap in a smaller graph in between. Reloads alternate the graph
// between 8 and 4 vertices under target=7 traffic: every answer must be
// 200 or 400 — an index past the result would panic the handler and
// drop the connection.
func TestServeTargetAcrossShrinkingReload(t *testing.T) {
	path := func(n int) *wasp.Graph {
		edges := make([]wasp.Edge, 0, n-1)
		for i := 0; i < n-1; i++ {
			edges = append(edges, wasp.Edge{From: wasp.Vertex(i), To: wasp.Vertex(i + 1), W: 1})
		}
		return wasp.FromEdges(n, true, edges)
	}
	big, small := path(8), path(4)
	reg := newRegistry(t, "test", big, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 1},
		Pool:    wasp.PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 10 * time.Second},
	})
	ts := newHTTPServer(t, &server{reg: reg})

	stop := make(chan struct{})
	reloaded := make(chan struct{})
	go func() {
		defer close(reloaded)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := small
			if i%2 == 1 {
				g = big
			}
			if err := reg.LoadGraph(context.Background(), "test", g); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 500 requests per client hit the reload window every run
			// when the guard is removed.
			for i := 0; i < 500; i++ {
				resp, err := http.Get(ts.URL + "/sssp?source=0&target=7")
				if err != nil {
					t.Errorf("request %d dropped: %v", i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
					t.Errorf("request %d: status %d, want 200 or 400", i, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-reloaded
}

// TestServeDrain: drain flips /healthz/ready to 503, rejects new
// queries with 503, closes the pool, and leaks no goroutines — the
// in-process half of the SIGTERM acceptance criterion (the CI smoke
// test covers the real-signal half).
func TestServeDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, wasp.PoolOptions{Sessions: 2, QueueDepth: 2})

	getJSON(t, ts.URL+"/healthz/ready", http.StatusOK, nil)
	getJSON(t, ts.URL+"/sssp?source=0", http.StatusOK, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	getJSON(t, ts.URL+"/healthz/ready", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/sssp?source=0", http.StatusServiceUnavailable, nil)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if !st.Draining || st.Completed != 1 {
		t.Fatalf("stats after drain = %+v", st)
	}

	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}
