package wasp

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// CacheOptions configures a Cache. The zero value caches up to 256 MiB
// of distance arrays.
type CacheOptions struct {
	// MaxBytes is the memory budget for cached distance arrays
	// (default 256 MiB). The least-recently-used entry is evicted when
	// an insert would exceed it; a single result larger than the whole
	// budget is served but never stored.
	MaxBytes int64
}

// defaultCacheBytes is CacheOptions.MaxBytes when unset.
const defaultCacheBytes = 256 << 20

// Cache is a pool-level result-reuse layer: completed distance arrays
// are retained as compact in-memory WSCK checkpoints (the
// internal/checkpoint snapshot form — ~4 bytes per vertex) keyed by
// (scope, graph content fingerprint, source) with LRU eviction under
// MaxBytes. One Cache may serve many pools — and, through
// RegistryOptions.Cache, every versioned pool of a Registry.
//
// Two mechanisms stack, cheapest first:
//
//   - Exact hit: a query whose (graph, source) pair was already solved
//     returns the cached distances without touching a session — no
//     admission ticket, no solver work, no copy: a map lookup and a
//     fresh Result header.
//   - Singleflight: concurrent identical queries coalesce onto one
//     in-flight solve; followers wait and share the leader's result
//     (including deadline-degraded partials) instead of computing it
//     K times. A failed leader releases the followers to retry, one of
//     which becomes the new leader.
//
// Any other query is a miss and leads a solve. The cache never seeds
// one from another source's entry: a miss solves cold unless the
// caller brought its own checkpoint (Pool.Resume), which then seeds
// the solve as it would without a cache.
//
// Staleness is impossible by construction: keys embed the graph's
// weight-covering content fingerprint (Graph.WeightFingerprint), so a
// hot-reloaded version — even one identical in shape — can never
// observe a predecessor's entries. InvalidateScope additionally frees
// a retired version's memory promptly and marks its in-flight solves
// do-not-store; the Registry calls it on every reload, rollback and
// removal.
//
// Every distance array the cache holds is an immutable snapshot shared
// by all callers it is served to: exact hits, coalesced followers and
// the flight leader each get their own Result header, but its Dist is
// the array the cache stores. Such a Dist is read-only — safe to keep,
// never overwritten by the cache — and a caller that wants to write to
// it must clone it first. A write is caught by ScrubEntries, which
// re-checks each entry against the hash recorded at insert and evicts
// it on a mismatch.
//
// All methods are safe for concurrent use.
type Cache struct {
	conf CacheOptions

	mu      sync.Mutex
	lru     *list.List // of *cacheEntry, most recent at front
	entries map[cacheKey]*list.Element
	flights map[cacheKey]*flight
	bytes   int64

	hits       atomic.Int64
	misses     atomic.Int64
	coalesced  atomic.Int64
	evicted    atomic.Int64
	warmStarts atomic.Int64
	coldStarts atomic.Int64
	reuseShed  atomic.Int64

	hitLat histogram
}

// cacheKey identifies one cached result. The scope partitions entries
// by deployment (the Registry uses "name@version"); fp, the graph's
// content fingerprint (Graph.WeightFingerprint — it hashes
// directedness, the vertex count and the full CSR, so it covers the
// shape too), pins the exact graph content so two scopes — or two
// graphs behind bare pools sharing one cache — can never alias each
// other's results unless the graphs are bit-identical, in which case
// sharing is correct.
type cacheKey struct {
	scope  string
	fp     uint64
	source uint32
}

// cacheEntry is one stored result. Immutable after insert — hits,
// harvests and scrubs read it without holding the cache lock.
type cacheEntry struct {
	key   cacheKey
	cp    *Checkpoint // complete exact distances; Elapsed is the cumulative solve cost
	sum   uint64      // FNV-1a over cp.Dist at insert; ScrubEntries re-checks it
	algo  Algorithm
	steps int64
	prog  Progress
	size  int64
}

// distSum is the integrity hash recorded per cache entry: FNV-1a over
// the distance words. Entries are immutable after insert, so a scrub
// re-hash that disagrees means the memory rotted underneath or a
// caller wrote through a shared result.
func distSum(dist []uint32) uint64 {
	h := uint64(1469598103934665603)
	for _, d := range dist {
		h ^= uint64(d)
		h *= 1099511628211
	}
	return h
}

// entryOverhead approximates per-entry bookkeeping (entry struct,
// checkpoint header, list element, map slot) charged against MaxBytes
// on top of the distance array.
const entryOverhead = 160

// flight is one in-flight solve under singleflight. res and err are
// written by the leader before close(done) and read by followers after
// <-done (the channel close publishes them).
type flight struct {
	done    chan struct{}
	res     *Result
	err     error
	noStore atomic.Bool // set by InvalidateScope: the scope retired mid-solve
}

// NewCache returns an empty cache with opt applied.
func NewCache(opt CacheOptions) *Cache {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = defaultCacheBytes
	}
	return &Cache{
		conf:    opt,
		lru:     list.New(),
		entries: make(map[cacheKey]*list.Element),
		flights: make(map[cacheKey]*flight),
	}
}

// getOrSolve is the cache's front door, called by Pool.Run and
// Pool.Resume when the pool is cache-backed. callerWarm, when non-nil,
// is the caller's own validated checkpoint (Pool.Resume); it seeds the
// solve on a miss, and a miss without one solves cold. reuseOnly is
// the governor's BrownoutCacheOnly admission: exact hits, coalesced
// followers and caller-seeded misses are served as usual, but a miss
// that would solve cold — the most expensive class of query — sheds
// with ErrOverloaded instead.
func (c *Cache) getOrSolve(ctx context.Context, p *Pool, source Vertex, callerWarm *Checkpoint, reuseOnly bool) (*Result, error) {
	key := cacheKey{scope: p.cacheScope, fp: p.g.WeightFingerprint(), source: uint32(source)}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			ent := el.Value.(*cacheEntry)
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			start := time.Now()
			res := ent.result()
			c.hitLat.record(time.Since(start))
			return res, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
			}
			if f.err == nil {
				// Share the leader's outcome — including a degraded
				// partial: the leader's deadline expiring means ours
				// would have too, and a valid upper-bound snapshot is
				// the contract for that case. The header is ours alone;
				// the distances are shared.
				return copyResult(f.res), nil
			}
			// The leader failed (cancelled, panicked twice, shed).
			// Its error may be private to its context — loop; the
			// first follower through becomes the new leader.
			continue
		}

		if reuseOnly && callerWarm == nil {
			// Brownout cache-only rung: nothing cached and no caller
			// seed, so this query would pay full solve cost. Shed it; no
			// flight is registered, so a later identical query retries
			// cleanly.
			c.mu.Unlock()
			c.reuseShed.Add(1)
			p.shed.Add(1)
			p.gov.observeShed()
			return nil, ErrOverloaded
		}

		// Become the leader.
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.misses.Add(1)
		if callerWarm != nil {
			c.warmStarts.Add(1)
		} else {
			c.coldStarts.Add(1)
		}

		res, err := p.admitAndSolve(ctx, source, callerWarm)

		complete := err == nil && res != nil && res.Complete
		var sum uint64
		if complete {
			sum = distSum(res.Dist) // off the lock: no O(n) pass under c.mu
		}
		c.mu.Lock()
		delete(c.flights, key)
		if complete && !f.noStore.Load() {
			c.insertLocked(p.g, key, res, sum)
		}
		c.mu.Unlock()
		f.res, f.err = res, err
		close(f.done)
		if err == nil && res != nil {
			// f.res is now shared with any followers: hand the leader
			// its own header, so a caller reassigning its Result's
			// fields (the Registry does, on relabeled versions) never
			// touches another caller's.
			return copyResult(res), nil
		}
		return res, err
	}
}

// insertLocked stores a completed result of a solve on g under key and
// evicts from the LRU tail until the budget holds. Called with c.mu
// held; res is the leader's detached result, whose distance array the
// entry keeps as is — from here on it is shared and must not be
// written. sum is distSum(res.Dist), computed before the lock was
// taken.
func (c *Cache) insertLocked(g *Graph, key cacheKey, res *Result, sum uint64) {
	size := int64(4*len(res.Dist)) + entryOverhead
	if size > c.conf.MaxBytes {
		return // larger than the whole budget: serve, don't store
	}
	if el, ok := c.entries[key]; ok {
		// A duplicate solve raced us (e.g. distinct flights before and
		// after an invalidation). Keep the existing entry fresh.
		c.lru.MoveToFront(el)
		return
	}
	ent := &cacheEntry{
		key:   key,
		cp:    stamp(g, key.source, res.Dist),
		sum:   sum,
		algo:  res.Algorithm,
		steps: res.Steps,
		prog:  res.Progress,
		size:  size,
	}
	ent.cp.Elapsed = res.Elapsed
	c.entries[key] = c.lru.PushFront(ent)
	c.bytes += size
	for c.bytes > c.conf.MaxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evicted.Add(1)
	}
}

// removeLocked unlinks one LRU element. Called with c.mu held.
func (c *Cache) removeLocked(el *list.Element) {
	ent := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
}

// result materializes a hit: a fresh Result header whose Dist is the
// entry's own shared, read-only array — no copy. Elapsed stays
// cumulative (the wall time originally paid for these distances, per
// the Result contract) and PriorElapsed carries all of it, so
// Elapsed - PriorElapsed ≈ 0 reflects that this process did no solver
// work.
func (e *cacheEntry) result() *Result {
	return &Result{
		Dist:         e.cp.Dist,
		Elapsed:      e.cp.Elapsed,
		PriorElapsed: e.cp.Elapsed,
		Algorithm:    e.algo,
		Steps:        e.steps,
		Complete:     true,
		Progress:     e.prog,
	}
}

// copyResult gives one caller its own header for a result shared by a
// flight: the fields and Metrics are copied, Dist still points at the
// shared, read-only array.
func copyResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.Metrics != nil {
		m := *r.Metrics
		out.Metrics = &m
	}
	return &out
}

// InvalidateScope drops every cached entry whose scope matches and
// marks matching in-flight solves do-not-store, so nothing keyed to a
// retired deployment lingers in the budget or slips in after it. The
// Registry calls this on reload, rollback and removal; entries were
// already unreachable by the successor version (its scope and
// fingerprint differ), so this is memory hygiene, not a correctness
// requirement. Returns the number of entries dropped.
func (c *Cache) InvalidateScope(scope string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.key.scope == scope {
			c.removeLocked(el)
			dropped++
		}
		el = next
	}
	for key, f := range c.flights {
		if key.scope == scope {
			f.noStore.Store(true)
		}
	}
	return dropped
}

// harvestScope collects the complete exact distance arrays the cache
// holds for one (scope, graph) pair — at most one per source. The
// Registry calls this when mutating a graph, BEFORE activating the
// successor version (activation invalidates the scope): each harvested
// checkpoint is exact on the pre-mutation graph and therefore a legal
// prior for MutationDelta.Seed, turning yesterday's cache hits into
// repaired warm starts on the new version. Entries whose integrity
// hash no longer matches are skipped — a rotted distance array must
// not seed a repair. The returned checkpoints are live cache data:
// read-only for the caller.
func (c *Cache) harvestScope(scope string, fp uint64) []*Checkpoint {
	c.mu.Lock()
	ents := make([]*cacheEntry, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); ent.key.scope == scope && ent.key.fp == fp {
			ents = append(ents, ent)
		}
	}
	c.mu.Unlock()
	cps := make([]*Checkpoint, 0, len(ents))
	for _, ent := range ents {
		if distSum(ent.cp.Dist) != ent.sum {
			continue
		}
		cps = append(cps, ent.cp)
	}
	return cps
}

// ScrubEntries re-validates every resident entry's integrity hash and
// evicts the ones whose distance words no longer hash to the sum
// recorded at insert — in-memory bit rot, or a caller writing through
// a shared result, turned into a clean miss (the next query re-solves)
// instead of a served wrong answer. The O(n)
// re-hashing runs off the cache lock: entries are immutable, so only
// the collection and the removal of failures need it. Returns the
// number of entries scanned and the number evicted as corrupt. The
// Scrubber calls this on its cadence; it is safe to call directly.
func (c *Cache) ScrubEntries() (scanned, corrupt int) {
	c.mu.Lock()
	ents := make([]*cacheEntry, 0, len(c.entries))
	for _, el := range c.entries {
		ents = append(ents, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()

	var bad []*cacheEntry
	for _, ent := range ents {
		scanned++
		if distSum(ent.cp.Dist) != ent.sum {
			bad = append(bad, ent)
		}
	}
	if len(bad) == 0 {
		return scanned, 0
	}
	c.mu.Lock()
	for _, ent := range bad {
		// Remove only if this exact entry is still resident — an
		// eviction or invalidation may have raced the re-hash, and a
		// fresh entry under the same key is not the corrupt one.
		if el, ok := c.entries[ent.key]; ok && el.Value.(*cacheEntry) == ent {
			c.removeLocked(el)
			corrupt++
		}
	}
	c.mu.Unlock()
	return scanned, corrupt
}

// CacheStats is a point-in-time snapshot of a Cache's counters, the
// observability surface behind ssspd's /stats and /metrics.
type CacheStats struct {
	Hits       int64 `json:"hits"`        // exact-hit queries served without a solve
	Misses     int64 `json:"misses"`      // queries that led a solve
	Coalesced  int64 `json:"coalesced"`   // follower waits merged onto an in-flight solve
	Evicted    int64 `json:"evicted"`     // entries dropped by the LRU budget
	WarmStarts int64 `json:"warm_starts"` // misses seeded by the caller's checkpoint (Resume)
	ColdStarts int64 `json:"cold_starts"` // misses solved from scratch
	ReuseShed  int64 `json:"reuse_shed"`  // unseeded misses shed by brownout reuse-only admission

	Entries  int   `json:"entries"`   // resident results
	Bytes    int64 `json:"bytes"`     // resident size charged against the budget
	MaxBytes int64 `json:"max_bytes"` // configured budget

	// HitLatency is the fixed-bucket histogram of exact-hit serve
	// times (the lookup-and-return path; solver time never appears here).
	HitLatency HistogramSnapshot `json:"hit_latency"`
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		Evicted:    c.evicted.Load(),
		WarmStarts: c.warmStarts.Load(),
		ColdStarts: c.coldStarts.Load(),
		ReuseShed:  c.reuseShed.Load(),
		Entries:    entries,
		Bytes:      bytes,
		MaxBytes:   c.conf.MaxBytes,
		HitLatency: c.hitLat.snapshot(),
	}
}

// histogramBounds are the hit-latency bucket upper bounds. A hit is a
// map lookup plus one Result header, whatever the graph's size —
// typically under a microsecond — so the lowest buckets hold the
// steady state; the range still runs to 16ms, with the final bucket
// catching scheduler and GC stalls.
var histogramBounds = [...]time.Duration{
	250 * time.Nanosecond,
	1 * time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1 * time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
}

// histogram is a fixed-bucket latency histogram, lock-free on record.
type histogram struct {
	counts [len(histogramBounds) + 1]atomic.Int64 // last is the overflow bucket
	sum    atomic.Int64                           // nanoseconds
}

func (h *histogram) record(d time.Duration) {
	i := 0
	for ; i < len(histogramBounds); i++ {
		if d <= histogramBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is an immutable view of a histogram: Counts[i] is
// the number of observations ≤ Bounds[i] (and > Bounds[i-1]); the
// final count is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []time.Duration `json:"bounds"`
	Counts []int64         `json:"counts"`
	Sum    time.Duration   `json:"sum"`
	Count  int64           `json:"count"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: histogramBounds[:],
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}
