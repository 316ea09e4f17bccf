package wasp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wasp/internal/bundle"
	"wasp/internal/fault"
)

// ErrNoSuchGraph is returned by Registry.Run (and friends) when the
// named graph has never been loaded, or has been removed.
var ErrNoSuchGraph = errors.New("wasp: no such graph")

// ErrRegistryClosed is returned once Registry.Close has begun.
var ErrRegistryClosed = errors.New("wasp: registry closed")

// ErrQuarantined is returned (wrapped, with the graph name and
// version) by Registry.Run and Resume while the named graph's active
// version is quarantined after a failed result audit. The graph heals
// by deploying a new version (Load) or rolling back to a retired one.
var ErrQuarantined = errors.New("wasp: graph version quarantined")

// GraphState describes a served graph's position in the reload
// lifecycle. Individual versions move loading → validating → active →
// draining → retired; the per-graph state is what a readiness probe
// wants: is the name servable, and is its most recent deployment
// healthy?
type GraphState string

const (
	// GraphServing: the latest accepted version is active and admitting
	// queries.
	GraphServing GraphState = "serving"
	// GraphReloading: a new version is loading or validating. The
	// previous version (if any) keeps serving throughout.
	GraphReloading GraphState = "reloading"
	// GraphDegradedLastGood: the most recent load or rollback was
	// rejected; the last good version is still serving. Not an outage —
	// a signal that the newest bundle never activated.
	GraphDegradedLastGood GraphState = "degraded-last-good"
	// GraphQuarantined: a sampled result audit failed on the active
	// version, so the registry took it out of rotation — its pool is
	// drained, its cache scope invalidated, and queries return
	// ErrQuarantined until a Load or Rollback activates a replacement.
	// Unlike GraphDegradedLastGood there is no silent fallback: wrong
	// answers are worse than no answers.
	GraphQuarantined GraphState = "quarantined"
)

// RegistryOptions configures a Registry. The zero value serves with
// single-session pools and keeps 2 rollback versions. Every candidate
// version must pass a smoke solve within smokeTimeout (5s).
type RegistryOptions struct {
	// Options configures the sessions of every per-graph pool.
	Options Options
	// Pool configures every per-graph pool's admission behavior. The
	// registry sets each pool's Cache, CacheScope and Auditor itself,
	// from Cache and Audit below; a load fails when Pool.Cache or
	// Pool.Auditor is set, since no swap would invalidate such a cache
	// and no failed audit of such an auditor would quarantine.
	Pool PoolOptions
	// Cache, when non-nil, fronts every per-graph pool with one shared
	// result-reuse layer (see Cache); it is the only way to give a
	// registry's pools a cache. Each version's entries are scoped to
	// "name@version" and additionally keyed by the graph's content
	// fingerprint, so a hot reload — even to a bundle identical in
	// shape — can never serve a predecessor's distances; retiring a
	// version (reload, rollback, removal) invalidates its scope
	// atomically with the swap. As on a cache-backed Pool, results of
	// a non-relabeled version are read-only shared snapshots: clone
	// Dist before writing to it.
	Cache *Cache
	// ConfigureOptions, when non-nil, customizes Options per deployment
	// — called once while building each candidate version's pool, before
	// the smoke solve. The canonical use is binding per-graph sinks
	// (checkpoint files keyed by graph name) without a second registry.
	ConfigureOptions func(name string, version uint64, opt Options) Options
	// History is how many retired versions each graph retains for
	// explicit rollback (default 2). Retired versions hold their graph
	// and artifacts but no pool; rollback rebuilds one.
	History int
	// DrainTimeout bounds how long a replaced version's pool may spend
	// draining in-flight queries in the background (default 30s); past
	// it the drain goroutine abandons the wait (solves still finish,
	// nothing is interrupted — the bound only stops the bookkeeping
	// goroutine from waiting forever on a wedged solve).
	DrainTimeout time.Duration
	// OnEvent, when non-nil, observes every lifecycle transition —
	// loads, rejections, rollbacks, removals, quarantines —
	// synchronously with the transition. Keep it brief; it runs inside
	// the reload path or (for EventQuarantined) the audit path, never
	// inside the query path.
	OnEvent func(RegistryEvent)
	// Audit, when non-nil, builds a registry-owned Auditor spanning
	// every per-graph pool; it is the only way to audit a registry's
	// pools. The configured fraction of served results is certified
	// from first principles, and a failed audit quarantines the failing
	// version — pool drained, cache scope invalidated, state
	// GraphQuarantined, queries ErrQuarantined — before the configured
	// OnFailure hook (if any) runs. The auditor is closed by
	// Registry.Close.
	Audit *AuditorOptions
}

// RegistryEvent describes one lifecycle transition for logging/metrics.
type RegistryEvent struct {
	Graph   string
	Version uint64
	Kind    RegistryEventKind
	Err     error // non-nil for EventRejected
}

// RegistryEventKind enumerates lifecycle transitions.
type RegistryEventKind string

const (
	// EventLoaded: a new version was validated and activated.
	EventLoaded RegistryEventKind = "loaded"
	// EventRejected: a candidate failed validation or activation; the
	// last good version keeps serving.
	EventRejected RegistryEventKind = "rejected"
	// EventRolledBack: an explicit rollback re-activated a retired
	// version.
	EventRolledBack RegistryEventKind = "rolled-back"
	// EventRemoved: the graph was removed from the registry.
	EventRemoved RegistryEventKind = "removed"
	// EventNoop: a load carried the version already active.
	EventNoop RegistryEventKind = "noop"
	// EventQuarantined: a failed result audit took the active version
	// out of rotation. Err carries the certificate violation.
	EventQuarantined RegistryEventKind = "quarantined"
	// EventMutated: a mutation batch produced and activated a
	// successor version of the graph.
	EventMutated RegistryEventKind = "mutated"
)

// GraphStatus is a point-in-time description of one served graph.
type GraphStatus struct {
	Name    string     `json:"name"`
	Version uint64     `json:"version"`
	State   GraphState `json:"state"`

	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	Directed bool  `json:"directed"`
	// WeightFP is the active version's weight-covering content
	// fingerprint (Graph.WeightFingerprint) — the identity that keys
	// result caching and warm-start seeds.
	WeightFP uint64 `json:"weight_fp,omitempty"`
	// Relabeled reports whether the active version serves through a
	// locality relabeling permutation (queries are translated in and
	// results translated back automatically).
	Relabeled bool `json:"relabeled"`
	// WarmSources is the number of sources the active version answers
	// warm, from the repair seeds Mutate built out of its predecessor's
	// cached answers (zero for a version deployed by Load, LoadGraph or
	// Rollback).
	WarmSources int `json:"warm_sources"`

	// LastError is the most recent rejection's message, empty after a
	// successful load.
	LastError string `json:"last_error,omitempty"`
	// History lists the retired versions available to Rollback, newest
	// first.
	History []uint64 `json:"history,omitempty"`
}

// RegistryReloadStats counts reload outcomes across all graphs.
type RegistryReloadStats struct {
	Loaded     int64 `json:"loaded"`
	Rejected   int64 `json:"rejected"`
	RolledBack int64 `json:"rolled_back"`
	Noop       int64 `json:"noop"`
	Mutated    int64 `json:"mutated"`
}

// graphVersion is one immutable deployment of one graph — the
// candidate every deploy path hands to deploy. While active it owns a
// Pool; once retired the pool is drained and dropped (under the
// registry lock) and the history keeps a copy holding the graph and
// permutation alone, so Rollback can redeploy the version, with a
// fresh pool, without re-reading the bundle. The warm seeds are not
// kept: a rolled-back version answers cold until its cache refills.
type graphVersion struct {
	version uint64
	g       *Graph
	pool    *Pool                  // guarded by Registry.mu; nil once retired
	perm    []Vertex               // old→new relabeling; nil when identity
	warm    map[uint32]*Checkpoint // Mutate repair seeds, by source; nil for other deploys
	// quarantined marks a version that failed a result audit; set under
	// Registry.mu by quarantineScope and never cleared — the version
	// must stay out of the rollback history when it is later replaced.
	quarantined bool
}

// graphEntry is the mutable per-name record: the active version, the
// bounded rollback history, and the reload state machine.
type graphEntry struct {
	name string
	// loadMu serializes loads/rollbacks/removals of this graph without
	// blocking other graphs or any query.
	loadMu sync.Mutex

	active  *graphVersion
	history []*graphVersion // retired, oldest first
	state   GraphState
	lastErr error

	// counters is fed by every version's pool, so Stats reports one
	// series per graph name across reloads, mutations and rollbacks.
	counters poolCounters
}

// Registry is a set of named, versioned graphs, each served by its own
// Pool, with crash-safe atomic hot-reload: a new version of a graph is
// fully loaded, validated (structure, fingerprints, artifacts) and
// smoke-solved before it atomically replaces the old one; in-flight
// queries drain on the old pool while new admissions route to the new
// one; and any failure along the way rejects the candidate with the
// last good version still serving. A bounded per-graph history enables
// explicit rollback.
//
// The Registry is the embeddable SDK front door to multi-graph serving
// — cmd/ssspd is one consumer, wiring it to an on-disk bundle
// directory, but nothing in the API assumes a daemon.
type Registry struct {
	conf RegistryOptions

	auditor *Auditor // nil unless conf.Audit was set; owned by the registry

	mu     sync.RWMutex
	graphs map[string]*graphEntry
	closed bool

	loaded      atomic.Int64
	rejected    atomic.Int64
	rolledBack  atomic.Int64
	noop        atomic.Int64
	quarantined atomic.Int64
	mutated     atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry(conf RegistryOptions) *Registry {
	if conf.History <= 0 {
		conf.History = 2
	}
	if conf.DrainTimeout <= 0 {
		conf.DrainTimeout = 30 * time.Second
	}
	r := &Registry{conf: conf, graphs: make(map[string]*graphEntry)}
	if conf.Audit != nil {
		// The registry interposes on OnFailure: quarantine first, then
		// the user's hook observes a failure already acted upon.
		aopt := *conf.Audit
		user := aopt.OnFailure
		aopt.OnFailure = func(f AuditFailure) {
			r.quarantineScope(f.Scope, f.Err)
			if user != nil {
				user(f)
			}
		}
		r.auditor = NewAuditor(aopt)
	}
	return r
}

// Auditor returns the registry-owned auditor built from
// RegistryOptions.Audit, or nil when auditing is not configured —
// the stats feed behind a daemon's audit metrics.
func (r *Registry) Auditor() *Auditor { return r.auditor }

func (r *Registry) event(ev RegistryEvent) {
	if r.conf.OnEvent != nil {
		r.conf.OnEvent(ev)
	}
}

// Load validates b and atomically activates it as the new version of
// its graph. On any failure — manifest, structure, artifact binding,
// pool construction, smoke solve — the bundle is rejected, the error
// returned, and the previously active version (if any) keeps serving
// untouched. A bundle carrying the already-active version is a no-op.
func (r *Registry) Load(ctx context.Context, b *Bundle) error {
	return r.load(ctx, b, false)
}

// LoadFile reads, validates and activates the bundle at path.
func (r *Registry) LoadFile(ctx context.Context, path string) (name string, version uint64, err error) {
	b, err := bundle.Load(path)
	if err != nil {
		r.rejected.Add(1)
		r.event(RegistryEvent{Kind: EventRejected, Err: err})
		return "", 0, err
	}
	return b.Manifest.Name, b.Manifest.Version, r.Load(ctx, b)
}

// LoadGraph activates g under name without an on-disk bundle — the
// single-graph and testing convenience. The version is one past the
// currently active one (1 for a new name).
func (r *Registry) LoadGraph(ctx context.Context, name string, g *Graph) error {
	return r.load(ctx, &Bundle{Manifest: BundleManifest{Name: name}, Graph: g}, true)
}

// load validates b and deploys it under its graph's load lock. With
// next set the version is chosen under that lock too — one past the
// active one — so concurrent LoadGraph calls never pick the same one.
func (r *Registry) load(ctx context.Context, b *Bundle, next bool) error {
	if b == nil {
		return fmt.Errorf("wasp: Load of nil bundle")
	}
	b.Normalize()
	if err := b.Validate(); err != nil {
		// No entry to degrade: a bundle that cannot even name itself
		// consistently never reaches a graphEntry.
		r.rejected.Add(1)
		r.event(RegistryEvent{Graph: b.Manifest.Name, Version: b.Manifest.Version, Kind: EventRejected, Err: err})
		return err
	}
	name := b.Manifest.Name
	e, err := r.entry(name, true)
	if err != nil {
		return err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()

	r.mu.Lock()
	if next {
		b.Manifest.Version = 1
		if e.active != nil {
			b.Manifest.Version = e.active.version + 1
		}
	}
	version := b.Manifest.Version
	// Re-loading the active version is a no-op — unless that version is
	// quarantined, in which case the same bundle is a legitimate heal:
	// the corruption was runtime state, not the artifact, and a fresh
	// build replaces the poisoned pool.
	if e.active != nil && e.active.version == version && e.state != GraphQuarantined {
		r.mu.Unlock()
		r.noop.Add(1)
		r.event(RegistryEvent{Graph: name, Version: version, Kind: EventNoop})
		return nil
	}
	r.mu.Unlock()

	v := &graphVersion{version: version, g: b.Graph}
	if len(b.Relabel) > 0 {
		v.perm = b.Relabel
	}
	if err := r.deploy(ctx, e, v, EventLoaded); err != nil {
		return fmt.Errorf("wasp: bundle %q v%d rejected: %w", name, version, err)
	}
	r.loaded.Add(1)
	return nil
}

// entry returns (creating, when create is set) the record for name.
func (r *Registry) entry(name string, create bool) (*graphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	e := r.graphs[name]
	if e == nil {
		if !create {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchGraph, name)
		}
		e = &graphEntry{name: name, state: GraphReloading}
		r.graphs[name] = e
	}
	return e, nil
}

// smokeTimeout bounds the validation solve a candidate version must
// pass before it can activate.
const smokeTimeout = 5 * time.Second

// deploy is the one deploy path: Load, LoadGraph, Rollback and Mutate
// hand it their candidate version with e.loadMu held. The entry reports
// GraphReloading while the candidate's pool is built and smoke-solved.
// A viable candidate is activated as kind. A failed one is rejected —
// counted, emitted, its error returned — and the entry returns to its
// previous state: a serving graph becomes degraded-last-good (its
// newest deployment never activated), while a quarantined graph stays
// quarantined and a never-activated one stays reloading, since in
// neither case does anything serve.
func (r *Registry) deploy(ctx context.Context, e *graphEntry, v *graphVersion, kind RegistryEventKind) error {
	r.mu.Lock()
	prev := e.state
	e.state = GraphReloading
	r.mu.Unlock()

	pool, err := r.build(ctx, e, v)
	if err != nil {
		r.mu.Lock()
		e.lastErr = err
		// A failed audit may have quarantined the active version while
		// the candidate was building; that state stands.
		if e.state == GraphReloading {
			if prev == GraphServing {
				prev = GraphDegradedLastGood
			}
			e.state = prev
		}
		r.mu.Unlock()
		r.rejected.Add(1)
		r.event(RegistryEvent{Graph: e.name, Version: v.version, Kind: EventRejected, Err: err})
		return err
	}

	// The candidate is viable. A crash from here to the swap must leave
	// a restarted process on a consistent version — which it does,
	// because activation is in-memory only: the bundle file the caller
	// loaded is already durably in place, and a restart either loads it
	// (crash after the producer's rename) or the previous one. The
	// injection point lets the stress suite kill the process exactly
	// here.
	fault.Inject(fault.RegistrySwap, 0)

	r.activate(e, v, pool, kind)
	return nil
}

// build constructs v's pool, feeding e's counters, and proves v out
// with a bounded smoke solve. The smoke runs as a one-shot direct
// solve rather than through the candidate pool, so a deployment never
// pollutes the graph's operator-facing counters, latency histograms or
// checkpoint files with synthetic work (RunContext ignores the
// checkpoint options); pool construction itself (newPool preallocates
// and validates every session) covers the admission machinery.
func (r *Registry) build(ctx context.Context, e *graphEntry, v *graphVersion) (*Pool, error) {
	// Only a registry-owned cache is invalidated on a swap and harvested
	// by Mutate, and only a registry-owned auditor quarantines.
	switch {
	case r.conf.Pool.Cache != nil:
		return nil, fmt.Errorf("wasp: a Registry does not take PoolOptions.Cache (no swap would invalidate it); set RegistryOptions.Cache")
	case r.conf.Pool.Auditor != nil:
		return nil, fmt.Errorf("wasp: a Registry does not take PoolOptions.Auditor (no failed audit would quarantine); set RegistryOptions.Audit")
	}
	opt := r.conf.Options
	if r.conf.ConfigureOptions != nil {
		opt = r.conf.ConfigureOptions(e.name, v.version, opt)
	}
	popt := r.conf.Pool
	popt.Cache = r.conf.Cache
	// The scope keys cache entries when a cache is attached and names
	// the deployment in audit failures (the identity quarantineScope
	// resolves) either way.
	popt.CacheScope = cacheScopeFor(e.name, v.version)
	popt.Auditor = r.auditor
	pool, err := newPool(v.g, opt, popt, &e.counters)
	if err != nil {
		return nil, fmt.Errorf("building pool: %w", err)
	}
	sctx, cancel := context.WithTimeout(ctx, smokeTimeout)
	res, err := RunContext(sctx, v.g, 0, opt)
	cancel()
	if err != nil || res == nil {
		r.retire(pool, popt.CacheScope)
		return nil, fmt.Errorf("smoke solve: %w", err)
	}
	return pool, nil
}

// activate commits v, serving through pool, as e's active version (the
// atomic swap): new admissions route to v immediately, the replaced
// version drains in the background and is retired into the bounded
// history, and a rollback target leaves that history. The retired
// version's pool pointer is severed under the registry lock — a query
// that captured it before the swap finishes (or gets ErrPoolClosed and
// retries); a query routing after the swap only ever sees v.
func (r *Registry) activate(e *graphEntry, v *graphVersion, pool *Pool, kind RegistryEventKind) {
	r.mu.Lock()
	old := e.active
	var oldPool *Pool
	v.pool = pool
	e.active = v
	e.state = GraphServing
	e.lastErr = nil
	if n := len(e.history); n > 0 && e.history[n-1] == v {
		e.history = e.history[:n-1]
	}
	if old != nil {
		oldPool, old.pool = old.pool, nil
		if old.quarantined {
			// A quarantined version served wrong answers: dropping it
			// instead of retiring it keeps Rollback from ever rolling
			// forward onto it. Its quarantine already retired its pool.
			old = nil
		} else {
			// History keeps what Rollback redeploys, the graph and the
			// permutation; the warm seeds, held outside the cache budget,
			// stay with the live struct that in-flight queries may read.
			e.history = append(e.history, &graphVersion{version: old.version, g: old.g, perm: old.perm})
			if drop := len(e.history) - r.conf.History; drop > 0 {
				e.history = append([]*graphVersion(nil), e.history[drop:]...)
			}
		}
	}
	r.mu.Unlock()

	if old != nil {
		// The retired version's entries were already unreachable by v
		// (scope and content fingerprint both differ); invalidating
		// them with the swap frees their memory.
		r.retire(oldPool, cacheScopeFor(e.name, old.version))
	}
	r.event(RegistryEvent{Graph: e.name, Version: v.version, Kind: kind})
}

// retire takes a pool that no route reaches any more out of service:
// it drops the cache entries of the pool's scope, marks the scope's
// in-flight cache solves do-not-store, and drains the pool in the
// background. In-flight queries finish on it (Pool.Close waits for
// them); DrainTimeout only stops the goroutine from waiting forever on
// a wedged solve. activate, quarantineScope and build's rejected
// candidate all retire through it. A nil pool only has its scope
// invalidated.
func (r *Registry) retire(pool *Pool, scope string) {
	if r.conf.Cache != nil {
		r.conf.Cache.InvalidateScope(scope)
	}
	if pool == nil {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), r.conf.DrainTimeout)
		defer cancel()
		_ = pool.Close(ctx)
	}()
}

// cacheScopeFor is the cache-entry scope of one deployment: embedding
// the version means a reload re-keys rather than overwrites, and
// InvalidateScope on retirement is hygiene rather than correctness.
func cacheScopeFor(name string, version uint64) string {
	return fmt.Sprintf("%s@%d", name, version)
}

// quarantineScope takes the deployment identified by scope out of
// rotation after a failed result audit: the pool is severed and
// drained, the cache scope invalidated (a corrupt result may have been
// stored), the entry's state set to GraphQuarantined, and the event
// emitted. The quarantined version is NOT retired into the rollback
// history — an operator must never roll forward onto a version that
// served wrong answers. A scope that no longer names an active version
// (already replaced, already quarantined, removed) is a no-op: the
// corrupt deployment is gone either way.
func (r *Registry) quarantineScope(scope string, cause error) {
	r.mu.Lock()
	var e *graphEntry
	for _, ge := range r.graphs {
		if ge.active != nil && ge.active.pool != nil &&
			cacheScopeFor(ge.name, ge.active.version) == scope {
			e = ge
			break
		}
	}
	if e == nil {
		r.mu.Unlock()
		return
	}
	v := e.active
	var oldPool *Pool
	oldPool, v.pool = v.pool, nil
	v.quarantined = true
	e.state = GraphQuarantined
	e.lastErr = fmt.Errorf("%w: audit failed: %v", ErrQuarantined, cause)
	r.mu.Unlock()

	r.quarantined.Add(1)
	// The corrupt result may already be cached (the flip lands before
	// the cache insert); every entry of the version is now suspect.
	r.retire(oldPool, scope)
	r.event(RegistryEvent{Graph: e.name, Version: v.version, Kind: EventQuarantined, Err: cause})
}

// Quarantined counts quarantine transitions since construction — the
// feed behind a daemon's ssspd_quarantined alerting.
func (r *Registry) Quarantined() int64 { return r.quarantined.Load() }

// Rollback re-activates the most recently retired version of name: a
// fresh pool is built from the retained graph and permutation, smoke-
// solved, and swapped in exactly like a load. Warm seeds are not
// retained, so the version answers cold until its cache refills. The
// rolled-back-from version enters the history, so rolling forward
// again is possible. Returns the version now serving.
func (r *Registry) Rollback(ctx context.Context, name string) (uint64, error) {
	e, err := r.entry(name, false)
	if err != nil {
		return 0, err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()

	r.mu.Lock()
	if len(e.history) == 0 {
		cur := uint64(0)
		if e.active != nil {
			cur = e.active.version
		}
		r.mu.Unlock()
		return cur, fmt.Errorf("wasp: graph %q has no retired version to roll back to", name)
	}
	target := e.history[len(e.history)-1]
	r.mu.Unlock()

	// The retired version kept its graph and permutation: redeploying
	// it builds a fresh pool, and activation pops it from the history.
	if err := r.deploy(ctx, e, target, EventRolledBack); err != nil {
		return 0, fmt.Errorf("wasp: rollback of %q to v%d rejected: %w", name, target.version, err)
	}
	r.rolledBack.Add(1)
	return target.version, nil
}

// Mutate applies a mutation batch to name's active graph and activates
// the result as the successor version — the same validated, smoke-
// solved, atomically-swapped path a bundle reload takes, so a batch
// that produces an unservable graph is rejected whole and the
// pre-mutation version keeps serving. The content fingerprint advances
// with the batch, which keeps every downstream consumer sound: cache
// entries, checkpoints and audit certificates all key on it, so a
// pre-mutation artifact can never satisfy a post-mutation query.
//
// Before the swap, the retiring version's complete cached results are
// harvested and repaired through MutationDelta.Seed into warm
// checkpoints for the successor: the first post-mutation query for a
// previously hot source resumes from the repaired seed instead of
// solving cold (when the configuration supports warm starts). Returns
// the version now serving and the applied delta.
//
// Mutation batches address original vertex ids, so deployments serving
// relabeled ids are rejected. Growing the vertex set is a bundle
// reload, not a mutation.
func (r *Registry) Mutate(ctx context.Context, name string, batch []Mutation) (uint64, *MutationDelta, error) {
	e, err := r.entry(name, false)
	if err != nil {
		return 0, nil, err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()

	r.mu.Lock()
	v := e.active
	if v == nil {
		state := e.state
		r.mu.Unlock()
		return 0, nil, fmt.Errorf("wasp: graph %q has no active version to mutate (state %q)", name, state)
	}
	if v.quarantined {
		r.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %q", ErrQuarantined, name)
	}
	if v.perm != nil {
		r.mu.Unlock()
		return 0, nil, fmt.Errorf("wasp: graph %q v%d serves relabeled vertex ids; mutations address original ids and are not supported on relabeled deployments", name, v.version)
	}
	r.mu.Unlock()

	ng, delta, err := ApplyMutations(v.g, batch)
	if err != nil {
		// A malformed batch is the caller's input error, not a failed
		// deployment: the active version never stopped being good.
		return 0, nil, err
	}

	// Harvest the retiring version's complete cached results BEFORE
	// activation invalidates its scope, and repair each into a warm
	// checkpoint stamped with the successor's fingerprint. Only cache
	// entries qualify as repair priors: they are exact finished solves.
	warm := map[uint32]*Checkpoint{}
	if r.conf.Cache != nil {
		for _, cp := range r.conf.Cache.harvestScope(cacheScopeFor(name, v.version), v.g.WeightFingerprint()) {
			if repaired, err := delta.Seed(Vertex(cp.Source), cp.Dist); err == nil {
				warm[repaired.Source] = repaired
			}
		}
	}
	next := &graphVersion{version: v.version + 1, g: ng, warm: warm}
	if err := r.deploy(ctx, e, next, EventMutated); err != nil {
		return 0, nil, fmt.Errorf("wasp: mutation of %q to v%d rejected: %w", name, next.version, err)
	}
	r.mutated.Add(1)
	return next.version, delta, nil
}

// Remove drains and drops name. Queries racing the removal get
// ErrPoolClosed (if already admitted to the draining pool they finish
// normally); subsequent queries get ErrNoSuchGraph.
func (r *Registry) Remove(ctx context.Context, name string) error {
	e, err := r.entry(name, false)
	if err != nil {
		return err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()

	r.mu.Lock()
	active := e.active
	var pool *Pool
	version := uint64(0)
	if active != nil {
		pool, active.pool = active.pool, nil
		version = active.version
	}
	e.active = nil
	e.history = nil
	delete(r.graphs, name)
	r.mu.Unlock()

	if active != nil && r.conf.Cache != nil {
		r.conf.Cache.InvalidateScope(cacheScopeFor(name, version))
	}
	if pool != nil {
		if err := pool.Close(ctx); err != nil {
			return err
		}
	}
	r.event(RegistryEvent{Graph: name, Version: version, Kind: EventRemoved})
	return nil
}

// activeVersion resolves name to its currently serving version and
// that version's pool, read together under the lock (the pool pointer
// is severed under the same lock on retirement).
func (r *Registry) activeVersion(name string) (*graphVersion, *Pool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.graphs[name]
	if e == nil || e.active == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchGraph, name)
	}
	if e.state == GraphQuarantined {
		return nil, nil, fmt.Errorf("%w: %q v%d", ErrQuarantined, name, e.active.version)
	}
	return e.active, e.active.pool, nil
}

// closedOr translates the ErrPoolClosed a query hits on a
// closed-but-still-attached pool into ErrRegistryClosed after Close
// (pools stay attached so Stats keeps reporting final counters), and
// passes err through otherwise.
func (r *Registry) closedOr(err error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrRegistryClosed
	}
	return err
}

// Run solves SSSP on the named graph's active version, in original
// vertex ids: when the version serves a relabeled graph the source is
// translated in and the distance array translated back, and when a
// Mutate left a repair seed for the source the solve resumes from it
// instead of starting cold. All Pool semantics pass
// through — ErrOverloaded fail-fast, deadline-degraded partials,
// quarantine-and-retry.
//
// A query that loses the race with a hot swap (its pool closed between
// routing and admission) is transparently re-routed to the new active
// version: a reload never surfaces ErrPoolClosed to a Run caller while
// the graph stays registered.
func (r *Registry) Run(ctx context.Context, name string, source Vertex) (*Result, error) {
	return r.serve(ctx, name, source, nil)
}

// Resume routes a checkpointed solve to the named graph, the
// registry-level Pool.Resume: the checkpoint must belong to the active
// version's graph (the pool checks shape and content fingerprint), so
// a checkpoint taken against a version that has since been replaced
// fails fast instead of converging to garbage. Results are translated
// to original ids like Run, and a hot swap re-routes like Run.
func (r *Registry) Resume(ctx context.Context, name string, cp *Checkpoint) (*Result, error) {
	if cp == nil {
		return nil, errNilCheckpoint // a nil cp would route as Run
	}
	return r.serve(ctx, name, 0, cp)
}

// serve is the routing loop Run and Resume share: resolve the active
// version, query it, and re-route when a hot swap closed its pool
// between routing and admission.
func (r *Registry) serve(ctx context.Context, name string, source Vertex, cp *Checkpoint) (*Result, error) {
	for {
		v, pool, err := r.activeVersion(name)
		if err != nil {
			return nil, err
		}
		res, err := r.runOn(ctx, v, pool, source, cp)
		if errors.Is(err, ErrPoolClosed) {
			_, cur, cerr := r.activeVersion(name)
			if cerr != nil {
				// The version went away while we were admitted: removed,
				// or quarantined by a failed audit — surface that, not
				// the pool's internal closed error.
				return nil, cerr
			}
			if cur != pool {
				// Swapped under us; retry on the new pool. Compare pools,
				// not versions: a rollback re-activates a retired version
				// with a fresh pool.
				continue
			}
			return nil, r.closedOr(err)
		}
		return res, err
	}
}

// runOn executes one query on a specific version: cp, when non-nil,
// is the caller's seed (Resume); otherwise source is an original id,
// translated in and answered from the version's repair seed when one
// exists. Relabeled results are translated back.
func (r *Registry) runOn(ctx context.Context, v *graphVersion, pool *Pool, source Vertex, cp *Checkpoint) (*Result, error) {
	if pool == nil {
		return nil, ErrPoolClosed // retired while routing; serve retries
	}
	if cp == nil {
		if int(source) >= v.g.NumVertices() {
			return nil, fmt.Errorf("wasp: source %d out of range for %d vertices", source, v.g.NumVertices())
		}
		if v.perm != nil {
			source = v.perm[source]
		}
		// A repair seed is an internally triggered warm start: when the
		// deployment's options cannot accept a seed (a non-Wasp
		// algorithm), degrade to a cold solve — the seed is an
		// accelerator, never a requirement.
		if warm, ok := v.warm[uint32(source)]; ok && warmStartSupported(pool.opt) == nil {
			cp = warm
		}
	}
	var res *Result
	var err error
	if cp != nil {
		res, err = pool.Resume(ctx, cp)
	} else {
		res, err = pool.Run(ctx, source)
	}
	if res != nil && v.perm != nil && res.Dist != nil {
		res.Dist = ApplyPermutation(res.Dist, v.perm)
	}
	return res, err
}

// Graphs returns the registered graph names, unordered.
func (r *Registry) Graphs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	return names
}

// Status reports the named graph's lifecycle state.
func (r *Registry) Status(name string) (GraphStatus, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.graphs[name]
	if e == nil {
		return GraphStatus{}, false
	}
	st := GraphStatus{Name: name, State: e.state}
	if e.lastErr != nil {
		st.LastError = e.lastErr.Error()
	}
	if v := e.active; v != nil {
		st.Version = v.version
		st.Vertices = v.g.NumVertices()
		st.Edges = v.g.NumEdges()
		st.Directed = v.g.Directed()
		st.WeightFP = v.g.WeightFingerprint()
		st.Relabeled = v.perm != nil
		st.WarmSources = len(v.warm)
	}
	for i := len(e.history) - 1; i >= 0; i-- {
		st.History = append(st.History, e.history[i].version)
	}
	return st, true
}

// Stats snapshots the named graph's serving counters. The counters
// and latency quantiles are cumulative per graph name: every version's
// pool feeds them, so a reload, mutation, rollback or quarantine
// continues the series, and Remove ends it. The gauges (sessions,
// idle, in-flight, queued) are the active pool's, and zero while no
// version serves (before the first activation, or quarantined). ok is
// false when no graph of that name is registered.
func (r *Registry) Stats(name string) (PoolStats, bool) {
	r.mu.RLock()
	e := r.graphs[name]
	var pool *Pool
	if e != nil && e.active != nil {
		pool = e.active.pool // nil while quarantined
	}
	r.mu.RUnlock()
	switch {
	case e == nil:
		return PoolStats{}, false
	case pool == nil:
		return e.counters.stats(), true
	}
	return pool.Stats(), true
}

// ReloadStats counts reload outcomes since construction.
func (r *Registry) ReloadStats() RegistryReloadStats {
	return RegistryReloadStats{
		Loaded:     r.loaded.Load(),
		Rejected:   r.rejected.Load(),
		RolledBack: r.rolledBack.Load(),
		Noop:       r.noop.Load(),
		Mutated:    r.mutated.Load(),
	}
}

// Servable reports whether at least one graph is currently admitting
// queries — the readiness criterion: an orchestrator should only kill
// a registry-backed server when nothing is servable.
func (r *Registry) Servable() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return false
	}
	for _, e := range r.graphs {
		if e.active != nil && e.active.pool != nil {
			return true
		}
	}
	return false
}

// Close drains every graph's active pool and stops the registry: all
// subsequent Loads fail with ErrRegistryClosed and Runs with
// ErrPoolClosed (the pools are closed, but stay attached so Stats and
// Status keep reporting the final counters through shutdown).
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	var pools []*Pool
	for _, e := range r.graphs {
		if e.active != nil && e.active.pool != nil {
			pools = append(pools, e.active.pool)
		}
	}
	r.mu.Unlock()
	var firstErr error
	for _, p := range pools {
		if err := p.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The auditor goes last: in-flight solves may still submit samples
	// while their pools drain.
	r.auditor.Close()
	return firstErr
}
