package wasp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wasp/internal/verify"
)

// AuditorOptions configures an Auditor.
type AuditorOptions struct {
	// SampleRate is the fraction of served solve results certified,
	// in (0, 1]. It is applied as a deterministic stride — one result
	// in round(1/SampleRate) is audited — so sampling cost on the
	// serving path is a single atomic increment. Zero or negative
	// disables auditing entirely.
	SampleRate float64
	// Async moves certificate scans onto a dedicated background
	// goroutine: the serving path pays one atomic increment plus, for
	// the sampled fraction, a distance-array copy and a non-blocking
	// channel send. When the audit queue is full the result is dropped
	// (counted, never blocking a caller). Synchronous mode (false)
	// certifies inline before the solve returns — deterministic, for
	// tests and one-shot tools.
	Async bool
	// OnFailure, when non-nil, observes every failed audit. The
	// Registry installs a hook here that quarantines the failing graph
	// version; user hooks run after it. It is called from the audit
	// goroutine (Async) or the serving goroutine (sync) — keep it
	// brief and never call back into the auditor.
	OnFailure func(AuditFailure)
}

// auditQueueDepth bounds the async audit queue. Sampled results beyond
// it are dropped, not queued unboundedly — an audit backlog must never
// become a memory leak.
const auditQueueDepth = 64

// AuditFailure describes one certificate violation on a served result.
type AuditFailure struct {
	// Scope identifies the serving pool — the Registry uses
	// "name@version", the same identity that keys cache entries.
	Scope string
	// Source is the query whose result failed.
	Source Vertex
	// Complete reports which certificate was violated: the full
	// four-condition certificate (true) or the degraded upper-bound
	// certificate (false).
	Complete bool
	// Err is the violation, straight from internal/verify.
	Err error
}

// AuditorStats is a point-in-time snapshot of an Auditor's counters.
type AuditorStats struct {
	Sampled int64 `json:"sampled"` // results elected for certification
	Passed  int64 `json:"passed"`  // certificates that held
	Failed  int64 `json:"failed"`  // certificate violations observed
	Dropped int64 `json:"dropped"` // sampled results lost to a full async queue
	// LastError is the most recent violation's message, empty while
	// every audit has passed.
	LastError string `json:"last_error,omitempty"`
}

// auditJob is one sampled result awaiting certification. dist is a
// detached copy in async mode (the caller owns the original) and the
// caller's slice in sync mode (certified before Run returns it).
type auditJob struct {
	g        *Graph
	scope    string
	source   Vertex
	dist     []uint32
	complete bool
}

// Auditor certifies a sampled fraction of served SSSP results from
// first principles — the shadow-verification layer of the serving
// stack. A complete result is checked against the full O(V+E) SSSP
// certificate (internal/verify), which holds iff the distances are
// exactly right; a degraded result is checked against the weaker
// upper-bound certificate its contract promises. Either failing means
// the serving path produced a wrong answer — a lost relaxation, a
// premature termination, or plain memory corruption — and the
// OnFailure hook (wired to Registry quarantine) takes the version out
// of rotation.
//
// One Auditor may serve many pools: attach it via PoolOptions.Auditor,
// or let RegistryOptions.Audit build one spanning every versioned
// pool. All methods are safe for concurrent use.
type Auditor struct {
	opt    AuditorOptions
	stride uint64

	n atomic.Uint64 // served-result counter driving the sampling stride

	// scratch serves sync-mode audits under mu; the async drainer owns
	// its own scratch, so the two never contend.
	mu      sync.Mutex
	scratch *verify.Scratch

	jobs    chan auditJob
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	sampled atomic.Int64
	passed  atomic.Int64
	failed  atomic.Int64
	dropped atomic.Int64

	lastErr atomic.Pointer[string]
}

// NewAuditor returns an Auditor with opt applied. An Async auditor
// owns a background goroutine; Close releases it. Each certificate's
// edge scan fans out over GOMAXPROCS workers.
func NewAuditor(opt AuditorOptions) *Auditor {
	a := &Auditor{opt: opt}
	if opt.SampleRate > 0 {
		a.stride = uint64(math.Round(1 / opt.SampleRate))
		if a.stride < 1 {
			a.stride = 1
		}
	}
	a.scratch = verify.NewScratch(runtime.GOMAXPROCS(0))
	if opt.Async {
		a.jobs = make(chan auditJob, auditQueueDepth)
		a.wg.Add(1)
		go a.drain()
	}
	return a
}

// maybeAudit is the pool-side submission hook: it elects every
// stride-th served result and certifies it (inline, or by handing a
// detached copy to the async drainer). Nil-safe, and one atomic
// increment when the result is not elected — the full cost on the
// unsampled serving path.
func (a *Auditor) maybeAudit(g *Graph, scope string, source Vertex, dist []uint32, complete bool) {
	if a == nil || a.stride == 0 || len(dist) == 0 {
		return
	}
	if a.n.Add(1)%a.stride != 0 {
		return
	}
	a.sampled.Add(1)
	job := auditJob{g: g, scope: scope, source: source, dist: dist, complete: complete}
	if !a.opt.Async {
		a.mu.Lock()
		err := a.certify(a.scratch, job)
		a.mu.Unlock()
		a.settle(job, err)
		return
	}
	// Async: the caller keeps the original array, the audit gets a
	// detached copy — a served result mutated by its caller must never
	// masquerade as solver corruption.
	job.dist = append([]uint32(nil), dist...)
	a.closeMu.RLock()
	if a.closed {
		a.closeMu.RUnlock()
		a.dropped.Add(1)
		return
	}
	select {
	case a.jobs <- job:
	default:
		a.dropped.Add(1)
	}
	a.closeMu.RUnlock()
}

// drain is the async audit goroutine: one scratch, reused across
// audits, so steady-state certification allocates nothing.
func (a *Auditor) drain() {
	defer a.wg.Done()
	scratch := verify.NewScratch(runtime.GOMAXPROCS(0))
	for job := range a.jobs {
		a.settle(job, a.certify(scratch, job))
	}
}

// certify runs the certificate matching the result's contract.
func (a *Auditor) certify(s *verify.Scratch, job auditJob) error {
	if job.complete {
		return s.Certificate(job.g, job.source, job.dist)
	}
	return s.UpperBound(job.g, job.source, job.dist)
}

// settle records one audit outcome and fires the failure hook.
func (a *Auditor) settle(job auditJob, err error) {
	if err == nil {
		a.passed.Add(1)
		return
	}
	a.failed.Add(1)
	msg := fmt.Sprintf("%s source %d: %v", job.scope, job.source, err)
	a.lastErr.Store(&msg)
	if a.opt.OnFailure != nil {
		a.opt.OnFailure(AuditFailure{
			Scope:    job.scope,
			Source:   job.source,
			Complete: job.complete,
			Err:      err,
		})
	}
}

// Stats snapshots the auditor's counters. Nil-safe (zero stats).
func (a *Auditor) Stats() AuditorStats {
	if a == nil {
		return AuditorStats{}
	}
	st := AuditorStats{
		Sampled: a.sampled.Load(),
		Passed:  a.passed.Load(),
		Failed:  a.failed.Load(),
		Dropped: a.dropped.Load(),
	}
	if msg := a.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// Close stops accepting submissions and, for an Async auditor, drains
// the queued audits and joins the background goroutine. Idempotent;
// nil-safe. Submissions after Close count as dropped.
func (a *Auditor) Close() {
	if a == nil {
		return
	}
	a.closeMu.Lock()
	if a.closed {
		a.closeMu.Unlock()
		return
	}
	a.closed = true
	if a.jobs != nil {
		close(a.jobs)
	}
	a.closeMu.Unlock()
	a.wg.Wait()
}
