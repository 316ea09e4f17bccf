package wasp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// BrownoutLevel is a rung on the overload degradation ladder. Levels
// are ordered: each one strictly reduces the work admitted per query
// relative to the level above it, so a governor descending the ladder
// sheds load in a controlled order instead of flipping between "serve
// everything" and "shed everything".
type BrownoutLevel int32

const (
	// BrownoutNone: full service — every admitted query gets a full
	// solve.
	BrownoutNone BrownoutLevel = iota
	// BrownoutCacheOnly: reuse-only admission on cache-backed pools —
	// exact hits, coalesced followers and misses seeded by the caller's
	// checkpoint (Resume) are served; every other miss would solve cold
	// (the most expensive queries) and is shed first.
	// Pools without a cache are unaffected at this level; their ladder
	// effectively starts at BrownoutPartial.
	BrownoutCacheOnly
	// BrownoutPartial: solves run under a clamped deadline
	// (GovernorConfig.DegradedDeadline) and return deadline-degraded
	// partial upper-bound results — bounded work per query, a partial
	// answer instead of an error.
	BrownoutPartial
	// BrownoutShed: every query is shed with ErrOverloaded and an
	// adaptive Retry-After computed from the observed drain rate.
	BrownoutShed

	numBrownoutLevels
)

// String names the ladder rung for logs and metrics labels.
func (l BrownoutLevel) String() string {
	switch l {
	case BrownoutNone:
		return "none"
	case BrownoutCacheOnly:
		return "cache-only"
	case BrownoutPartial:
		return "partial"
	case BrownoutShed:
		return "shed"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// brownoutEnter[l] is the pressure at or above which the governor
// ascends INTO level l from l-1; brownoutExit[l] is the pressure below
// which it descends OUT of level l to l-1. Enter > exit by a wide
// hysteresis band, so pressure noise around a threshold cannot flap
// the ladder. Transitions move one rung per evaluation in either
// direction — the ladder is walked, never jumped.
var (
	brownoutEnter = [numBrownoutLevels]float64{0, 0.70, 0.85, 0.95}
	brownoutExit  = [numBrownoutLevels]float64{0, 0.50, 0.70, 0.85}
)

// BrownoutTransition describes one ladder move for the OnTransition
// hook. From and To always differ by exactly one rung.
type BrownoutTransition struct {
	From, To BrownoutLevel
	// Pressure is the signal value that drove the move.
	Pressure float64
}

// GovernorConfig configures a Governor. The zero value governs with a
// 100ms queue-delay budget, a 50ms degraded deadline, a 500ms dwell
// and a 30s Retry-After ceiling; the latency signal is off until
// LatencyBudget is set.
type GovernorConfig struct {
	// QueueDelayBudget is the smoothed admission-queue wait at which
	// the queue-delay component of the pressure signal reaches 1.0
	// (default 100ms). Pools with a QueueWait typically pass it here:
	// "queries are waiting as long as we ever let them" is pressure 1.
	QueueDelayBudget time.Duration
	// LatencyBudget is the smoothed in-process solve latency at which
	// the latency component reaches 1.0. Zero disables the latency
	// component (queue delay and depth still govern).
	LatencyBudget time.Duration
	// DegradedDeadline is the per-solve budget clamped onto admitted
	// queries at BrownoutPartial and below (default 50ms). An expired
	// clamp returns the partial upper-bound snapshot via the pool's
	// normal degradation path, not an error.
	DegradedDeadline time.Duration
	// MinDwell is the minimum time between ladder moves (default
	// 500ms), bounding how fast the ladder can be walked in either
	// direction. Negative disables the dwell — the deterministic-test
	// configuration.
	MinDwell time.Duration
	// MaxRetryAfter caps the adaptive Retry-After hint (default 30s).
	MaxRetryAfter time.Duration
	// Slots is the number of concurrently executing solves behind the
	// governor (PoolOptions.Sessions for a single pool; default 1) —
	// the parallelism the drain-rate estimate divides by.
	Slots int
	// OnTransition, when non-nil, observes every ladder move
	// synchronously with the transition (under the governor's lock —
	// keep it brief: log, count, export).
	OnTransition func(BrownoutTransition)
}

func (c GovernorConfig) withDefaults() GovernorConfig {
	if c.QueueDelayBudget <= 0 {
		c.QueueDelayBudget = 100 * time.Millisecond
	}
	if c.DegradedDeadline <= 0 {
		c.DegradedDeadline = 50 * time.Millisecond
	}
	if c.MinDwell == 0 {
		c.MinDwell = 500 * time.Millisecond
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.Slots <= 0 {
		c.Slots = 1
	}
	return c
}

// ewmaAlpha is the per-observation smoothing factor of every governor
// EWMA: new = α·sample + (1-α)·old. One fixed per-sample α keeps the
// governor deterministic under a deterministic observation stream —
// the property the ladder unit tests rely on.
const ewmaAlpha = 0.3

// Governor turns pool observations into a pressure signal and walks
// the brownout ladder on it. One governor may be shared by many pools
// (the daemon attaches one to every per-graph pool via
// PoolOptions.Governor), aggregating their load into a single
// daemon-wide degradation decision.
//
// The pressure signal is the worst of three smoothed components, each
// normalized so 1.0 means "at budget":
//
//   - queue delay: EWMA of observed admission waits (and, between
//     admissions, of the expected wait for the current depth) over
//     QueueDelayBudget;
//   - queue depth: EWMA of queued/capacity;
//   - solve latency: EWMA of in-process solve time over LatencyBudget
//     (off when LatencyBudget is zero).
//
// The governor is traffic-clocked: pressure moves only on
// observations, which arrive on every admission attempt (including
// shed ones) and every solve completion. A fully shedding pool keeps
// observing its own admission attempts, so the signal decays as the
// queue drains and the ladder recovers — no background goroutine, no
// timers, nothing to leak.
//
// All methods are safe for concurrent use.
type Governor struct {
	conf GovernorConfig

	level        atomic.Int32
	pressureBits atomic.Uint64 // float64 bits of the last composite pressure

	mu         sync.Mutex // guards the EWMAs and ladder moves
	qDelayEWMA float64    // seconds
	depthEWMA  float64    // fraction of queue capacity
	latEWMA    float64    // seconds, in-process solve time
	svcEWMA    float64    // seconds per completed solve (drain-rate input)
	lastQueued int
	lastChange time.Time

	transitions atomic.Int64
	shed        atomic.Int64 // governor-initiated sheds (ladder, not queue overflow)
}

// NewGovernor returns a governor at BrownoutNone.
func NewGovernor(conf GovernorConfig) *Governor {
	return &Governor{conf: conf.withDefaults()}
}

// Level returns the current ladder rung.
func (g *Governor) Level() BrownoutLevel {
	if g == nil {
		return BrownoutNone
	}
	return BrownoutLevel(g.level.Load())
}

// Pressure returns the last computed composite pressure in [0, 1].
func (g *Governor) Pressure() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.pressureBits.Load())
}

// RetryAfter estimates how long a shed caller should wait before
// retrying: the expected drain time of the current queue depth —
// (queued+1) × smoothed service time / slots — clamped to
// [0, MaxRetryAfter]. With no completed solve observed yet it returns
// zero and callers fall back to their static hint.
func (g *Governor) RetryAfter() time.Duration {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	svc, queued := g.svcEWMA, g.lastQueued
	g.mu.Unlock()
	if svc <= 0 {
		return 0
	}
	wait := time.Duration(svc * float64(queued+1) / float64(g.conf.Slots) * float64(time.Second))
	if wait > g.conf.MaxRetryAfter {
		wait = g.conf.MaxRetryAfter
	}
	return wait
}

// DegradedDeadline is the per-solve clamp applied at BrownoutPartial.
func (g *Governor) DegradedDeadline() time.Duration { return g.conf.DegradedDeadline }

// observeAttempt records one admission attempt: the instantaneous
// queue depth feeds the depth component, and — via the expected wait
// for that depth — decays the queue-delay component between measured
// waits, so a draining (or fully shedding) pool sees its pressure
// fall. queueCap is the pool's configured QueueDepth; zero means
// nothing ever queues and the depth component stays at zero.
func (g *Governor) observeAttempt(queued, queueCap int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.lastQueued = queued
	frac := 0.0
	if queueCap > 0 {
		frac = float64(queued) / float64(queueCap)
	}
	g.depthEWMA += ewmaAlpha * (frac - g.depthEWMA)
	expWait := g.svcEWMA * float64(queued) / float64(g.conf.Slots)
	g.qDelayEWMA += ewmaAlpha * (expWait - g.qDelayEWMA)
	g.advanceLocked()
	g.mu.Unlock()
}

// observeWait records a measured admission-queue wait.
func (g *Governor) observeWait(d time.Duration) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.qDelayEWMA += ewmaAlpha * (d.Seconds() - g.qDelayEWMA)
	g.advanceLocked()
	g.mu.Unlock()
}

// observeSolve records one finished solve's in-process latency,
// feeding both the latency component and the service-time estimate
// behind RetryAfter.
func (g *Governor) observeSolve(elapsed time.Duration) {
	if g == nil {
		return
	}
	sec := elapsed.Seconds()
	g.mu.Lock()
	g.latEWMA += ewmaAlpha * (sec - g.latEWMA)
	g.svcEWMA += ewmaAlpha * (sec - g.svcEWMA)
	g.advanceLocked()
	g.mu.Unlock()
}

// observeShed counts one governor-initiated shed (a ladder decision,
// as opposed to the pool's own queue-overflow shed).
func (g *Governor) observeShed() {
	if g != nil {
		g.shed.Add(1)
	}
}

// components returns the three normalized pressure components. Called
// with g.mu held.
func (g *Governor) componentsLocked() (qp, dp, lp float64) {
	qp = g.qDelayEWMA / g.conf.QueueDelayBudget.Seconds()
	dp = g.depthEWMA
	if g.conf.LatencyBudget > 0 {
		lp = g.latEWMA / g.conf.LatencyBudget.Seconds()
	}
	return clamp01(qp), clamp01(dp), clamp01(lp)
}

// advanceLocked recomputes the composite pressure and walks the ladder
// at most one rung. Called with g.mu held.
func (g *Governor) advanceLocked() {
	qp, dp, lp := g.componentsLocked()
	g.stepLocked(math.Max(qp, math.Max(dp, lp)))
}

// stepLocked is the ladder state machine on a raw pressure value —
// the seam the deterministic unit tests drive directly (bypassing the
// EWMAs). Called with g.mu held.
func (g *Governor) stepLocked(pressure float64) {
	g.pressureBits.Store(math.Float64bits(pressure))
	cur := BrownoutLevel(g.level.Load())
	next := cur
	switch {
	case cur < BrownoutShed && pressure >= brownoutEnter[cur+1]:
		next = cur + 1
	case cur > BrownoutNone && pressure < brownoutExit[cur]:
		next = cur - 1
	}
	if next == cur {
		return
	}
	now := time.Now()
	if g.conf.MinDwell > 0 && !g.lastChange.IsZero() && now.Sub(g.lastChange) < g.conf.MinDwell {
		return
	}
	g.level.Store(int32(next))
	g.lastChange = now
	g.transitions.Add(1)
	if g.conf.OnTransition != nil {
		g.conf.OnTransition(BrownoutTransition{From: cur, To: next, Pressure: pressure})
	}
}

// step drives the ladder on a raw pressure value, bypassing the
// EWMAs. It exists for deterministic tests of the ladder semantics;
// production feeds arrive through the observe methods.
func (g *Governor) step(pressure float64) {
	g.mu.Lock()
	g.stepLocked(pressure)
	g.mu.Unlock()
}

// GovernorStats is a point-in-time snapshot of the governor — the
// observability surface behind /stats, /healthz/ready and the
// ssspd_pressure_* metric family.
type GovernorStats struct {
	// Level is the current ladder rung and LevelName its label.
	Level     BrownoutLevel `json:"level"`
	LevelName string        `json:"level_name"`
	// Pressure is the composite signal in [0, 1]; the three components
	// follow (each normalized so 1.0 = at budget).
	Pressure      float64 `json:"pressure"`
	QueueDelay    float64 `json:"pressure_queue_delay"`
	QueueDepth    float64 `json:"pressure_queue_depth"`
	SolveLatency  float64 `json:"pressure_latency"`
	Transitions   int64   `json:"transitions"`
	GovernorSheds int64   `json:"governor_sheds"`
	// RetryAfter is the current adaptive retry hint (0 = no estimate
	// yet).
	RetryAfter time.Duration `json:"retry_after_ns"`
}

// Stats snapshots the governor.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	qp, dp, lp := g.componentsLocked()
	g.mu.Unlock()
	lvl := g.Level()
	return GovernorStats{
		Level:         lvl,
		LevelName:     lvl.String(),
		Pressure:      g.Pressure(),
		QueueDelay:    qp,
		QueueDepth:    dp,
		SolveLatency:  lp,
		Transitions:   g.transitions.Load(),
		GovernorSheds: g.shed.Load(),
		RetryAfter:    g.RetryAfter(),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
