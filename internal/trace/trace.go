// Package trace provides a low-overhead event log for the Wasp
// scheduler: per-worker bounded buffers of timestamped events (bucket
// advances, steal outcomes, idle transitions), merged on demand. It
// exists for debugging scheduling pathologies — a sequential tail on a
// graph that should parallelize shows up immediately as one worker
// advancing buckets while the rest log idle events.
//
// The log records scheduler transitions, not every step. A run of
// quiet bucket advances (Advance) is folded into one BucketAdvance
// event per 64 advances, whose B counts the advances it stands for;
// the event is written early when the same worker records anything
// else (Add) or its run ends (Flush). At Δ=1 on a road graph a worker
// advances every few dozen relaxations, so an event per advance would
// make a traced solve about 1.5 times as slow and overflow a
// 4096-event buffer within milliseconds.
//
// Workers write to their own buffer with no synchronization; Merge is
// called after the run. A nil *Log disables collection at the cost of
// one predictable branch per event site.
//
// Buffers are capped: a long solve cannot grow a Log without bound.
// Once a worker's buffer is full, new events overwrite the oldest ones
// (the recent past is what diagnoses a pathology) and a per-worker
// dropped counter records the loss, surfaced through Dropped, Dump and
// the Chrome export.
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds emitted by the Wasp scheduler.
const (
	// BucketAdvance: the worker made B consecutive advances through
	// its local buckets, the last to priority level A. Advance writes
	// B in 1..64; an event written with Add carries the caller's B.
	BucketAdvance Kind = iota
	// StealHit: a steal round got B chunks, best priority A.
	StealHit
	// StealMiss: a contended steal round — some victim's deque read
	// non-empty, but the round won no chunk (A = the next local
	// priority the thief was trying to beat). A round that finds every
	// deque empty is not recorded: the advance or idle period that
	// follows it implies it.
	StealMiss
	// IdleEnter: the worker published priority ∞.
	IdleEnter
	// Terminate: the worker concluded global termination.
	Terminate

	numKinds // sentinel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case BucketAdvance:
		return "advance"
	case StealHit:
		return "steal-hit"
	case StealMiss:
		return "steal-miss"
	case IdleEnter:
		return "idle"
	case Terminate:
		return "terminate"
	default:
		return "unknown"
	}
}

// Event is one scheduler occurrence.
type Event struct {
	When   time.Duration // since Log creation (or the last Reset)
	Worker int
	Kind   Kind
	A, B   uint64 // kind-specific payload
}

// DefaultCap is the per-worker event capacity used by New: at ~40
// bytes per event a full buffer costs well under a megabyte per
// worker. With quiet advances folded 64 to an event, even a quarter of
// it holds a whole Δ=1 road-usa 2^18 solve on two workers, which
// records about 1,000–1,600 events in all.
const DefaultCap = 1 << 14

// advanceFold is the most advances one BucketAdvance event written by
// Advance stands for.
const advanceFold = 64

// ring is one worker's bounded event buffer. Events append until the
// buffer reaches its capacity; after that each new event overwrites
// the oldest (head advances) and dropped counts the overwritten.
type ring struct {
	buf     []Event
	head    int // index of the oldest event once the ring wrapped
	dropped uint64
	pending uint64 // advances recorded by Advance and not yet written
	level   uint64 // priority level the last pending advance reached
	// Pad to 128 bytes: each worker writes these fields at every
	// advance, so keep them off the cache lines its neighbours write.
	_ [72]byte
}

// Log collects events for a fixed number of workers.
type Log struct {
	start time.Time
	cap   int
	buf   []ring
}

// New returns a Log for p workers with the DefaultCap per-worker
// capacity.
func New(p int) *Log { return NewCapped(p, DefaultCap) }

// NewCapped returns a Log for p workers holding at most capPerWorker
// events per worker (values < 1 fall back to DefaultCap). Buffers grow
// lazily up to the cap; they are never preallocated at full size.
func NewCapped(p, capPerWorker int) *Log {
	if capPerWorker < 1 {
		capPerWorker = DefaultCap
	}
	return &Log{start: time.Now(), cap: capPerWorker, buf: make([]ring, p)}
}

// Reset discards all recorded events, dropped counts and pending
// advances and restarts the clock, keeping the buffers' storage so a
// Log reused across the solves of one session reaches a steady state
// with no allocation.
// Callers must ensure no worker is concurrently adding (i.e. between
// runs).
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.start = time.Now()
	for i := range l.buf {
		r := &l.buf[i]
		r.buf = r.buf[:0]
		r.head = 0
		r.dropped = 0
		r.pending, r.level = 0, 0
	}
}

// Workers returns the number of per-worker buffers.
func (l *Log) Workers() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}

// Add records an event for worker w. Worker w's pending advances, if
// any, are written first with the same timestamp, so the stream keeps
// recording order. Nil-safe: a nil Log drops it.
func (l *Log) Add(w int, kind Kind, a, b uint64) {
	if l == nil {
		return
	}
	now := time.Since(l.start)
	r := &l.buf[w]
	r.writePending(l.cap, w, now)
	r.put(l.cap, Event{When: now, Worker: w, Kind: kind, A: a, B: b})
}

// Advance records that worker w advanced to local priority level. It
// only counts: every advanceFold advances become one BucketAdvance
// event (A = level, B = advanceFold), and a shorter run is written by
// w's next Add or Flush. Nil-safe.
func (l *Log) Advance(w int, level uint64) {
	if l == nil {
		return
	}
	r := &l.buf[w]
	r.pending++
	r.level = level
	if r.pending == advanceFold {
		l.Flush(w)
	}
}

// Flush writes worker w's pending advances as one event, for a run
// that ends without a closing Add (a cancelled solve). With nothing
// pending it records nothing. Nil-safe.
func (l *Log) Flush(w int) {
	if l == nil || l.buf[w].pending == 0 {
		return
	}
	l.buf[w].writePending(l.cap, w, time.Since(l.start))
}

// writePending writes the pending advances, if any, as one
// BucketAdvance event stamped now.
func (r *ring) writePending(cap, w int, now time.Duration) {
	if r.pending == 0 {
		return
	}
	r.put(cap, Event{When: now, Worker: w, Kind: BucketAdvance, A: r.level, B: r.pending})
	r.pending = 0
}

// put appends e, or once the ring holds cap events overwrites the
// oldest and advances the ring head.
func (r *ring) put(cap int, e Event) {
	if len(r.buf) < cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Len returns the total number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	total := 0
	for i := range l.buf {
		total += len(l.buf[i].buf)
	}
	return total
}

// Dropped returns the total number of events lost to buffer overflow.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	var total uint64
	for i := range l.buf {
		total += l.buf[i].dropped
	}
	return total
}

// appendOrdered appends worker w's retained events to out in recording
// order (oldest first), unwinding the ring.
func (r *ring) appendOrdered(out []Event) []Event {
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Merged returns all retained events in time order. Ties are broken
// deterministically: same-timestamp events order by worker id, and
// same-worker events keep their recording order, so two merges of the
// same log — or of two identical runs on a coarse clock — agree
// exactly. Call after the run.
func (l *Log) Merged() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, l.Len())
	for i := range l.buf {
		out = l.buf[i].appendOrdered(out)
	}
	// Stable sort on (When, Worker): the input is worker-major in
	// recording order, so equal (When, Worker) pairs retain it.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// CountKind returns the number of retained events of the given kind.
func (l *Log) CountKind(kind Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.buf {
		for _, e := range l.buf[i].buf {
			if e.Kind == kind {
				n++
			}
		}
	}
	return n
}

// Advances returns the number of bucket advances the retained
// BucketAdvance events stand for: the sum of their B.
func (l *Log) Advances() uint64 {
	if l == nil {
		return 0
	}
	var n uint64
	for i := range l.buf {
		for _, e := range l.buf[i].buf {
			if e.Kind == BucketAdvance {
				n += e.B
			}
		}
	}
	return n
}

// Dump writes the merged event stream, one line per event, with a
// trailer reporting overflow drops when any occurred.
func (l *Log) Dump(w io.Writer) {
	for _, e := range l.Merged() {
		fmt.Fprintf(w, "%12v w%-3d %-10s a=%d b=%d\n", e.When, e.Worker, e.Kind, e.A, e.B)
	}
	if d := l.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d older events dropped by the buffer cap)\n", d)
	}
}

// WriteChrome renders the merged event stream in the Chrome trace
// event format (the JSON consumed by chrome://tracing and Perfetto):
// one instant event per scheduler occurrence, workers as threads of a
// single "wasp" process, timestamps in microseconds since the run
// start. Overflow drops are recorded in the top-level metadata so a
// truncated trace announces itself.
//
// The output is deterministic for a given event stream — fields are
// emitted in a fixed order with fixed formatting — so tests can pin
// the format byte for byte.
func (l *Log) WriteChrome(w io.Writer) error {
	return writeChrome(w, l.Merged(), l.Workers(), l.Dropped())
}

func writeChrome(w io.Writer, events []Event, workers int, dropped uint64) error {
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":%d},\"traceEvents\":[", dropped); err != nil {
		return err
	}
	// Thread-name metadata first: chrome://tracing labels each worker
	// lane even when it logged nothing.
	sep := ""
	for t := 0; t < workers; t++ {
		if _, err := fmt.Fprintf(w,
			"%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"worker %d\"}}",
			sep, t, t); err != nil {
			return err
		}
		sep = ","
	}
	for _, e := range events {
		// ts is microseconds with nanosecond fraction, Chrome's native
		// unit; "s":"t" scopes the instant marker to its thread lane.
		if _, err := fmt.Fprintf(w,
			"%s\n{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%d.%03d,\"args\":{\"a\":%d,\"b\":%d}}",
			sep, e.Kind.String(), e.Worker,
			e.When.Nanoseconds()/1000, e.When.Nanoseconds()%1000, e.A, e.B); err != nil {
			return err
		}
		sep = ","
	}
	_, err := fmt.Fprint(w, "\n]}\n")
	return err
}
