package trace

import "testing"

// TestAdvanceFoldsRunsAndFlushesOnAdd: 130 advances then an idle entry
// yield two full folds, the 2-advance remainder stamped with the idle
// event's time, then the idle event — in recording order.
func TestAdvanceFoldsRunsAndFlushesOnAdd(t *testing.T) {
	l := New(1)
	for i := 0; i < 130; i++ {
		l.Advance(0, uint64(i))
	}
	l.Add(0, IdleEnter, 0, 0)

	got := l.Merged()
	want := []struct {
		kind Kind
		a, b uint64
	}{
		{BucketAdvance, 63, advanceFold},
		{BucketAdvance, 127, advanceFold},
		{BucketAdvance, 129, 2},
		{IdleEnter, 0, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %d", got, len(want))
	}
	for i, w := range want {
		if e := got[i]; e.Kind != w.kind || e.A != w.a || e.B != w.b || e.Worker != 0 {
			t.Fatalf("event %d = %+v, want kind %v a=%d b=%d", i, e, w.kind, w.a, w.b)
		}
	}
	if got[2].When != got[3].When {
		t.Fatalf("remainder stamped %v, idle %v: want the same time", got[2].When, got[3].When)
	}
	if got[1].When > got[2].When {
		t.Fatal("fold events out of recording order")
	}
	if n := l.Advances(); n != 130 {
		t.Fatalf("Advances = %d, want 130", n)
	}
}

// TestAddFlushesOnlyItsWorker: worker 0's Add writes worker 0's pending
// advances and leaves worker 1's run pending.
func TestAddFlushesOnlyItsWorker(t *testing.T) {
	l := New(2)
	l.Advance(0, 4)
	l.Advance(1, 7)
	l.Advance(1, 8)
	l.Add(0, StealHit, 3, 1)
	if n := len(l.buf[1].buf); n != 0 {
		t.Fatalf("worker 1 has %d events after worker 0's Add, want 0", n)
	}
	if p := l.buf[1].pending; p != 2 {
		t.Fatalf("worker 1 pending = %d, want 2", p)
	}
	l.Flush(1)
	ev := l.buf[1].buf
	if len(ev) != 1 || ev[0].Kind != BucketAdvance || ev[0].A != 8 || ev[0].B != 2 {
		t.Fatalf("worker 1 after Flush: %+v", ev)
	}
	if n := l.Advances(); n != 3 {
		t.Fatalf("Advances = %d, want 3", n)
	}
}

func TestResetDiscardsPendingAdvances(t *testing.T) {
	l := New(1)
	for i := 0; i < 10; i++ {
		l.Advance(0, uint64(i))
	}
	l.Reset()
	l.Flush(0)
	l.Add(0, Terminate, 0, 0)
	if got := l.Merged(); len(got) != 1 || got[0].Kind != Terminate {
		t.Fatalf("after Reset: %+v, want only the terminate", got)
	}
}

func TestFlushWithNothingPendingRecordsNothing(t *testing.T) {
	l := New(1)
	l.Flush(0)
	l.Advance(0, 1)
	l.Flush(0)
	l.Flush(0) // the run was written by the first Flush
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	var nl *Log
	nl.Advance(0, 1) // nil-safe
	nl.Flush(0)
}

// TestFoldedRingCountsDroppedEvents: a wrapped ring counts the events it
// overwrote, not the advances they stood for.
func TestFoldedRingCountsDroppedEvents(t *testing.T) {
	l := NewCapped(1, 2)
	for i := 0; i < 5*advanceFold; i++ {
		l.Advance(0, uint64(i))
	}
	if l.Len() != 2 || l.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2 and 3", l.Len(), l.Dropped())
	}
	if n := l.Advances(); n != 2*advanceFold {
		t.Fatalf("retained advances = %d, want %d", n, 2*advanceFold)
	}
}

func TestSteadyStateAdvanceZeroAllocs(t *testing.T) {
	l := NewCapped(1, 64)
	for i := 0; i < 64*advanceFold; i++ {
		l.Advance(0, 0)
	}
	allocs := testing.AllocsPerRun(10*advanceFold, func() {
		l.Advance(0, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Advance allocates %.1f/op, want 0", allocs)
	}
}
