package barrier

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/parallel"
)

func TestBarrierSynchronizes(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const parties = 4
	const rounds = 200
	b := New(parties)
	var phase atomic.Int64
	fail := atomic.Bool{}
	parallel.Run(parties, nil, func(id int) {
		for r := 0; r < rounds; r++ {
			// Everyone must observe the same round number here.
			if int(phase.Load()) != r {
				fail.Store(true)
			}
			b.Wait()
			if id == 0 {
				phase.Add(1)
			}
			b.Wait()
		}
	})
	if fail.Load() {
		t.Fatal("a party ran ahead of the barrier")
	}
	if got := phase.Load(); got != rounds {
		t.Fatalf("phases = %d, want %d", got, rounds)
	}
}

func TestSinglePartyNeverBlocks(t *testing.T) {
	b := New(1)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			b.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("single-party barrier deadlocked")
	}
}
