package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"wasp"
)

// target receives the queries drive sends: the daemon over HTTP, or a
// wasp.Registry in process for the traced replay.
type target interface {
	query(ctx context.Context, source, dest wasp.Vertex) (uint32, error)
}

// outcome is one operation as the generator saw it. Times are offsets
// from the start of the phase: Due is the scheduled send time, Woke
// when the dispatcher released it, Sent when a connection took it,
// Done when the answer arrived.
type outcome struct {
	Due, Woke, Sent, Done time.Duration
	Dist                  uint32
	Err                   error
}

// phases holds the outcomes of a schedule's three phases.
type phases struct{ fill, warm, win []outcome }

// latency is measured from the scheduled send time, so a stall also
// charges the wait it imposes on every operation due behind it.
func (o outcome) latency() time.Duration { return o.Done - o.Due }

// drive runs ops open-loop: one dispatcher releases each at its due
// time whether or not earlier ones have been answered, and conns
// goroutines — one keep-alive connection each — send them.
func drive(ctx context.Context, t target, ops []op, conns int) []outcome {
	out := make([]outcome, len(ops))
	due := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				o := &out[i]
				o.Sent = time.Since(start)
				o.Dist, o.Err = t.query(ctx, ops[i].Source, ops[i].Target)
				o.Done = time.Since(start)
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := range ops {
		out[i].Due = ops[i].At
		if wait := ops[i].At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			for j := i; j < len(ops); j++ {
				out[j] = outcome{Due: ops[j].At, Err: ctx.Err()}
			}
			break
		}
		out[i].Woke = time.Since(start)
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

var errIncomplete = errors.New("answer not complete")

// daemonTarget sends queries to ssspd's /sssp.
type daemonTarget struct {
	base   string
	client *http.Client
}

// newClient keeps at most conns keep-alive connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (d daemonTarget) query(ctx context.Context, source, dest wasp.Vertex) (uint32, error) {
	var body struct {
		Complete bool    `json:"complete"`
		Distance *uint32 `json:"distance"`
	}
	url := fmt.Sprintf("%s/sssp?source=%d&target=%d", d.base, source, dest)
	if err := d.get(ctx, url, &body); err != nil {
		return 0, err
	}
	if !body.Complete || body.Distance == nil {
		return 0, errIncomplete
	}
	return *body.Distance, nil
}

// get sends one GET and decodes a 200 answer into v; the body is
// drained so the connection returns to the keep-alive pool.
func (d daemonTarget) get(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
