package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wasp"
)

// setupRuns is how many times a run starts the daemon; setup_s is the
// median, and the last daemon serves the schedule.
const setupRuns = 5

// daemonRun is what driving ssspd measured.
type daemonRun struct {
	phases
	setup         []time.Duration
	cpu           time.Duration // daemon CPU time during the window
	rss           int64         // daemon VmHWM at the end of the window
	before, after promSamples   // /metrics at the start and end of the window
	probeSource   wasp.Vertex   // a source the daemon has cached after the window
	hitProbe      []time.Duration
}

// runDaemon starts ssspd setupRuns times, checks its configuration,
// and drives the schedule against the last one. A traced run also
// times cached-source queries one at a time after the window.
func runDaemon(ctx context.Context, cfg config, s schedule) (*daemonRun, error) {
	client := newClient(cfg.conns)
	defer client.CloseIdleConnections()
	if err := checkFlagDefaults(ctx, cfg.ssspd); err != nil {
		return nil, err
	}
	r := &daemonRun{}
	var d *daemon
	for i := range setupRuns {
		var err error
		if d, err = startDaemon(ctx, cfg.ssspd, cfg.w, cfg.n, client); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, d.setup)
		if i < setupRuns-1 {
			d.stop()
		}
	}
	defer d.stop()
	conf, err := d.config(ctx)
	if err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	if err := checkDrift(conf, replayOptions(nil)); err != nil {
		return nil, err
	}

	r.fill = drive(ctx, d.target, s.Fill, cfg.conns)
	r.warm = drive(ctx, d.target, s.Warmup, cfg.conns)
	if r.before, err = d.scrape(ctx); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	r.win = drive(ctx, d.target, s.Window, cfg.conns)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.after, err = d.scrape(ctx); err != nil {
		return nil, err
	}
	if r.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	if cfg.trace {
		for i := len(s.Window) - 1; i >= 0; i-- {
			if r.win[i].Err == nil {
				r.probeSource = s.Window[i].Source
				break
			}
		}
		for i := range probeReps + 1 {
			start := time.Now()
			if _, err := d.target.query(ctx, r.probeSource, s.Window[i%len(s.Window)].Target); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			if i > 0 { // the first query caches the source if it was evicted
				r.hitProbe = append(r.hitProbe, time.Since(start))
			}
		}
	}
	return r, nil
}

// daemonMetrics derives the end-to-end metrics, and the per-layer
// metrics read from the daemon, from one daemon run.
func daemonMetrics(d *daemonRun) (map[string]float64, error) {
	m := map[string]float64{}
	setup := make([]float64, len(d.setup))
	for i, t := range d.setup {
		setup[i] = t.Seconds()
	}
	m["setup_s"] = percentile(sorted(setup), 0.5)

	lat := sorted(latenciesMS(d.win))
	m["query_p50_ms"] = percentile(lat, 0.5)
	// p90 and the tail are printed, not reported: between seeds, their
	// spread on road-miss came within a few points of the 25% regression
	// bound or exceeded it.
	m["query_p90_ms"] = percentile(lat, 0.9)
	m["query_tail_ms"], m["query_tail_q"] = tail(lat)
	m["queries"] = float64(len(lat))
	m["cpu_ms_per_op"] = ms(d.cpu) / float64(len(d.win))
	m["rss_peak_mb"] = float64(d.rss) / (1 << 20)

	late := make([]float64, len(d.win))
	wait := make([]float64, len(d.win))
	for i, o := range d.win {
		late[i], wait[i] = ms(o.Woke-o.Due), ms(o.Sent-o.Woke)
	}
	m["gen.late_p99_ms"] = percentile(sorted(late), 0.99)
	m["gen.conn_wait_p99_ms"] = percentile(sorted(wait), 0.99)

	var errs []error
	get := func(series string) float64 {
		v, err := delta(d.before, d.after, series)
		errs = append(errs, err)
		return v
	}
	hits, misses, coalesced := get("ssspd_cache_hits_total"), get("ssspd_cache_misses_total"), get("ssspd_cache_coalesced_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses+coalesced)
	m["cache.coalesced"] = coalesced
	m["cache.evicted"] = get("ssspd_cache_evicted_total")
	m["cache.warm_ratio"] = ratio(get("ssspd_cache_warm_starts_total"), misses)
	m["governor.sheds"] = get("ssspd_governor_sheds_total")
	m["governor.transitions"] = get("ssspd_brownout_transitions_total")
	passed, failed, dropped := get(`ssspd_audits_total{outcome="passed"}`), get(`ssspd_audits_total{outcome="failed"}`), get(`ssspd_audits_total{outcome="dropped"}`)
	m["auditor.sampled"] = passed + failed + dropped
	m["auditor.failed"] = failed
	m["auditor.dropped"] = dropped
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return m, nil
}

// replayMetrics adds the per-layer metrics of the traced replay and
// the probe to m.
func replayMetrics(m map[string]float64, d *daemonRun, r *replayRun) {
	var runs, solves, pre, post []float64
	pressure := 0.0
	for _, sp := range r.spans {
		switch {
		case sp.Name == "registry.run" && sp.Start >= r.winStart:
			runs = append(runs, us(sp.End-sp.Start))
			pressure = max(pressure, sp.Pressure)
		case sp.Name == "pool.solve":
			solves = append(solves, ms(sp.End-sp.Start))
			if sp.Parent >= 0 {
				req := r.spans[sp.Parent]
				pre = append(pre, ms(sp.Start-req.Start))
				post = append(post, us(req.End-sp.End))
			}
		}
	}
	runs, solves, pre, post = sorted(runs), sorted(solves), sorted(pre), sorted(post)
	m["registry.run_p50_us"] = percentile(runs, 0.5)
	m["registry.run_p99_us"] = percentile(runs, 0.99)
	m["governor.pressure_max"] = pressure
	m["pool.solves"] = float64(len(solves))
	m["pool.solve_p50_ms"] = percentile(solves, 0.5)
	m["pool.solve_p99_ms"] = percentile(solves, 0.99)
	m["pool.pre_solve_p99_ms"] = percentile(pre, 0.99)
	m["pool.post_solve_p50_us"] = percentile(post, 0.5)

	n := float64(len(solves))
	w := r.work
	m["core.relax_per_solve"] = ratio(float64(w.Relaxations), n)
	m["core.improve_ratio"] = ratio(float64(w.Improvements), float64(w.Relaxations))
	m["core.stale_skip_per_solve"] = ratio(float64(w.StaleSkips), n)
	m["core.steal_hit_ratio"] = ratio(float64(w.StealHits), float64(w.StealRounds))
	m["core.bucket_adv_per_solve"] = ratio(float64(w.BucketAdvances), n)

	m["cache.hit_mean_us"] = r.hitMeanUS
	m["gc.alloc_kb_per_op"] = r.allocs / 1024 / float64(len(r.win))
	m["gc.cycles_per_kop"] = r.gcCycles * 1000 / float64(len(r.win))

	p := r.probe
	m["ssspd.hit_self_us"] = us(medianDur(d.hitProbe)) - us(medianDur(p.runHit))
	m["registry.mutate_p50_ms"] = ms(medianDur(p.mutate))
	m["auditor.certify_ms"] = ms(medianDur(p.certify))
	m["overlay.apply_ms_p50"] = ms(medianDur(p.apply))
	cone := 0.0
	for _, c := range p.cone {
		cone += c
	}
	m["overlay.cone_frac"] = cone / float64(len(p.cone))
}

func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(percentile(sorted(v), 0.5))
}
