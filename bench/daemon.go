package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running ssspd process.
type daemon struct {
	cmd    *exec.Cmd
	log    bytes.Buffer // stderr, shown when the process misbehaves
	exited chan struct{}
	target daemonTarget
	setup  time.Duration // spawn to the first 200 from /healthz/ready
}

// startDaemon spawns ssspd with its default flags, setting only the
// graph, its size and seed, and the address, and waits until it is
// ready.
func startDaemon(ctx context.Context, bin string, w workload, n int, client *http.Client) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{exited: make(chan struct{}), target: daemonTarget{base: "http://" + addr, client: client}}
	d.cmd = exec.Command(bin, "-graph", w.graph, "-n", strconv.Itoa(n), "-seed", "1", "-addr", addr)
	d.cmd.Stderr = &d.log
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ssspd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through d.log
		close(d.exited)
	}()
	for {
		if d.ready(ctx) {
			d.setup = time.Since(start)
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ssspd exited during start-up:\n%s", d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			d.stop()
			return nil, fmt.Errorf("ssspd not ready after 120s:\n%s", d.log.String())
		}
	}
}

func (d *daemon) ready(ctx context.Context) bool {
	return d.target.get(ctx, d.target.base+"/healthz/ready", nil) == nil
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that does not drain in time is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user plus system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the process's resident-set high-water mark, VmHWM.
func (d *daemon) peakRSS() (bytesUsed int64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// scrape fetches /metrics.
func (d *daemon) scrape(ctx context.Context) (promSamples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.target.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.target.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// daemonConfig is the slice of /stats the drift check compares.
type daemonConfig struct {
	Sessions int `json:"sessions"`
	Cache    *struct {
		MaxBytes int64 `json:"max_bytes"`
	} `json:"cache"`
	Audit    *json.RawMessage `json:"audit"`
	Governor *json.RawMessage `json:"governor"`
}

func (d *daemon) config(ctx context.Context) (daemonConfig, error) {
	var c daemonConfig
	err := d.target.get(ctx, d.target.base+"/stats", &c)
	return c, err
}
