package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tctp/internal/sweep/protocol"
)

// clis are the programs under test, built from the checkout once per
// invocation.
var clis = []string{"tctp-sweep", "tctp-server", "tctp-worker"}

// harness owns the processes under test: it builds them, starts them,
// and guarantees that none outlives the benchmark.
type harness struct {
	root string // repository root (holds go.mod of module tctp)
	out  string // outputs: logs, traces, results
	bin  string // the built CLIs

	mu      sync.Mutex
	procs   map[*exec.Cmd]bool
	closed  bool
	reapers sync.WaitGroup // one per running daemon
}

func newHarness(root, out, bin string) *harness {
	return &harness{root: root, out: out, bin: bin, procs: make(map[*exec.Cmd]bool)}
}

// build compiles the CLIs from the checkout and returns how long it
// took. The binaries stay in the build directory between invocations,
// where go build relinks only what changed.
func (h *harness) build(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	args := []string{"build", "-o", h.bin + string(filepath.Separator)}
	for _, c := range clis {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = h.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return time.Since(start), nil
}

func (h *harness) command(name string, env []string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(h.bin, name), args...)
	cmd.Dir = h.out
	cmd.Env = append(os.Environ(), env...)
	// A child outlives a benchmark killed by a signal it cannot catch
	// unless the kernel kills it too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// start starts cmd and registers it for cleanup.
func (h *harness) start(cmd *exec.Cmd) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	h.procs[cmd] = true
	return nil
}

// wait reaps cmd and drops it from the cleanup set.
func (h *harness) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	h.mu.Lock()
	delete(h.procs, cmd)
	h.mu.Unlock()
	return err
}

// killAll kills every process still registered, refuses new ones, and
// waits until the daemons among them are reaped (a CLI is reaped by
// the call that runs it).
func (h *harness) killAll() {
	h.mu.Lock()
	h.closed = true
	for cmd := range h.procs {
		cmd.Process.Kill()
	}
	h.mu.Unlock()
	h.reapers.Wait()
}

// cliRun is one finished CLI process.
type cliRun struct {
	stdout, stderr []byte
	wall           time.Duration
	cpu            float64 // user+sys seconds
	rssMB          float64 // peak resident set
}

// run executes a CLI to completion and measures it.
//
// The peak resident set is polled from /proc while the CLI runs: the
// ru_maxrss that wait returns is useless here, because Go starts a
// child sharing the parent's address space until exec, and the kernel
// carries that space's high-water mark, the benchmark's own, into the
// child's ru_maxrss.
func (h *harness) run(ctx context.Context, name string, args ...string) (cliRun, error) {
	var r cliRun
	var stdout, stderr bytes.Buffer
	cmd := h.command(name, nil, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := h.start(cmd); err != nil {
		return r, err
	}
	stop := context.AfterFunc(ctx, func() { cmd.Process.Kill() })
	exited := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		var mb float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := peakRSS(cmd.Process.Pid); err == nil {
				mb = max(mb, v)
			}
			select {
			case <-exited:
				peak <- mb
				return
			case <-tick.C:
			}
		}
	}()
	err := h.wait(cmd)
	close(exited)
	stop()
	r.wall = time.Since(start)
	r.rssMB = <-peak
	r.stdout, r.stderr = stdout.Bytes(), stderr.Bytes()
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err,
			strings.TrimSpace(lastLine(stderr.String())))
	}
	return r, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a long-lived process under test (a server or a worker).
type daemon struct {
	h    *harness
	cmd  *exec.Cmd
	done chan struct{}
}

// launch starts a long-lived process whose output goes to a log file
// in the output directory.
func (h *harness) launch(name, logName string, env []string, args ...string) (*daemon, error) {
	log, err := os.Create(filepath.Join(h.out, logName))
	if err != nil {
		return nil, err
	}
	cmd := h.command(name, env, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := h.start(cmd); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{h: h, cmd: cmd, done: make(chan struct{})}
	h.reapers.Add(1)
	go func() {
		defer h.reapers.Done()
		h.wait(cmd)
		log.Close()
		close(d.done)
	}()
	return d, nil
}

// usage reads the process's CPU time (user+sys seconds) and its peak
// resident set (VmHWM, MB) from /proc.
func (d *daemon) usage() (cpu, rssMB float64, err error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	rssMB, err = peakRSS(pid)
	return (ut + st) / 100, rssMB, err
}

// peakRSS reads a process's peak resident set (VmHWM, MB) from /proc.
func peakRSS(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop ends the process — SIGTERM first, so a worker can shut down
// cleanly, SIGKILL after a grace period — and waits until it has
// exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return
	case <-time.After(2 * time.Second):
	}
	d.cmd.Process.Kill()
	<-d.done
}

// exited reports whether the process has ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serverProc is a running tctp-server and the client the benchmark talks
// to it with.
type serverProc struct {
	*daemon
	url    string
	client *http.Client
}

// startServer launches tctp-server on a free loopback port and polls
// /stats until it answers 200. It returns the time from launch to that
// answer: the server's set-up time.
func (h *harness) startServer(ctx context.Context, logName string, args ...string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := h.launch("tctp-server", logName, nil, append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	s := &serverProc{daemon: d, url: "http://" + addr, client: newClient()}
	for {
		resp, err := s.client.Get(s.url + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if d.exited() || ctx.Err() != nil || time.Since(start) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("tctp-server did not become ready (see %s)", logName)
		}
		// The server is ready in a few milliseconds: a coarser poll would
		// round its set-up time to the poll's period.
		time.Sleep(200 * time.Microsecond)
	}
}

// newClient returns the benchmark's HTTP client: at most maxConns
// connections per server. The service workloads are sized for a
// two-core machine, where two closed-loop connections keep every core
// of the server busy without queueing requests behind each other.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

const maxConns = 2

// roundTrip is the client-side timing of one sweep through a server:
// the POST /sweeps round trip, then the GET result.csv round trip,
// which waits for the sweep to finish.
type roundTrip struct {
	submit, result time.Duration
}

func (r roundTrip) total() time.Duration { return r.submit + r.result }

// sweep submits a request and fetches its CSV result.
func (s *serverProc) sweep(ctx context.Context, req protocol.SweepRequest) ([]byte, roundTrip, error) {
	var rt roundTrip
	body, err := json.Marshal(req)
	if err != nil {
		return nil, rt, err
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, rt, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	b, err := s.do(hreq, http.StatusAccepted)
	if err != nil {
		return nil, rt, fmt.Errorf("submit: %w", err)
	}
	rt.submit = time.Since(start)
	var sub protocol.SubmitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, rt, fmt.Errorf("submit response: %w", err)
	}
	start = time.Now()
	hreq, err = http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/sweeps/"+sub.ID+"/result.csv", nil)
	if err != nil {
		return nil, rt, err
	}
	csv, err := s.do(hreq, http.StatusOK)
	if err != nil {
		return nil, rt, fmt.Errorf("result of %s: %w", sub.ID, err)
	}
	rt.result = time.Since(start)
	return csv, rt, nil
}

func (s *serverProc) do(req *http.Request, want int) ([]byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Cache     cacheStats `json:"cache"`
	Scheduler *struct {
		RemoteComputed int64 `json:"remote_computed"`
		Expired        int64 `json:"expired"`
		Reassigned     int64 `json:"reassigned"`
	} `json:"scheduler"`
}

type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Joins  int64 `json:"joins"`
}

func (c cacheStats) sub(o cacheStats) cacheStats {
	return cacheStats{c.Hits - o.Hits, c.Misses - o.Misses, c.Joins - o.Joins}
}

// hitRatio is the share of cell lookups answered from the cache.
func (c cacheStats) hitRatio() float64 {
	return ratio(float64(c.Hits), float64(c.Hits+c.Misses+c.Joins))
}

func (s *serverProc) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/stats", nil)
	if err != nil {
		return st, err
	}
	b, err := s.do(req, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}
