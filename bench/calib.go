package main

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host-load calibration. The baseline machine is a virtual machine that
// shares its host with other tenants, whose load reaches the programs
// here in two ways, each in phases from seconds to minutes:
//
//   - The host runs another tenant on a core this machine wanted. The
//     guest kernel counts that time as steal time in /proc/stat and
//     leaves it out of every process's processor time, so wall times
//     grow, up to double, and processor times do not.
//   - Every instruction runs slower (a busy sibling hyperthread, shared
//     caches, memory bandwidth), so wall and processor times grow
//     together, by up to a half. Nothing in the guest counts this.
//
// For the first, an operation's wall time is multiplied by the share of
// the processor time the machine's cores wanted during the operation
// that they got: busy over busy plus steal, from /proc/stat. Only time
// a core wanted counts as steal, so this holds for a program that keeps
// both cores busy and for a server that waits on its clients alike.
//
// For the second, a fixed kernel that calls no code of the repository
// runs one pass on every core right before and right after each
// operation, and the operation's wall and processor times are both
// multiplied by kernelRef over the kernel's processor time per pass in
// the two passes around it. A time is thus reported in seconds of a host
// that gives the programs every core they want, at the speed at which it
// runs the kernel in kernelRef. The kernel is a small discrete-event
// simulation (a binary-heap event queue, boxed events and growing
// per-target slices), so it leans on the allocator, the collector and
// the caches as the simulations under test do; a pure arithmetic loop
// barely slowed while the programs slowed by half. See bench/README.md,
// Host load, for the measurements.

// kernelRef is the reference processor time of one kernel pass, in
// seconds: about what a pass took with every core of the baseline
// machine (2-core Intel Xeon virtual machine, go1.24) running one
// (0.086 s by the median of 25 passes, 0.073 s at the fastest).
const kernelRef = 0.1

// kernelEvents is the number of events one kernel pass simulates.
const kernelEvents = 360_000

// factor is the calibration of the moment of a measurement: what its
// wall times and its processor times are multiplied by.
type factor struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu"`
}

// factorOf returns the calibration of a measurement between two kernel
// measurements (processor seconds per pass) and two readings of the
// machine's processor time.
func factorOf(kernelBefore, kernelAfter float64, hostBefore, hostAfter hostCPU) factor {
	cpu := 2 * kernelRef / (kernelBefore + kernelAfter)
	return factor{Wall: cpu * received(hostBefore, hostAfter), CPU: cpu}
}

// kernel runs one pass of the kernel on every core at once and returns
// the processor time (this process's) per pass, in seconds.
func kernel() float64 {
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = kernelPass(uint64(i + 1))
		}()
	}
	wg.Wait()
	kernelSink = sums[0]
	return (processCPU() - cpu0) / float64(n)
}

// hostCPU is the machine's processor time so far, in seconds, from the
// first line of /proc/stat: busy (user, nice, system, irq and softirq)
// and stolen by the host.
type hostCPU struct {
	busy, steal float64
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("/proc/stat: no cpu line with steal time")
	}
	// user nice system idle iowait irq softirq steal, in 1/100 s.
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return hostCPU{busy: (v[0] + v[1] + v[2] + v[5] + v[6]) / 100, steal: v[7] / 100}, nil
}

// received returns the share of the processor time the machine's cores
// wanted between two readings that they got; 1 when they wanted none.
func received(a, b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// processCPU returns this process's user plus system time, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // it cannot fail with RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// kernelSink keeps the compiler from dropping the kernel's work.
var kernelSink float64

type kevent struct {
	t      float64
	target int
}

type kqueue []kevent

func (q kqueue) Len() int           { return len(q) }
func (q kqueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q kqueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *kqueue) Push(x any)        { *q = append(*q, x.(kevent)) }
func (q *kqueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// kernelPass simulates 200 walkers visiting 50 targets, in runs of
// 60 000 events, each run with fresh state, and returns a checksum.
func kernelPass(seed uint64) float64 {
	const walkers, targets, perRun = 200, 50, 60_000
	var sum float64
	s := seed
	for done := 0; done < kernelEvents; done += perRun {
		q := &kqueue{}
		for i := range walkers {
			heap.Push(q, kevent{float64(i), i})
		}
		visits := make(map[int][]float64, targets)
		for range perRun {
			e := heap.Pop(q).(kevent)
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			visits[e.target%targets] = append(visits[e.target%targets], e.t)
			heap.Push(q, kevent{e.t + 1 + math.Sqrt(float64(s%1000)), e.target})
		}
		// In target order: a sum in the map's order would vary.
		for t := range targets {
			if v := visits[t]; len(v) > 0 {
				sum += v[len(v)/2]
			}
		}
	}
	return sum
}

// calibrated runs op with a kernel pass before it (unless the previous
// operation's closing pass is still fresh) and one after it, reads the
// machine's steal time around it, and scales every operation op added
// to r. prev carries the closing pass from one operation to the next;
// pass a pointer to 0 for the first.
func calibrated(r *result, prev *float64, op func() error) error {
	if *prev == 0 {
		*prev = kernel()
	}
	h0, err := readHostCPU()
	if err != nil {
		return err
	}
	n := len(r.ops)
	opErr := op()
	h1, err := readHostCPU()
	if err != nil {
		return err
	}
	after := kernel()
	f := factorOf(*prev, after, h0, h1)
	for i := n; i < len(r.ops); i++ {
		r.ops[i].scale = f
	}
	*prev = after
	return opErr
}

// setupBatch is the number of set-up samples between two kernel passes.
const setupBatch = 5

// measureSetups appends n set-up samples to r, scaled like operations'
// wall times: in batches of setupBatch launches between two kernel
// passes.
func measureSetups(r *result, n int, launch func() (time.Duration, error)) error {
	before := kernel()
	for len(r.setups) < n {
		h0, err := readHostCPU()
		if err != nil {
			return err
		}
		var batch []time.Duration
		for i := 0; i < setupBatch && len(r.setups)+len(batch) < n; i++ {
			d, err := launch()
			if err != nil {
				return err
			}
			batch = append(batch, d)
		}
		h1, err := readHostCPU()
		if err != nil {
			return err
		}
		after := kernel()
		s := factorOf(before, after, h0, h1).Wall
		for _, d := range batch {
			r.setups = append(r.setups, scaled{d.Seconds(), s})
		}
		before = after
	}
	return nil
}

// scaled is a raw wall time in seconds and the calibration factor of
// the moment it was measured.
type scaled struct {
	raw, scale float64
}

func (x scaled) value() float64 { return x.raw * x.scale }
