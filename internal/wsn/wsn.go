// Package wsn models the data-collection application running on top
// of the patrolling fleet — the paper's motivating use case: sensor
// nodes at the targets continuously generate readings into bounded
// buffers, visiting data mules pick the readings up, and everything
// must be "collected back to the sink node within a given time
// constraint" (§I).
//
// Generation is deterministic (node i emits one packet every
// GenInterval seconds) and evaluated lazily at visit times, so the
// substrate adds no simulation events: it observes the mule fleet
// through the same visit hooks as the metrics recorder. Per-packet
// delivery latency is generation-to-sink time; packets that overflow
// a node's buffer before pickup are counted as lost (oldest dropped
// first), as is cargo aboard a mule whose battery dies.
package wsn

import (
	"fmt"
	"math"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/stats"
	"tctp/internal/xrand"
)

// Config parameterizes the data workload.
type Config struct {
	// GenInterval is the seconds between consecutive packets at each
	// node (default 60 s).
	GenInterval float64 `json:"gen_interval,omitempty"`
	// BufferCap is each node's buffer capacity in packets; when a
	// node has generated more uncollected packets than fit, the
	// oldest are dropped (0 means unbounded).
	BufferCap int `json:"buffer_cap,omitempty"`
	// Deadline is the delivery time constraint in seconds; packets
	// that reach the sink later still count as delivered but not as
	// on-time (default 3600 s).
	Deadline float64 `json:"deadline,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.GenInterval == 0 {
		c.GenInterval = 60
	}
	if c.Deadline == 0 {
		c.Deadline = 3600
	}
	return c
}

// BurstConfig parameterizes the event-driven burst workload: a subset
// of "hot" targets emits packets in Poisson bursts — exponential
// inter-burst gaps, Size packets per burst — instead of the periodic
// one-reading-per-interval model. Everything downstream (pickup,
// buffers, delivery, deadlines) is shared with the periodic workload.
type BurstConfig struct {
	// Hot is the number of burst-active targets, chosen uniformly among
	// the non-sink targets from the workload's random stream; 0 means
	// every non-sink target is hot.
	Hot int `json:"hot,omitempty"`
	// MeanGap is the mean seconds between bursts at each hot target
	// (exponential inter-arrival; default 3600 s).
	MeanGap float64 `json:"mean_gap,omitempty"`
	// Size is the number of packets per burst (default 10).
	Size int `json:"size,omitempty"`
	// BufferCap is each node's buffer capacity in packets (0 means
	// unbounded), as in Config.
	BufferCap int `json:"buffer_cap,omitempty"`
	// Deadline is the delivery time constraint in seconds (default
	// 3600 s), as in Config.
	Deadline float64 `json:"deadline,omitempty"`
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.MeanGap == 0 {
		c.MeanGap = 3600
	}
	if c.Size == 0 {
		c.Size = 10
	}
	if c.Deadline == 0 {
		c.Deadline = 3600
	}
	return c
}

// Packet is one sensor reading in transit.
type Packet struct {
	// Origin is the generating target.
	Origin int
	// Born is the generation time.
	Born float64
}

// Network is the data-collection overlay. It implements the
// patrol.Observer interface: register it in patrol.Options.Observers,
// run the simulation, then read the delivery statistics. Not safe for
// concurrent use; a simulation is single-threaded.
type Network struct {
	cfg    Config
	sinkID int
	n      int

	// collected[i] counts node i's packets already picked up or
	// dropped — i.e. generation indices 1..collected[i] are gone.
	collected []int
	cargo     map[int][]Packet

	delivered  int
	onTime     int
	overflowed int
	latency    stats.Accumulator
	maxLatency float64

	// prio is non-nil for the priority workload: prio[i] marks node
	// i's packets high-priority (VIP origins). Delivery statistics
	// split by class at the sink.
	prio        []bool
	deliveredHi int
	latencyHi   stats.Accumulator
	latencyLo   stats.Accumulator

	// burst is non-nil for the event-driven burst workload; the
	// periodic model stays on the arithmetic lazy path.
	burst *burstState
}

// burstState is the lazily evaluated per-target Poisson burst
// process. Each target owns an independent split stream, so the
// sampling order across targets cannot perturb the arrival times.
type burstState struct {
	cfg  BurstConfig
	hot  []bool
	src  []*xrand.Source
	next []float64   // next burst time per target
	born [][]float64 // generated packet born-times per target, ascending
}

// extendTo advances target i's burst process through time t,
// materializing the born-times of every packet generated by then.
func (b *burstState) extendTo(i int, t float64) {
	if !b.hot[i] {
		return
	}
	for b.next[i] <= t {
		at := b.next[i]
		for k := 0; k < b.cfg.Size; k++ {
			b.born[i] = append(b.born[i], at)
		}
		b.next[i] = at + expGap(b.src[i], b.cfg.MeanGap)
	}
}

// expGap samples an exponential inter-burst gap with the given mean.
func expGap(src *xrand.Source, mean float64) float64 {
	// 1−Float64() is in (0, 1], so the log is finite. Float64 is a
	// product, rounded here so it is never fused into the subtraction.
	return -mean * math.Log(1-float64(src.Float64()))
}

// New builds the overlay for the scenario's targets. The sink
// generates no data.
func New(s *field.Scenario, cfg Config) *Network {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("wsn: %v", err))
	}
	return &Network{
		cfg:       cfg.withDefaults(),
		sinkID:    s.SinkID,
		n:         s.NumTargets(),
		collected: make([]int, s.NumTargets()),
		cargo:     make(map[int][]Packet),
	}
}

// NewBursts builds the event-driven burst overlay for the scenario:
// cfg.Hot targets (chosen uniformly from src among the non-sink
// targets) emit Size-packet bursts with exponential inter-burst gaps.
// The sink generates no data. src drives all of the workload's
// randomness; each target gets an independent split stream, so the
// arrival processes are deterministic per seed regardless of visit
// order.
func NewBursts(s *field.Scenario, cfg BurstConfig, src *xrand.Source) *Network {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("wsn: %v", err))
	}
	cfg = cfg.withDefaults()
	n := s.NumTargets()
	b := &burstState{
		cfg:  cfg,
		hot:  make([]bool, n),
		src:  make([]*xrand.Source, n),
		next: make([]float64, n),
		born: make([][]float64, n),
	}
	var candidates []int
	for i := 0; i < n; i++ {
		if i != s.SinkID {
			candidates = append(candidates, i)
		}
	}
	if cfg.Hot <= 0 || cfg.Hot >= len(candidates) {
		for _, id := range candidates {
			b.hot[id] = true
		}
	} else {
		src.ShuffleInts(candidates)
		for _, id := range candidates[:cfg.Hot] {
			b.hot[id] = true
		}
	}
	// Per-target streams are split in id order — a fixed derivation —
	// and each hot target samples its first burst time up front.
	for i := 0; i < n; i++ {
		b.src[i] = src.Split()
		if b.hot[i] {
			b.next[i] = expGap(b.src[i], cfg.MeanGap)
		}
	}
	return &Network{
		cfg:       Config{BufferCap: cfg.BufferCap, Deadline: cfg.Deadline}.withDefaults(),
		sinkID:    s.SinkID,
		n:         n,
		collected: make([]int, n),
		cargo:     make(map[int][]Packet),
		burst:     b,
	}
}

// NewPriority builds the periodic overlay with per-class delivery
// accounting: packets originating at VIP targets (Weight > 1) are
// high-priority, everything else low. Generation, buffering, and
// pickup are identical to New — priority is a delivery-statistics
// split, not a scheduling change, so the overlay stays a pure
// observer.
func NewPriority(s *field.Scenario, cfg Config) *Network {
	nw := New(s, cfg)
	nw.prio = make([]bool, nw.n)
	for i, t := range s.Targets {
		nw.prio[i] = t.IsVIP()
	}
	return nw
}

// generatedBy returns how many packets node i has generated by time t
// (one every GenInterval, the first at t = GenInterval).
func (nw *Network) generatedBy(t float64) int {
	if t <= 0 {
		return 0
	}
	return int(t / nw.cfg.GenInterval)
}

// OnVisit is the patrol observer event: a pickup at any non-sink
// target, a delivery of the whole cargo at the sink.
func (nw *Network) OnVisit(muleID, target int, t float64) {
	if target < 0 || target >= nw.n {
		panic(fmt.Sprintf("wsn: visit to target %d of %d", target, nw.n))
	}
	if target == nw.sinkID {
		for _, p := range nw.cargo[muleID] {
			lat := t - p.Born
			nw.delivered++
			nw.latency.Add(lat)
			if lat > nw.maxLatency {
				nw.maxLatency = lat
			}
			if lat <= nw.cfg.Deadline {
				nw.onTime++
			}
			if nw.prio == nil {
				continue
			}
			if nw.prio[p.Origin] {
				nw.deliveredHi++
				nw.latencyHi.Add(lat)
			} else {
				nw.latencyLo.Add(lat)
			}
		}
		nw.cargo[muleID] = nw.cargo[muleID][:0]
		return
	}
	if nw.burst != nil {
		nw.collectBurst(muleID, target, t)
		return
	}

	total := nw.generatedBy(t)
	pending := total - nw.collected[target]
	if pending <= 0 {
		return
	}
	kept := pending
	if nw.cfg.BufferCap > 0 && kept > nw.cfg.BufferCap {
		nw.overflowed += kept - nw.cfg.BufferCap
		kept = nw.cfg.BufferCap
	}
	// The kept packets are the newest: generation indices
	// total-kept+1 .. total.
	for k := total - kept + 1; k <= total; k++ {
		nw.cargo[muleID] = append(nw.cargo[muleID], Packet{
			Origin: target,
			Born:   float64(k) * nw.cfg.GenInterval,
		})
	}
	nw.collected[target] = total
}

// collectBurst is the burst-mode pickup: materialize the target's
// burst process through t, then carry off the pending packets (newest
// first fit the buffer, exactly as in the periodic model).
func (nw *Network) collectBurst(muleID, target int, t float64) {
	b := nw.burst
	b.extendTo(target, t)
	total := len(b.born[target])
	pending := total - nw.collected[target]
	if pending <= 0 {
		return
	}
	kept := pending
	if nw.cfg.BufferCap > 0 && kept > nw.cfg.BufferCap {
		nw.overflowed += kept - nw.cfg.BufferCap
		kept = nw.cfg.BufferCap
	}
	for k := total - kept; k < total; k++ {
		nw.cargo[muleID] = append(nw.cargo[muleID], Packet{
			Origin: target,
			Born:   b.born[target][k],
		})
	}
	nw.collected[target] = total
}

// OnDeath is the patrol observer event for battery death: the mule's
// cargo is lost.
func (nw *Network) OnDeath(muleID int, _ float64, _ geom.Point) {
	nw.cargo[muleID] = nil
}

// OnRecharge completes the patrol.Observer interface; recharging does
// not touch cargo.
func (nw *Network) OnRecharge(int, float64) {}

// Delivered returns the number of packets that reached the sink.
func (nw *Network) Delivered() int { return nw.delivered }

// OnTimeFraction returns the on-time share of delivered packets
// (0 when nothing was delivered).
func (nw *Network) OnTimeFraction() float64 {
	if nw.delivered == 0 {
		return 0
	}
	return float64(nw.onTime) / float64(nw.delivered)
}

// Overflowed returns the number of packets dropped at full node
// buffers.
func (nw *Network) Overflowed() int { return nw.overflowed }

// MeanLatency returns the mean generation-to-sink latency of
// delivered packets in seconds.
func (nw *Network) MeanLatency() float64 { return nw.latency.Mean() }

// MaxLatency returns the worst delivery latency in seconds.
func (nw *Network) MaxLatency() float64 { return nw.maxLatency }

// DeliveredHigh returns the number of delivered high-priority packets
// (VIP origins); 0 for overlays without priority tracking.
func (nw *Network) DeliveredHigh() int { return nw.deliveredHi }

// MeanLatencyHigh returns the mean delivery latency of high-priority
// packets in seconds (0 when none were delivered).
func (nw *Network) MeanLatencyHigh() float64 { return nw.latencyHi.Mean() }

// MeanLatencyLow returns the mean delivery latency of low-priority
// packets in seconds (0 when none were delivered).
func (nw *Network) MeanLatencyLow() float64 { return nw.latencyLo.Mean() }
