package wsn

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/xrand"
)

func scenario() *field.Scenario {
	s, err := field.Generate(field.Config{
		NumTargets: 5, NumMules: 2, Placement: field.Grid,
	}, xrand.New(1))
	if err != nil {
		panic(err)
	}
	return s
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// inTransit returns the number of packets currently aboard mules.
func inTransit(nw *Network) int {
	n := 0
	for _, c := range nw.cargo {
		n += len(c)
	}
	return n
}

func TestPickupAndDelivery(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10, Deadline: 100})
	// At t=35, node 1 has generated packets at 10, 20, 30.
	nw.OnVisit(0, 1, 35)
	if got := inTransit(nw); got != 3 {
		t.Fatalf("InTransit = %d", got)
	}
	if nw.Delivered() != 0 {
		t.Fatal("premature delivery")
	}
	// Sink visit at t=50: latencies 40, 30, 20 — all within 100.
	nw.OnVisit(0, 0, 50)
	if nw.Delivered() != 3 || inTransit(nw) != 0 {
		t.Fatalf("delivered=%d inTransit=%d", nw.Delivered(), inTransit(nw))
	}
	if !almost(nw.MeanLatency(), 30) {
		t.Fatalf("MeanLatency = %v, want 30", nw.MeanLatency())
	}
	if !almost(nw.MaxLatency(), 40) {
		t.Fatalf("MaxLatency = %v", nw.MaxLatency())
	}
	if nw.onTime != 3 || !almost(nw.OnTimeFraction(), 1) {
		t.Fatalf("OnTime = %d", nw.onTime)
	}
}

func TestNoDoubleCollection(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10})
	nw.OnVisit(0, 1, 35) // picks 3
	nw.OnVisit(1, 1, 36) // nothing new yet
	if inTransit(nw) != 3 {
		t.Fatalf("InTransit = %d", inTransit(nw))
	}
	nw.OnVisit(1, 1, 45) // one more (t=40)
	if inTransit(nw) != 4 {
		t.Fatalf("InTransit = %d", inTransit(nw))
	}
}

func TestDeadlineClassification(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10, Deadline: 25})
	nw.OnVisit(0, 2, 30) // packets born 10, 20, 30
	nw.OnVisit(0, 0, 40) // latencies 30, 20, 10 → 2 on time
	if nw.Delivered() != 3 || nw.onTime != 2 {
		t.Fatalf("delivered=%d onTime=%d", nw.Delivered(), nw.onTime)
	}
	if !almost(nw.OnTimeFraction(), 2.0/3.0) {
		t.Fatalf("OnTimeFraction = %v", nw.OnTimeFraction())
	}
}

func TestBufferOverflowDropsOldest(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10, BufferCap: 2})
	// By t=55 node 3 generated 5 packets; only the 2 newest (born 40,
	// 50) survive.
	nw.OnVisit(0, 3, 55)
	if nw.Overflowed() != 3 {
		t.Fatalf("Overflowed = %d", nw.Overflowed())
	}
	if inTransit(nw) != 2 {
		t.Fatalf("InTransit = %d", inTransit(nw))
	}
	nw.OnVisit(0, 0, 60)
	// Latencies: 20 (born 40) and 10 (born 50).
	if !almost(nw.MeanLatency(), 15) {
		t.Fatalf("MeanLatency = %v (oldest not dropped?)", nw.MeanLatency())
	}
}

func TestSinkGeneratesNothing(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10})
	nw.OnVisit(0, 0, 1000) // sink visit with empty cargo
	if nw.Delivered() != 0 || inTransit(nw) != 0 {
		t.Fatal("sink produced data")
	}
}

func TestDeathLosesCargo(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10})
	nw.OnVisit(0, 1, 35)
	if inTransit(nw) != 3 {
		t.Fatalf("InTransit = %d before death", inTransit(nw))
	}
	nw.OnDeath(0, 40, geom.Pt(0, 0))
	if inTransit(nw) != 0 {
		t.Fatalf("InTransit = %d after death", inTransit(nw))
	}
	// A later sink visit delivers nothing.
	nw.OnVisit(0, 0, 50)
	if nw.Delivered() != 0 {
		t.Fatal("dead mule delivered")
	}
}

func TestEarlyVisitNothingPending(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 100})
	nw.OnVisit(0, 1, 50) // before the first generation
	if inTransit(nw) != 0 {
		t.Fatal("picked up nonexistent packets")
	}
}

func TestPanicsOnBadTarget(t *testing.T) {
	nw := New(scenario(), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("bad target accepted")
		}
	}()
	nw.OnVisit(0, 99, 1)
}

func TestDefaults(t *testing.T) {
	nw := New(scenario(), Config{})
	if nw.cfg.GenInterval != 60 || nw.cfg.Deadline != 3600 {
		t.Fatalf("defaults = %+v", nw.cfg)
	}
	if nw.latency.SD() != 0 {
		t.Fatal("empty latency SD")
	}
	if nw.OnTimeFraction() != 0 {
		t.Fatal("empty on-time fraction")
	}
}

// Conservation property: generated = delivered + in transit +
// overflowed + still buffered at nodes, for arbitrary visit sequences
// (no mule dies, so no cargo is lost).
func TestConservationProperty(t *testing.T) {
	s := scenario()
	f := func(steps []uint16) bool {
		nw := New(s, Config{GenInterval: 7, BufferCap: 4})
		now := 0.0
		for _, raw := range steps {
			now += float64(raw%200) + 1
			target := int(raw) % s.NumTargets()
			mule := int(raw/7) % 2
			nw.OnVisit(mule, target, now)
		}
		// Account for every packet generated by the LAST pickup time
		// seen per node.
		accounted := nw.Delivered() + inTransit(nw) + nw.Overflowed()
		generatedCollected := 0
		for i, c := range nw.collected {
			if i == nw.sinkID {
				continue
			}
			generatedCollected += c
		}
		return accounted == generatedCollected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- burst workload -----------------------------------------------------

func TestBurstsGenerateOnlyAtHotTargets(t *testing.T) {
	s := scenario() // 6 targets incl. sink 0
	nw := NewBursts(s, BurstConfig{Hot: 2, MeanGap: 50, Size: 4}, xrand.New(3))
	hotCount := 0
	for i := 0; i < s.NumTargets(); i++ {
		if nw.burst.hot[i] {
			hotCount++
			if i == s.SinkID {
				t.Fatal("sink marked hot")
			}
		}
	}
	if hotCount != 2 {
		t.Fatalf("%d hot targets, want 2", hotCount)
	}
	// A long-horizon visit to a cold target picks up nothing; a hot
	// target eventually yields bursts in multiples of Size.
	for i := 1; i < s.NumTargets(); i++ {
		nw.OnVisit(0, i, 10_000)
	}
	if got := inTransit(nw); got == 0 || got%4 != 0 {
		t.Fatalf("in transit %d, want a positive multiple of the burst size", got)
	}
}

func TestBurstsDeterministicPerSource(t *testing.T) {
	s := scenario()
	collect := func(seed uint64) int {
		nw := NewBursts(s, BurstConfig{MeanGap: 100, Size: 3}, xrand.New(seed))
		for i := 1; i < s.NumTargets(); i++ {
			nw.OnVisit(0, i, 5_000)
		}
		return inTransit(nw)
	}
	if collect(7) != collect(7) {
		t.Fatal("equal sources produced different burst workloads")
	}
	same := true
	for _, seed := range []uint64{8, 9, 10} {
		if collect(seed) != collect(7) {
			same = false
		}
	}
	if same {
		t.Fatal("burst arrivals identical across distinct seeds")
	}
}

func TestBurstsVisitOrderIndependent(t *testing.T) {
	// Per-target split streams: visiting targets in different orders
	// must observe the same arrival processes.
	s := scenario()
	run := func(order []int) []int {
		nw := NewBursts(s, BurstConfig{MeanGap: 80, Size: 2}, xrand.New(11))
		for _, i := range order {
			nw.OnVisit(0, i, 3_000)
		}
		counts := make([]int, s.NumTargets())
		for i := range counts {
			counts[i] = nw.collected[i]
		}
		return counts
	}
	a := run([]int{1, 2, 3, 4, 5})
	b := run([]int{5, 3, 1, 4, 2})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("target %d collected %d vs %d depending on visit order", i, a[i], b[i])
		}
	}
}

func TestBurstsBufferOverflowAndDelivery(t *testing.T) {
	s := scenario()
	nw := NewBursts(s, BurstConfig{MeanGap: 10, Size: 5, BufferCap: 7, Deadline: 1_000}, xrand.New(5))
	// Let many bursts accrue; the 7-packet buffer drops the oldest.
	nw.OnVisit(0, 1, 50_000)
	if inTransit(nw) != 7 {
		t.Fatalf("in transit %d, want buffer cap 7", inTransit(nw))
	}
	if nw.Overflowed() == 0 {
		t.Fatal("no overflow recorded after a long unserviced stretch")
	}
	nw.OnVisit(0, s.SinkID, 50_100)
	if nw.Delivered() != 7 || inTransit(nw) != 0 {
		t.Fatalf("delivered=%d inTransit=%d", nw.Delivered(), inTransit(nw))
	}
	if nw.MaxLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestBurstsInterArrivalMean(t *testing.T) {
	// The exponential gap sampler should average near the configured
	// mean over many samples.
	src := xrand.New(21)
	total := 0.0
	const n = 20_000
	for i := 0; i < n; i++ {
		total += expGap(src, 300)
	}
	mean := total / n
	if mean < 280 || mean > 320 {
		t.Fatalf("exponential gap mean %.1f, want ~300", mean)
	}
}
