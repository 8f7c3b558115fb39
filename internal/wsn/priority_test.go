package wsn

import "testing"

// TestPriorityDeliverySplit pins the per-class accounting: packets
// originating at VIP targets land in the high-priority counters,
// everything else in the low-priority ones, and the aggregate
// statistics are untouched by the split.
func TestPriorityDeliverySplit(t *testing.T) {
	s := scenario()
	s.Targets[1].Weight = 2 // node 1 is the lone VIP origin
	nw := NewPriority(s, Config{GenInterval: 10, Deadline: 25})
	if nw.prio == nil {
		t.Fatal("NewPriority overlay has no priority split")
	}

	nw.OnVisit(0, 1, 35) // VIP packets born 10, 20, 30
	nw.OnVisit(0, 2, 45) // normal packets born 10, 20, 30, 40
	nw.OnVisit(0, 0, 50) // deliver: hi latencies 40,30,20; lo 40,30,20,10

	if nw.DeliveredHigh() != 3 || nw.delivered-nw.deliveredHi != 4 {
		t.Fatalf("split = %d hi / %d lo, want 3/4", nw.DeliveredHigh(), nw.delivered-nw.deliveredHi)
	}
	if !almost(nw.MeanLatencyHigh(), 30) {
		t.Fatalf("MeanLatencyHigh = %v, want 30", nw.MeanLatencyHigh())
	}
	if !almost(nw.MeanLatencyLow(), 25) {
		t.Fatalf("MeanLatencyLow = %v, want 25", nw.MeanLatencyLow())
	}
	// The aggregate view is the union of the classes.
	if nw.Delivered() != 7 || nw.onTime != 3 {
		t.Fatalf("aggregate delivered=%d onTime=%d, want 7/3", nw.Delivered(), nw.onTime)
	}
	if !almost(nw.MeanLatency(), 190.0/7) {
		t.Fatalf("MeanLatency = %v, want %v", nw.MeanLatency(), 190.0/7)
	}
}

// A plain overlay reports no split: everything counts as low priority
// and the high-priority accessors stay zero.
func TestPlainOverlayHasNoPrioritySplit(t *testing.T) {
	nw := New(scenario(), Config{GenInterval: 10, Deadline: 100})
	if nw.prio != nil {
		t.Fatal("plain overlay has a priority split")
	}
	nw.OnVisit(0, 1, 35)
	nw.OnVisit(0, 0, 50)
	if nw.DeliveredHigh() != 0 || nw.MeanLatencyHigh() != 0 {
		t.Fatalf("plain overlay tracked priority: hi=%d mean=%v",
			nw.DeliveredHigh(), nw.MeanLatencyHigh())
	}
	if nw.delivered-nw.deliveredHi != 3 {
		t.Fatalf("low-priority deliveries = %d, want all 3", nw.delivered-nw.deliveredHi)
	}
}
