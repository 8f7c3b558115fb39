package patrol

import (
	"math"
	"slices"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/xrand"
)

// scratchCell is one run a Scratch takes in turn.
type scratchCell struct {
	name string
	s    *field.Scenario
	alg  func() Algorithm
	opts Options
}

// scratchCells are three unlike runs: a large shared circuit, a small
// online fleet, and a weighted circuit whose mules fail and are
// absorbed by a replan.
func scratchCells(memo *core.Memo) []scratchCell {
	big := scenario(61, 50, 8)
	small := scenario(62, 10, 2)
	vip := scenario(63, 20, 4)
	vip.AssignVIPs(xrand.New(64), 3, 3)
	failures := Options{Horizon: 30_000, Handoff: HandoffAbsorb,
		Events: RandomFailures(vip.NumMules(), 0.5, 30_000, xrand.New(65))}
	return []scratchCell{
		{"B-TCTP n=50 m=8", big, func() Algorithm { return Memoized(Planned(&core.BTCTP{}), memo) }, Options{Horizon: 40_000}},
		{"Random n=10 m=2", small, func() Algorithm { return Online(&baseline.Random{}) }, Options{Horizon: 40_000}},
		{"W-TCTP 0.5:absorb", vip, func() Algorithm { return Memoized(Planned(&core.WTCTP{}), memo) }, failures},
	}
}

// extract reads what a sweep keeps of a run: every metric, each
// copied out of the Result.
func extract(res *Result) []float64 {
	rec := res.Recorder
	out := []float64{
		rec.AvgDCDT(), rec.AvgSD(), rec.AvgDCDTAfter(5_000), rec.AvgSDAfter(5_000), rec.MaxInterval(),
		res.TotalEnergy(), res.EnergyPerVisit(), float64(res.TotalVisits()), float64(res.DeadMules()),
		res.PatrolStart, float64(len(res.Failures)), float64(len(res.Replans)),
	}
	for g := range res.Groups {
		out = append(out, res.GroupDCDTAfter(g, 0), res.GroupSDAfter(g, 0), res.Groups[g].WalkLength)
	}
	for id := 0; id < rec.NumTargets(); id++ {
		out = append(out, rec.SD(id), rec.FirstVisitAfter(id, 1_000))
		out = append(out, rec.VisitTimes(id)...)
	}
	return append(out, rec.EventDCDTSeries(200)...)
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestScratchRunsMatchFresh: one Scratch runs three unlike cells in
// turn, twice over, and each Result and every metric is bit-identical
// to a fresh Run's, so nothing one run leaves in the scratch (its
// recorder's backing memory, mules, route tables, plan arena, engine)
// reaches the next. The values read from a run, as a sweep reads them,
// stay as they were while the scratch runs the cells after it.
func TestScratchRunsMatchFresh(t *testing.T) {
	memo := new(core.Memo)
	cells := scratchCells(memo)
	var sc Scratch
	var kept [][]float64
	for round := 0; round < 2; round++ {
		for _, c := range cells {
			got, err := sc.Run(c.s, c.alg(), c.opts, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(c.s, c.alg(), c.opts, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(got, want); d != "" {
				t.Fatalf("round %d, %s on a used scratch: %s", round, c.name, d)
			}
			if g, w := extract(got), extract(want); !sameBits(g, w) {
				t.Fatalf("round %d, %s: metrics on a used scratch differ from a fresh run's", round, c.name)
			}
			if c.opts.Events != nil && len(got.Replans) == 0 {
				t.Fatalf("%s replanned nothing", c.name)
			}
			kept = append(kept, extract(got))
		}
	}
	for i, v := range kept {
		c := cells[i%len(cells)]
		fresh, err := Run(c.s, c.alg(), c.opts, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(v, extract(fresh)) {
			t.Fatalf("run %d (%s): the values read from it changed when the scratch ran on", i, c.name)
		}
	}
}

// TestWarmScratchAllocationsStable: a warm Scratch runs each of the
// paper grid's five algorithms at n = 50, m = 8 with an allocation
// count that does not vary from one measurement to the next; a pool
// that misses after a collection, or an allocation that depends on map
// order, makes it flicker. The counts (B-TCTP 7, W-TCTP 10, CHB 6,
// Sweep 156, Random 28 at this writing) are what a run allocates that
// the scratch does not hold: the memo's keys, the algorithm's own
// value and random streams, the plan check's table, Sweep's regions
// and their circuits, Random's routers and their streams.
func TestWarmScratchAllocationsStable(t *testing.T) {
	memo := new(core.Memo)
	s := scenario(71, 50, 8)
	algs := []struct {
		name string
		make func(src *xrand.Source) Algorithm
	}{
		{"B-TCTP", func(*xrand.Source) Algorithm { return Memoized(Planned(&core.BTCTP{}), memo) }},
		{"W-TCTP", func(*xrand.Source) Algorithm { return Memoized(Planned(&core.WTCTP{}), memo) }},
		{"CHB", func(*xrand.Source) Algorithm { return Memoized(Planned(&baseline.CHB{}), memo) }},
		{"Sweep", func(src *xrand.Source) Algorithm {
			return Memoized(Planned(&baseline.Sweep{Rand: src}), memo)
		}},
		{"Random", func(*xrand.Source) Algorithm { return Online(&baseline.Random{}) }},
	}
	opts := Options{Horizon: 20_000}
	for _, a := range algs {
		var sc Scratch
		run := func() {
			src := xrand.New(3)
			if _, err := sc.Run(s, a.make(src.Split()), opts, src); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm
		first := testing.AllocsPerRun(100, run)
		for i := 1; i < 25; i++ {
			if n := testing.AllocsPerRun(100, run); n != first {
				t.Fatalf("%s: a warm scratch run allocates %v times, then %v", a.name, first, n)
			}
		}
		t.Logf("%s: %v allocations per warm run", a.name, first)
	}
}
