package patrol

import (
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// fuzzReader hands out the bytes of a fuzz input one at a time, then
// zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzAlgorithms names the algorithms runAheadCase decodes, by the
// first byte of its input.
var fuzzAlgorithms = []string{"btctp", "wtctp", "chb", "sweep", "cbtctp", "random"}

// runAheadCase decodes a tiny run from data: an algorithm of
// fuzzAlgorithms (W-TCTP with VIPs); 1–12 targets on a coarse grid,
// where a high byte repeats the previous target's position; 1–6 mules,
// where a byte divisible by 3 starts a mule where the previous one
// starts, with mixed fleet speeds in some runs; a dwell of 0, 0.3, 1 or
// 2.5 s; a horizon of 100 s to about 7.8 ks, which onArrival asks the
// caller to move onto a recorded arrival (the arrival index comes
// next); and MaxEvents at the default, a little below or above the
// online bound (see onlineBound), or small.
func runAheadCase(data []byte) (s *field.Scenario, alg func() Algorithm, opts Options, onArrival bool, arrival int) {
	r := fuzzReader(data)
	kind := fuzzAlgorithms[r.next()%len(fuzzAlgorithms)]
	s = &field.Scenario{Field: geom.Rect{Max: geom.Point{X: 800, Y: 800}}}
	n := 1 + r.next()%12
	for i := 0; i < n; i++ {
		b := r.next()
		pos := geom.Point{X: float64(100 * (b % 9)), Y: float64(100 * (b / 9 % 9))}
		if b >= 128 && i > 0 {
			pos = s.Targets[i-1].Pos
		}
		s.Targets = append(s.Targets, field.Target{ID: i, Pos: pos, Weight: 1})
	}
	s.SinkID = r.next() % n
	m := 1 + r.next()%6
	for i := 0; i < m; i++ {
		b := r.next()
		pos := geom.Point{X: float64(100*(b%9)) + 50, Y: float64(100*(b/9%9)) + 50}
		if b%3 == 0 && i > 0 {
			pos = s.MuleStarts[i-1]
		}
		s.MuleStarts = append(s.MuleStarts, pos)
	}
	model := energy.Default()
	model.Dwell = []float64{0, 0.3, 1, 2.5}[r.next()%4]
	opts = Options{
		Energy:              model,
		Speed:               []float64{1, 2, 5}[r.next()%3],
		Horizon:             float64(100+30*r.next()) + float64(r.next())/7,
		NoSynchronizedStart: r.next()%2 == 1,
	}
	if r.next()%2 == 1 {
		opts.Fleet = make([]FleetMember, m)
		for i := range opts.Fleet {
			opts.Fleet[i].Speed = []float64{0, 0.7, 2, 3.5}[r.next()%4]
		}
	}
	b := r.next()
	onArrival, arrival = b%4 == 0, r.next()
	switch b = r.next(); b % 4 {
	case 1:
		if model.Dwell > 0 {
			opts.MaxEvents = onlineBound(m, opts.withDefaults()) + uint64(r.next()%5) - 2
		}
	case 2:
		opts.MaxEvents = uint64(50 + 20*r.next())
	}
	if model.Dwell == 0 && opts.MaxEvents == 0 {
		// A mule alone with one target and no dwell spins at one
		// instant until the MaxEvents guard stops it.
		opts.MaxEvents = 20_000
	}
	seed := uint64(r.next())
	switch kind {
	case "btctp":
		alg = func() Algorithm { return Planned(&core.BTCTP{Dwell: plannerDwell(model)}) }
	case "wtctp":
		s.AssignVIPs(xrand.New(seed), min(r.next()%3, n-1), 2+r.next()%2)
		alg = func() Algorithm { return Planned(&core.WTCTP{Dwell: plannerDwell(model)}) }
	case "chb":
		alg = func() Algorithm { return Planned(&baseline.CHB{}) }
	case "sweep":
		alg = func() Algorithm { return Planned(&baseline.Sweep{Rand: xrand.New(seed)}) }
	case "cbtctp":
		cfg := core.PartitionConfig{
			Method: []core.PartitionMethod{core.KMeansMethod, core.SectorsMethod}[r.next()%2],
			K:      1 + r.next()%m,
			Alloc:  []core.AllocPolicy{core.AllocByLength, core.AllocByCount}[r.next()%2],
		}
		alg = func() Algorithm {
			a, err := Partitioned(Planned(&core.BTCTP{Dwell: plannerDwell(model)}), cfg, xrand.New(seed))
			if err != nil {
				panic(err)
			}
			return a
		}
	default:
		alg = func() Algorithm { return Online(&baseline.Random{}) }
	}
	return s, alg, opts, onArrival, arrival
}

// plannerDwell is the planners' Dwell field for the model's dwell.
func plannerDwell(model energy.Model) float64 {
	if model.Dwell == 0 {
		return core.NoDwell
	}
	return model.Dwell
}

// FuzzRunAhead is the run-ahead oracle on tiny decoded runs (see
// runAheadCase): Run's visit logs, mule and group statistics, patrol
// start and plan must be bit-identical with and without a no-op
// observer, which keeps every mule on the engine. The runs ahead share
// one Scratch across inputs, and each follows a B-TCTP run on it, so
// an online run's logs start in a flat block a plan sized and every
// run starts from what the last input's runs left; the observed runs
// each take a fresh one.
func FuzzRunAhead(f *testing.F) {
	var sc Scratch
	f.Add([]byte{5, 11, 0, 1, 2, 200, 201, 30, 40, 3, 3, 5, 0, 0, 0, 2, 1, 90, 7, 0, 1, 1, 2, 0, 0, 1, 1, 9})
	f.Add([]byte{5, 3, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 1, 1, 200, 0, 1, 0, 0, 5, 1, 2})
	f.Add([]byte{0, 8, 10, 20, 30, 40, 50, 60, 70, 80, 1, 3, 3, 6, 9, 2, 1, 40, 3, 1, 0, 0, 7})
	f.Add([]byte{1, 9, 1, 12, 23, 34, 45, 56, 67, 78, 80, 0, 2, 4, 5, 3, 2, 120, 0, 0, 0, 0, 1, 3, 2, 1})
	f.Add([]byte{2, 6, 9, 18, 27, 36, 45, 54, 3, 4, 1, 2, 3, 4, 2, 0, 200, 9, 1, 1, 2, 3, 0, 1, 0})
	f.Add([]byte{3, 4, 130, 131, 10, 140, 0, 4, 1, 2, 3, 4, 1, 1, 255, 255, 0, 0, 0, 0, 3})
	f.Add([]byte{4, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 5, 3, 6, 9, 12, 15, 2, 0, 60, 1, 0, 1, 3, 2, 1, 0, 0, 9, 1, 1})
	f.Add([]byte{5, 1, 0, 0, 5, 0, 0, 0, 0, 0, 3, 0, 100, 0, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, alg, opts, onArrival, arrival := runAheadCase(data)
		observed := opts
		observed.Observers = []Observer{ObserverFuncs{}}
		if onArrival {
			probe, err := sc.Run(s, alg(), observed, xrand.New(1))
			if err != nil {
				t.Skip(err)
			}
			var all []float64
			for id := 0; id < probe.Recorder.NumTargets(); id++ {
				all = append(all, probe.Recorder.VisitTimes(id)...)
			}
			if len(all) > 0 {
				opts.Horizon = all[arrival%len(all)]
				observed.Horizon = opts.Horizon
			}
		}
		sc.Run(s, Planned(&core.BTCTP{}), Options{Horizon: opts.Horizon}, nil)
		got, err := sc.Run(s, alg(), opts, xrand.New(1))
		want, werr := Run(s, alg(), observed, xrand.New(1))
		if (err == nil) != (werr == nil) {
			t.Fatalf("errors %v and %v", err, werr)
		}
		if err != nil {
			t.Skip(err)
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%s, horizon %v, dwell %v, max events %d, fleet %v, unsynced %v, %d engine events: %s",
				got.Algorithm, opts.Horizon, opts.Energy.Dwell, opts.MaxEvents, opts.Fleet,
				opts.NoSynchronizedStart, got.Events, d)
		}
	})
}
