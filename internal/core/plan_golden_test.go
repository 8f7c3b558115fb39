package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/xrand"
)

// planGolden pins every planner's FleetPlan bit for bit: the SHA-256 of
// the JSON of each plan (or the error it returned) over goldenScenarios,
// one hash per planner family. A refactor of the planning pipeline must
// leave every hash unchanged; a deliberate change to a planner's output
// updates the hash of its family and says so in the change description.
var planGolden = map[string]string{
	"absorb": "1680731cb66f547f3cad0acffbced8f3daafdfe4bbf30b750595966b331cc1bc",
	"btctp":  "5cb2a6b181fff8381ea4f42eb792e7e38c96f6e4ad9d37fe38b47c172ae390d8",
	"cbtctp": "7dba172ce2b5e3c83c6457e57efbe86ce28301d78cd75e30ecace4ee9a639fea",
	"chb":    "253e6734325f0c88c7826e8fc7d692dd9b3255305fd2032fed26b09fcf76c898",
	"cwtctp": "23f44fb85715389ccb468c1e98d696c298212ce2ffe5592addbcc076d3940dc0",
	"rwtctp": "f24e14e020e12540e2692b538ec207697ce36cfbb9ef55f9788c3a4982b60b0d",
	"sweep":  "f30b369d2b3c3206078622ef473ea31778a1165ae42e61e05e0e3443b44f2265",
	"wtctp":  "c1360ca99acfd18bc17d7b8e5abb0527a7ff367b0daa82e892b409ce117191d3",
}

// goldenScenarios returns 40 seeded scenarios covering all five
// placements, 5–60 targets plus the sink, 1–6 mules, VIPs of weight 2–4, mules
// at the sink or scattered, and a recharge station on every other one.
func goldenScenarios() []*field.Scenario {
	out := make([]*field.Scenario, 40)
	for i := range out {
		src := xrand.New(uint64(9000 + i))
		s, err := field.Generate(field.Config{
			NumTargets:   5 + (i*13)%56,
			NumMules:     1 + i%6,
			Placement:    field.Placement(i % 5),
			MulesAtSink:  i%4 == 1,
			WithRecharge: i%2 == 0,
		}, src)
		if err != nil {
			panic(err)
		}
		if i%3 != 0 {
			s.AssignVIPs(src, 1+i%3, 2+i%3)
		}
		out[i] = s
	}
	return out
}

// goldenPlanners returns every planner configuration the golden covers,
// keyed by family; seed feeds the planners that take a random source.
func goldenPlanners(seed uint64) map[string][]core.Planner {
	heuristics := []core.TourHeuristic{core.HullInsertion, core.NearestNeighborTour, core.GreedyEdgeTour}
	policies := []core.BreakPolicy{core.ShortestLength, core.BalancingLength, core.RandomBreak}
	ps := map[string][]core.Planner{
		"chb":   {&baseline.CHB{}},
		"sweep": {&baseline.Sweep{Rand: xrand.New(seed)}, &baseline.Sweep{Partition: core.SectorsMethod}},
	}
	for _, h := range heuristics {
		for _, improve := range []bool{false, true} {
			ps["btctp"] = append(ps["btctp"], &core.BTCTP{Heuristic: h, Improve: improve})
			ps["wtctp"] = append(ps["wtctp"], &core.WTCTP{Heuristic: h, Improve: improve})
		}
	}
	for _, p := range policies {
		ps["wtctp"] = append(ps["wtctp"], &core.WTCTP{Policy: p, Rand: xrand.New(seed)})
		ps["rwtctp"] = append(ps["rwtctp"], &core.RWTCTP{WTCTP: core.WTCTP{Policy: p}})
	}
	for _, m := range []core.PartitionMethod{core.KMeansMethod, core.SectorsMethod} {
		for _, k := range []int{1, 2, 3, 5} {
			for _, a := range []core.AllocPolicy{core.AllocByLength, core.AllocByCount} {
				cfg := core.PartitionConfig{Method: m, K: k, Alloc: a}
				ps["cbtctp"] = append(ps["cbtctp"], (&core.BTCTP{}).Partitioned(cfg, xrand.New(seed)))
				ps["cwtctp"] = append(ps["cwtctp"],
					(&core.WTCTP{Policy: core.BalancingLength}).Partitioned(cfg, xrand.New(seed)))
			}
		}
	}
	return ps
}

// writeGolden appends one labelled plan-or-error record to h.
func writeGolden(t *testing.T, h hash.Hash, label string, v any, err error) {
	t.Helper()
	fmt.Fprintf(h, "%s\n", label)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	b, jerr := json.Marshal(v)
	if jerr != nil {
		t.Fatalf("%s: %v", label, jerr)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// goldenReplans runs AbsorbReplan on s twice: after every mule of a
// three-region C-BTCTP plan's first group dies, and after a target that
// was dormant when a two-region plan was made spawns.
func goldenReplans(t *testing.T, h hash.Hash, i int, s *field.Scenario) {
	cfgs := []core.ReplanConfig{{}, {Heuristic: core.NearestNeighborTour, Improve: true}}
	if s.NumMules() >= 3 {
		plan, err := (&core.CBTCTP{Config: core.PartitionConfig{K: 3}}).Plan(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		alive := make([]bool, s.NumMules())
		for mi := range alive {
			alive[mi] = true
		}
		for _, mi := range plan.Groups[0].Mules {
			alive[mi] = false
		}
		for ci, cfg := range cfgs {
			rep, err := core.AbsorbReplan(s, plan.Groups, nil, alive, nil, cfg)
			writeGolden(t, h, fmt.Sprintf("%d death %d", i, ci), rep, err)
		}
	}
	if s.NumMules() >= 2 {
		active := make([]bool, s.NumTargets())
		for ti := range active {
			active[ti] = true
		}
		active[(s.SinkID+1+i%(s.NumTargets()-1))%s.NumTargets()] = false
		view, tids, _, err := core.ActiveView(s, active, nil, nil)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		plan, err := (&core.CBTCTP{Config: core.PartitionConfig{K: 2}}).Plan(view)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		prev := core.RemapPlan(plan, tids).Groups
		for ci, cfg := range cfgs {
			rep, err := core.AbsorbReplan(s, prev, nil, nil, nil, cfg)
			writeGolden(t, h, fmt.Sprintf("%d spawn %d", i, ci), rep, err)
		}
	}
}

// TestPlanGolden hashes every planner family's plans over the golden
// scenarios and compares each hash with planGolden.
func TestPlanGolden(t *testing.T) {
	hashes := map[string]hash.Hash{}
	for family := range planGolden {
		hashes[family] = sha256.New()
	}
	for i, s := range goldenScenarios() {
		for family, planners := range goldenPlanners(uint64(i)) {
			for pi, p := range planners {
				plan, err := p.Plan(s)
				writeGolden(t, hashes[family], fmt.Sprintf("%d %d %s", i, pi, p.Name()), plan, err)
			}
		}
		goldenReplans(t, hashes["absorb"], i, s)
	}
	for family, want := range planGolden {
		if got := fmt.Sprintf("%x", hashes[family].Sum(nil)); got != want {
			t.Errorf("%s plans changed: hash %s, want %s", family, got, want)
		}
	}
}
