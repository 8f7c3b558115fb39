package core

import (
	"testing"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/xrand"
)

func clusteredScenario(seed uint64, targets, mules int) *field.Scenario {
	return field.Generate(field.Config{
		NumTargets: targets,
		NumMules:   mules,
		Placement:  field.Clusters,
	}, xrand.New(seed))
}

// --- C-BTCTP ------------------------------------------------------------

func TestCBTCTPPlanStructure(t *testing.T) {
	s := clusteredScenario(1, 20, 6)
	for _, method := range []PartitionMethod{KMeansMethod, SectorsMethod} {
		p, err := (&CBTCTP{Config: PartitionConfig{Method: method, K: 4}}).Plan(s)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := p.Validate(s); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(p.Groups) != 4 {
			t.Fatalf("%v: %d groups, want 4", method, len(p.Groups))
		}
		// Each group's walk is a Hamiltonian circuit over exactly its
		// member targets.
		for gi := range p.Groups {
			g := &p.Groups[gi]
			want := make([]int, s.NumTargets())
			for _, id := range g.Targets {
				want[id] = 1
			}
			if err := g.Walk.Validate(s.NumTargets(), want); err != nil {
				t.Fatalf("%v group %d: %v", method, gi, err)
			}
		}
		// Each mule's loop covers exactly its own group's targets.
		for gi := range p.Groups {
			g := &p.Groups[gi]
			member := map[int]bool{}
			for _, id := range g.Targets {
				member[id] = true
			}
			for _, mi := range g.Mules {
				for _, st := range p.Routes[mi].Cycle[0].Stops {
					if !member[st.TargetID] {
						t.Fatalf("%v: mule %d of group %d visits foreign target %d",
							method, mi, gi, st.TargetID)
					}
				}
			}
		}
	}
}

func TestCBTCTPGroupStartPointsEquallySpaced(t *testing.T) {
	s := clusteredScenario(2, 24, 8)
	p, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 3}}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	for gi := range p.Groups {
		g := &p.Groups[gi]
		L := g.Walk.Length(pts)
		n := len(g.StartPoints)
		for k, sp := range g.StartPoints {
			want := g.Walk.PointsAt(pts, []float64{float64(k) * L / float64(n)})[0]
			if !sp.Eq(want) {
				t.Fatalf("group %d start point %d at %v, want %v", gi, k, sp, want)
			}
		}
	}
}

func TestCBTCTPMuleAllocationProportional(t *testing.T) {
	s := clusteredScenario(3, 30, 9)
	p, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 3}}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	// Every group has >= 1 mule, and the longest-tour group has at
	// least as many mules as the shortest-tour group.
	type gl struct {
		mules int
		len   float64
	}
	var groups []gl
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if len(g.Mules) == 0 {
			t.Fatalf("group %d has no mules", gi)
		}
		groups = append(groups, gl{len(g.Mules), g.Walk.Length(pts)})
	}
	lo, hi := groups[0], groups[0]
	for _, g := range groups[1:] {
		if g.len < lo.len {
			lo = g
		}
		if g.len > hi.len {
			hi = g
		}
	}
	if hi.mules < lo.mules {
		t.Fatalf("longest tour (%0.f m) has %d mules, shortest (%0.f m) has %d",
			hi.len, hi.mules, lo.len, lo.mules)
	}
}

func TestCBTCTPErrors(t *testing.T) {
	s := clusteredScenario(4, 10, 2)
	if _, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 3}}).Plan(s); err == nil {
		t.Fatal("3 regions with 2 mules accepted")
	}
	if _, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 0}}).Plan(s); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 99}}).Plan(s); err == nil {
		t.Fatal("k beyond target count accepted")
	}
}

func TestCBTCTPDeterministic(t *testing.T) {
	s := clusteredScenario(5, 18, 5)
	mk := func() *FleetPlan {
		p, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 4}}).Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	if len(a.Groups) != len(b.Groups) {
		t.Fatal("group count differs between runs")
	}
	for gi := range a.Groups {
		ga, gb := &a.Groups[gi], &b.Groups[gi]
		if len(ga.Walk.Seq) != len(gb.Walk.Seq) {
			t.Fatal("walks differ between runs")
		}
		for i := range ga.Walk.Seq {
			if ga.Walk.Seq[i] != gb.Walk.Seq[i] {
				t.Fatal("walks differ between runs")
			}
		}
	}
}

// --- C-WTCTP ------------------------------------------------------------

func TestCWTCTPGroupWPPs(t *testing.T) {
	s := clusteredScenario(6, 20, 6)
	s.AssignVIPs(xrand.New(9), 4, 3)
	p, err := (&CWTCTP{
		WTCTP:  WTCTP{Policy: BalancingLength},
		Config: PartitionConfig{Method: KMeansMethod, K: 3},
	}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	// Every VIP occurs weight times on its own group's walk and on no
	// other group's walk.
	for _, vip := range s.VIPs() {
		total := 0
		for gi := range p.Groups {
			occ := p.Groups[gi].Walk.Occurrences(vip)
			if occ > 0 && occ != s.Targets[vip].Weight {
				t.Fatalf("VIP %d occurs %d times in group %d, want %d",
					vip, occ, gi, s.Targets[vip].Weight)
			}
			total += occ
		}
		if total != s.Targets[vip].Weight {
			t.Fatalf("VIP %d occurs %d times across groups, want %d",
				vip, total, s.Targets[vip].Weight)
		}
	}
}

// --- Partitionable wiring ----------------------------------------------

func TestPartitionedPlannerDerivation(t *testing.T) {
	cfg := PartitionConfig{Method: SectorsMethod, K: 2}
	base := &BTCTP{Improve: true}
	cp, ok := base.Partitioned(cfg, nil).(*CBTCTP)
	if !ok {
		t.Fatal("BTCTP.Partitioned did not return a *CBTCTP")
	}
	if !cp.Improve || cp.Config != cfg {
		t.Fatalf("partitioned planner dropped knobs: %+v", cp)
	}
	wt := &WTCTP{Policy: BalancingLength}
	cw, ok := wt.Partitioned(cfg, xrand.New(3)).(*CWTCTP)
	if !ok {
		t.Fatal("WTCTP.Partitioned did not return a *CWTCTP")
	}
	if cw.Policy != BalancingLength || cw.Config != cfg {
		t.Fatalf("partitioned planner dropped knobs: %+v", cw)
	}
}

func TestPartitionConfigString(t *testing.T) {
	cases := map[string]PartitionConfig{
		"kmeans:4":        {Method: KMeansMethod, K: 4},
		"sectors:2":       {Method: SectorsMethod, K: 2},
		"kmeans:3:count":  {Method: KMeansMethod, K: 3, Alloc: AllocByCount},
		"sectors:5:count": {Method: SectorsMethod, K: 5, Alloc: AllocByCount},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Fatalf("PartitionConfig%+v.String() = %q, want %q", cfg, got, want)
		}
	}
}

// --- allocation and matching -------------------------------------------

func TestAllocateMulesLargestRemainder(t *testing.T) {
	cases := []struct {
		n       int
		weights []float64
		want    []int
	}{
		// Every region gets 1; the 7 extras split ~proportionally.
		{10, []float64{100, 100, 100}, []int{4, 3, 3}},
		// One dominant region takes nearly all extras.
		{6, []float64{900, 50, 50}, []int{4, 1, 1}},
		// n == k: exactly one each regardless of weight.
		{3, []float64{5, 1000, 1}, []int{1, 1, 1}},
		// Zero total weight: extras split evenly, ties by index.
		{5, []float64{0, 0, 0}, []int{2, 2, 1}},
	}
	for _, c := range cases {
		got := allocateMules(c.n, c.weights)
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != c.want[i] {
				t.Fatalf("allocateMules(%d, %v) = %v, want %v", c.n, c.weights, got, c.want)
			}
		}
		if total != c.n {
			t.Fatalf("allocateMules(%d, %v) sums to %d", c.n, c.weights, total)
		}
	}
}

func TestMatchMulesToGroupsClosestWins(t *testing.T) {
	centroids := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	// Both mules are nearest centroid 0; mule 1 is closer and must
	// keep it even though mule 0 enumerates first.
	starts := []geom.Point{geom.Pt(40, 0), geom.Pt(10, 0)}
	got := MatchMulesToGroups(starts, centroids, []int{1, 1})
	if got[1] != 0 || got[0] != 1 {
		t.Fatalf("matching %v, want mule 1 → group 0, mule 0 → group 1", got)
	}
	// Permuting the mules permutes the matching consistently.
	swapped := MatchMulesToGroups(
		[]geom.Point{starts[1], starts[0]}, centroids, []int{1, 1})
	if swapped[0] != got[1] || swapped[1] != got[0] {
		t.Fatalf("matching not permutation-consistent: %v vs %v", got, swapped)
	}
}

func TestMatchMulesToGroupsCapacity(t *testing.T) {
	centroids := []geom.Point{geom.Pt(0, 0), geom.Pt(1000, 0)}
	starts := []geom.Point{
		geom.Pt(0, 1), geom.Pt(0, 2), geom.Pt(0, 3), geom.Pt(999, 0),
	}
	got := MatchMulesToGroups(starts, centroids, []int{2, 2})
	counts := map[int]int{}
	for _, g := range got {
		counts[g]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("capacities violated: %v", got)
	}
	if got[3] != 1 {
		t.Fatalf("mule 3 (next to group 1) assigned %d", got[3])
	}
}

func TestMatchMulesToGroupsPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on capacity mismatch")
		}
	}()
	MatchMulesToGroups(make([]geom.Point, 3), make([]geom.Point, 2), []int{1, 1})
}
