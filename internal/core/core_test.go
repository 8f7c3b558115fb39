package core

import (
	"math"
	"testing"
	"testing/quick"

	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

func scenario(seed uint64, targets, mules int) *field.Scenario {
	return mustGenerate(field.Config{
		NumTargets: targets,
		NumMules:   mules,
		Placement:  field.Uniform,
	}, xrand.New(seed))
}

// --- assignStartPoints -------------------------------------------------

func TestAssignNearestWithoutConflict(t *testing.T) {
	muleStarts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 100)}
	startPts := []geom.Point{geom.Pt(10, 0), geom.Pt(90, 100)}
	assign := assignStartPoints(muleStarts, startPts, nil)
	if assign[0] != 0 || assign[1] != 1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestAssignConflictEnergyRule(t *testing.T) {
	// Both mules closest to start point 0. The paper: the mule with
	// HIGHER remaining energy moves on to the next start point, the
	// lower-energy mule stays.
	muleStarts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	startPts := []geom.Point{geom.Pt(2, 0), geom.Pt(50, 0)}
	energies := []float64{10, 100} // mule 0 low, mule 1 high
	assign := assignStartPoints(muleStarts, startPts, energies)
	if assign[0] != 0 {
		t.Fatalf("low-energy mule displaced: %v", assign)
	}
	if assign[1] != 1 {
		t.Fatalf("high-energy mule did not move on: %v", assign)
	}
}

func TestAssignConflictTieByIndex(t *testing.T) {
	muleStarts := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1)}
	startPts := []geom.Point{geom.Pt(1, 0), geom.Pt(100, 0)}
	assign := assignStartPoints(muleStarts, startPts, nil)
	// Equal (nil) energies: lower index settles first.
	if assign[0] != 0 || assign[1] != 1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestAssignIsPermutation(t *testing.T) {
	src := xrand.New(3)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(12)
		ms := make([]geom.Point, n)
		sp := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			ms[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
			sp[i] = geom.Pt(src.Range(0, 800), src.Range(0, 800))
		}
		assign := assignStartPoints(ms, sp, nil)
		seen := make([]bool, n)
		for _, a := range assign {
			if a < 0 || a >= n || seen[a] {
				t.Fatalf("trial %d: assignment not a permutation: %v", trial, assign)
			}
			seen[a] = true
		}
	}
}

func TestAssignPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	assignStartPoints(make([]geom.Point, 2), make([]geom.Point, 3), nil)
}

// --- B-TCTP -------------------------------------------------------------

func TestBTCTPPlanStructure(t *testing.T) {
	s := scenario(1, 20, 4)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "B-TCTP" {
		t.Fatalf("Algorithm = %q", p.Algorithm)
	}
	// The master walk is a Hamiltonian circuit over all 21 targets.
	if err := p.Groups[0].Walk.Validate(s.NumTargets(), nil); err != nil {
		t.Fatal(err)
	}
	// Every mule's loop visits every target exactly once.
	for i, r := range p.Routes {
		counts := map[int]int{}
		for _, st := range r.Cycle[0].Stops {
			counts[st.TargetID]++
		}
		if len(counts) != s.NumTargets() {
			t.Fatalf("mule %d loop covers %d targets", i, len(counts))
		}
		for id, c := range counts {
			if c != 1 {
				t.Fatalf("mule %d visits target %d %d times", i, id, c)
			}
		}
		if len(r.Approach) != 1 || r.Approach[0].TargetID != mule.NoTarget {
			t.Fatalf("mule %d approach malformed: %+v", i, r.Approach)
		}
	}
}

func TestBTCTPWalkStartsAtNorthmost(t *testing.T) {
	s := scenario(2, 15, 3)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	first := pts[p.Groups[0].Walk.Seq[0]]
	for _, q := range pts {
		if q.Y > first.Y+geom.Eps {
			t.Fatalf("walk starts at %v but %v is more north", first, q)
		}
	}
}

func TestBTCTPStartPointsEquallySpaced(t *testing.T) {
	s := scenario(3, 25, 5)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	L := p.Groups[0].Walk.Length(pts)
	n := len(p.Groups[0].StartPoints)
	for k, sp := range p.Groups[0].StartPoints {
		want := p.Groups[0].Walk.PointsAt(pts, []float64{float64(k) * L / float64(n)})[0]
		if !sp.Eq(want) {
			t.Fatalf("start point %d at %v, want %v", k, sp, want)
		}
	}
}

func TestBTCTPLoopsAreRotationsOfOneOrder(t *testing.T) {
	s := scenario(4, 18, 4)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	// Concatenate each mule's loop twice; mule 0's loop must appear as
	// a contiguous subsequence (all loops are rotations of the same
	// cyclic order).
	ref := p.Routes[0].Cycle[0].Stops
	for i := 1; i < len(p.Routes); i++ {
		stops := p.Routes[i].Cycle[0].Stops
		doubled := append(append([]mule.Waypoint{}, stops...), stops...)
		found := false
		for off := 0; off < len(stops); off++ {
			match := true
			for k := range ref {
				if doubled[off+k].TargetID != ref[k].TargetID {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("mule %d loop is not a rotation of mule 0's", i)
		}
	}
}

func TestBTCTPHeuristics(t *testing.T) {
	s := scenario(5, 20, 3)
	for _, h := range []TourHeuristic{HullInsertion, NearestNeighborTour, GreedyEdgeTour} {
		p, err := (&BTCTP{Heuristic: h}).Plan(s)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := p.Groups[0].Walk.Validate(s.NumTargets(), nil); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
	if _, err := (&BTCTP{Heuristic: TourHeuristic(99)}).Plan(s); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestBTCTPImproveShortens(t *testing.T) {
	s := scenario(6, 40, 2)
	pts := s.Points()
	plain, err := (&BTCTP{Heuristic: NearestNeighborTour}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := (&BTCTP{Heuristic: NearestNeighborTour, Improve: true}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Groups[0].Walk.Length(pts) > plain.Groups[0].Walk.Length(pts)+1e-9 {
		t.Fatal("2-opt lengthened the circuit")
	}
}

func TestBTCTPSingleMule(t *testing.T) {
	s := scenario(7, 10, 1)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups[0].StartPoints) != 1 || p.Groups[0].Assignment[0] != 0 {
		t.Fatalf("single-mule plan: %v %v", p.Groups[0].StartPoints, p.Groups[0].Assignment)
	}
}

func TestTourHeuristicString(t *testing.T) {
	for _, h := range []TourHeuristic{HullInsertion, NearestNeighborTour, GreedyEdgeTour, TourHeuristic(7)} {
		if h.String() == "" {
			t.Fatal("empty heuristic name")
		}
	}
}

// --- angle rule ----------------------------------------------------------

func edgeMultiset(w walk.Walk) map[[2]int]int {
	out := map[[2]int]int{}
	n := len(w.Seq)
	for i := 0; i < n; i++ {
		u, v := w.Seq[i], w.Seq[(i+1)%n]
		if u > v {
			u, v = v, u
		}
		out[[2]int{u, v}]++
	}
	return out
}

func TestAngleRulePlainCircuitUnchanged(t *testing.T) {
	s := scenario(8, 12, 1)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	re := TraverseAngleRule(pts, p.Groups[0].Walk)
	if len(re.Seq) != len(p.Groups[0].Walk.Seq) {
		t.Fatalf("length changed: %d vs %d", len(re.Seq), len(p.Groups[0].Walk.Seq))
	}
	// Degree-2 vertices leave no choice: the sequence is identical.
	for i := range re.Seq {
		if re.Seq[i] != p.Groups[0].Walk.Seq[i] {
			t.Fatalf("plain circuit reordered at %d: %v vs %v", i, re.Seq, p.Groups[0].Walk.Seq)
		}
	}
}

func TestAngleRulePreservesEdgeMultiset(t *testing.T) {
	s := scenario(9, 15, 1)
	s.AssignVIPs(xrand.New(10), 3, 4)
	wt := &WTCTP{Policy: ShortestLength, DisableAngleRule: true}
	wpp, err := wt.BuildWPP(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	re := TraverseAngleRule(pts, wpp)
	a, b := edgeMultiset(wpp), edgeMultiset(re)
	if len(a) != len(b) {
		t.Fatalf("edge multisets differ in support: %d vs %d", len(a), len(b))
	}
	for k, c := range a {
		if b[k] != c {
			t.Fatalf("edge %v count %d vs %d", k, c, b[k])
		}
	}
	if math.Abs(re.Length(pts)-wpp.Length(pts)) > 1e-6 {
		t.Fatal("angle rule changed walk length")
	}
}

func TestAngleRulePreservesOccurrenceCounts(t *testing.T) {
	s := scenario(11, 12, 1)
	s.AssignVIPs(xrand.New(12), 2, 5)
	wt := &WTCTP{Policy: BalancingLength, DisableAngleRule: true}
	wpp, err := wt.BuildWPP(s)
	if err != nil {
		t.Fatal(err)
	}
	re := TraverseAngleRule(s.Points(), wpp)
	if err := re.Validate(s.NumTargets(), s.Weights()); err != nil {
		t.Fatal(err)
	}
}

func TestAngleRuleTinyWalk(t *testing.T) {
	w := walk.New([]int{0, 1})
	re := TraverseAngleRule([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, w)
	if len(re.Seq) != 2 {
		t.Fatalf("tiny walk changed: %v", re.Seq)
	}
}

// --- W-TCTP ---------------------------------------------------------------

func TestWTCTPSingleVIPDefinition3(t *testing.T) {
	s := scenario(13, 15, 2)
	s.AssignVIPs(xrand.New(14), 1, 3)
	vip := s.VIPs()[0]
	for _, policy := range []BreakPolicy{ShortestLength, BalancingLength} {
		wt := &WTCTP{Policy: policy}
		wpp, err := wt.BuildWPP(s)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		// Definition 3: w_i cycles intersect at the VIP; the walk is a
		// cycle; NTPs occur once.
		if err := wpp.Validate(s.NumTargets(), s.Weights()); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		cycles := wpp.CyclesAt(vip)
		if len(cycles) != 3 {
			t.Fatalf("%v: %d cycles at VIP, want 3", policy, len(cycles))
		}
		if hasConsecutiveDuplicate(wpp) {
			t.Fatalf("%v: degenerate zero-length edge in WPP", policy)
		}
	}
}

func TestWTCTPMultiVIP(t *testing.T) {
	s := scenario(15, 20, 2)
	s.AssignVIPs(xrand.New(16), 4, 3)
	for _, policy := range []BreakPolicy{ShortestLength, BalancingLength, RandomBreak} {
		wt := &WTCTP{Policy: policy, Rand: xrand.New(99)}
		wpp, err := wt.BuildWPP(s)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := wpp.Validate(s.NumTargets(), s.Weights()); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for _, vip := range s.VIPs() {
			if got := len(wpp.CyclesAt(vip)); got != 3 {
				t.Fatalf("%v: VIP %d has %d cycles", policy, vip, got)
			}
		}
	}
}

func TestWTCTPNoVIPsEqualsCircuit(t *testing.T) {
	s := scenario(17, 12, 2)
	wt := &WTCTP{}
	wpp, err := wt.BuildWPP(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := wpp.Validate(s.NumTargets(), nil); err != nil {
		t.Fatal(err)
	}
	base, err := Circuit(s, nil, HullInsertion, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wpp.Length(s.Points())-base.Length(s.Points())) > 1e-9 {
		t.Fatal("VIP-free WPP differs from base circuit")
	}
}

func TestWTCTPShortestNoLongerThanBalancing(t *testing.T) {
	for seed := uint64(20); seed < 30; seed++ {
		s := scenario(seed, 18, 2)
		s.AssignVIPs(xrand.New(seed+100), 2, 4)
		pts := s.Points()
		sp, err := (&WTCTP{Policy: ShortestLength}).BuildWPP(s)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := (&WTCTP{Policy: BalancingLength}).BuildWPP(s)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Length(pts) > bp.Length(pts)+1e-6 {
			t.Fatalf("seed %d: shortest policy length %.2f > balancing %.2f",
				seed, sp.Length(pts), bp.Length(pts))
		}
	}
}

func TestWTCTPBalancingBalancesBetter(t *testing.T) {
	// Aggregate imbalance at the VIP must not be worse under the
	// balancing policy than under the shortest policy, on average.
	imbalance := func(w walk.Walk, pts []geom.Point, vip int) float64 {
		lens := w.CycleLengthsAt(pts, vip)
		avg := 0.0
		for _, l := range lens {
			avg += l
		}
		avg /= float64(len(lens))
		sum := 0.0
		for _, l := range lens {
			sum += math.Abs(l - avg)
		}
		return sum
	}
	var shortTotal, balTotal float64
	for seed := uint64(40); seed < 52; seed++ {
		s := scenario(seed, 16, 2)
		s.AssignVIPs(xrand.New(seed+200), 1, 4)
		vip := s.VIPs()[0]
		pts := s.Points()
		sp, err := (&WTCTP{Policy: ShortestLength}).BuildWPP(s)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := (&WTCTP{Policy: BalancingLength}).BuildWPP(s)
		if err != nil {
			t.Fatal(err)
		}
		shortTotal += imbalance(sp, pts, vip)
		balTotal += imbalance(bp, pts, vip)
	}
	if balTotal > shortTotal+1e-6 {
		t.Fatalf("balancing policy less balanced on aggregate: %.2f vs %.2f",
			balTotal, shortTotal)
	}
}

func TestWTCTPWPPLongerThanBase(t *testing.T) {
	s := scenario(33, 15, 2)
	s.AssignVIPs(xrand.New(34), 2, 3)
	base, err := Circuit(s, nil, HullInsertion, false)
	if err != nil {
		t.Fatal(err)
	}
	wpp, err := (&WTCTP{Policy: ShortestLength}).BuildWPP(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	if wpp.Length(pts) < base.Length(pts)-1e-9 {
		t.Fatal("WPP shorter than base circuit")
	}
}

func TestWTCTPPlan(t *testing.T) {
	s := scenario(35, 18, 3)
	s.AssignVIPs(xrand.New(36), 2, 3)
	wt := &WTCTP{Policy: BalancingLength}
	p, err := wt.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "W-TCTP(balancing)" {
		t.Fatalf("Algorithm = %q", p.Algorithm)
	}
	// Each mule's loop visits VIPs w times per traversal.
	weights := s.Weights()
	for i, r := range p.Routes {
		counts := map[int]int{}
		for _, st := range r.Cycle[0].Stops {
			counts[st.TargetID]++
		}
		for id, w := range weights {
			if counts[id] != w {
				t.Fatalf("mule %d visits target %d %d times, want %d", i, id, counts[id], w)
			}
		}
	}
}

func TestWTCTPDegenerateNoBreakEdge(t *testing.T) {
	// Two targets plus sink: after the first break every edge touches
	// the VIP and no further cycle can be created.
	s := mustGenerate(field.Config{NumTargets: 2, NumMules: 1, Placement: field.Grid},
		xrand.New(1))
	s.Targets[1].Weight = 5
	_, err := (&WTCTP{Policy: ShortestLength}).BuildWPP(s)
	if err == nil {
		t.Fatal("expected no-valid-break-edge error")
	}
}

func TestBreakPolicyString(t *testing.T) {
	for _, p := range []BreakPolicy{ShortestLength, BalancingLength, RandomBreak, BreakPolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// Property: Definition 3 holds for random scenarios, weights and both
// policies.
func TestWPPDefinition3Property(t *testing.T) {
	f := func(seed uint64, nVIPRaw, weightRaw uint8, balance bool) bool {
		src := xrand.New(seed)
		s := mustGenerate(field.Config{
			NumTargets: 10 + src.Intn(15),
			NumMules:   1 + src.Intn(4),
			Placement:  field.Uniform,
		}, src)
		nVIP := int(nVIPRaw%4) + 1
		w := int(weightRaw%4) + 2
		s.AssignVIPs(src, nVIP, w)
		policy := ShortestLength
		if balance {
			policy = BalancingLength
		}
		wpp, err := (&WTCTP{Policy: policy}).BuildWPP(s)
		if err != nil {
			return false
		}
		if wpp.Validate(s.NumTargets(), s.Weights()) != nil {
			return false
		}
		for _, vip := range s.VIPs() {
			if len(wpp.CyclesAt(vip)) != w {
				return false
			}
		}
		return !hasConsecutiveDuplicate(wpp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- RW-TCTP ----------------------------------------------------------------

func rechargeScenario(seed uint64, targets, mules int) *field.Scenario {
	return mustGenerate(field.Config{
		NumTargets:   targets,
		NumMules:     mules,
		Placement:    field.Uniform,
		WithRecharge: true,
	}, xrand.New(seed))
}

func TestRWTCTPPlanStructure(t *testing.T) {
	s := rechargeScenario(50, 15, 3)
	s.AssignVIPs(xrand.New(51), 2, 3)
	r := &RWTCTP{}
	p, err := r.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if p.Rounds < 1 {
		t.Fatalf("Rounds = %d", p.Rounds)
	}
	for i, route := range p.Routes {
		// Last phase is the WRP traversal with exactly one recharge
		// stop.
		last := route.Cycle[len(route.Cycle)-1]
		if last.Repeat != 1 {
			t.Fatalf("mule %d WRP phase repeat %d", i, last.Repeat)
		}
		recharges := 0
		for _, st := range last.Stops {
			if st.Recharge {
				recharges++
				if !st.Pos.Eq(s.Recharge) {
					t.Fatalf("recharge stop at %v, station at %v", st.Pos, s.Recharge)
				}
			}
		}
		if recharges != 1 {
			t.Fatalf("mule %d WRP has %d recharge stops", i, recharges)
		}
		if p.Rounds > 1 {
			if len(route.Cycle) != 2 {
				t.Fatalf("mule %d has %d phases", i, len(route.Cycle))
			}
			if route.Cycle[0].Repeat != p.Rounds-1 {
				t.Fatalf("mule %d WPP repeat = %d, rounds = %d",
					i, route.Cycle[0].Repeat, p.Rounds)
			}
			// WPP phase has no recharge stop.
			for _, st := range route.Cycle[0].Stops {
				if st.Recharge {
					t.Fatalf("mule %d WPP phase contains a recharge stop", i)
				}
			}
			// WRP visits the same targets as WPP plus the station.
			if len(last.Stops) != len(route.Cycle[0].Stops)+1 {
				t.Fatalf("mule %d WRP stop count %d vs WPP %d",
					i, len(last.Stops), len(route.Cycle[0].Stops))
			}
		}
	}
}

func TestRWTCTPRechargeWalk(t *testing.T) {
	s := rechargeScenario(52, 12, 2)
	p, err := (&RWTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, v := range p.Groups[0].RechargeWalk.Seq {
		if v == RechargeID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("RechargeWalk has %d station entries", count)
	}
	if len(p.Groups[0].RechargeWalk.Seq) != len(p.Groups[0].Walk.Seq)+1 {
		t.Fatalf("RechargeWalk size %d, WPP size %d",
			len(p.Groups[0].RechargeWalk.Seq), len(p.Groups[0].Walk.Seq))
	}
}

func TestRWTCTPRequiresRecharge(t *testing.T) {
	s := scenario(53, 10, 2) // no recharge station
	if _, err := (&RWTCTP{}).Plan(s); err == nil {
		t.Fatal("plan without recharge station accepted")
	}
}

func TestRWTCTPInfeasibleBattery(t *testing.T) {
	s := rechargeScenario(54, 15, 2)
	r := &RWTCTP{}
	r.Model = energyModelWithCapacity(10) // 10 J: absurdly small
	if _, err := r.Plan(s); err == nil {
		t.Fatal("infeasible battery accepted")
	}
}

func TestRWTCTPRoundsShrinkWithBattery(t *testing.T) {
	s := rechargeScenario(55, 15, 2)
	big := &RWTCTP{}
	big.Model = energyModelWithCapacity(400_000)
	small := &RWTCTP{}
	small.Model = energyModelWithCapacity(100_000)
	pb, err := big.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := small.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Rounds <= ps.Rounds {
		t.Fatalf("rounds: big battery %d, small battery %d", pb.Rounds, ps.Rounds)
	}
}

func TestSelectRechargeEdgeIsMinimalDetour(t *testing.T) {
	s := rechargeScenario(56, 14, 1)
	p, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	pos, err := selectRechargeEdge(pts, p.Groups[0].Walk, s.Recharge)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Groups[0].Walk.Seq)
	chosen := geom.DetourCost(pts[p.Groups[0].Walk.Seq[pos]], pts[p.Groups[0].Walk.Seq[(pos+1)%n]], s.Recharge)
	for i := 0; i < n; i++ {
		c := geom.DetourCost(pts[p.Groups[0].Walk.Seq[i]], pts[p.Groups[0].Walk.Seq[(i+1)%n]], s.Recharge)
		if c < chosen-1e-9 {
			t.Fatalf("edge %d detour %.3f < chosen %.3f", i, c, chosen)
		}
	}
}

func TestRWTCTPSuperRoundAffordable(t *testing.T) {
	s := rechargeScenario(57, 18, 2)
	r := &RWTCTP{}
	p, err := r.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	m := r.model()
	wppLen := p.Groups[0].Walk.Length(pts)
	visits := p.Groups[0].Walk.Size()
	// Reconstruct WRP length from the plan's walks.
	var wrpLen float64
	{
		seq := p.Groups[0].RechargeWalk.Seq
		n := len(seq)
		get := func(i int) geom.Point {
			if seq[i] == RechargeID {
				return s.Recharge
			}
			return pts[seq[i]]
		}
		for i := 0; i < n; i++ {
			wrpLen += get(i).Dist(get((i + 1) % n))
		}
	}
	total := float64(p.Rounds-1)*m.RoundEnergy(wppLen, visits) +
		m.RoundEnergy(wrpLen, visits)
	if total > m.Capacity+1e-6 {
		t.Fatalf("super-round needs %.0f J > capacity %.0f J", total, m.Capacity)
	}
}

func TestRWTCTPName(t *testing.T) {
	r := &RWTCTP{}
	r.Policy = BalancingLength
	if r.Name() != "RW-TCTP(balancing)" {
		t.Fatalf("Name = %q", r.Name())
	}
}

// --- FleetPlan.Validate ------------------------------------------------------

func TestPlanValidateCatchesCorruption(t *testing.T) {
	s := scenario(60, 10, 3)
	mk := func() *FleetPlan {
		p, err := (&BTCTP{}).Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := mk()
	p.Groups[0].Assignment[0] = p.Groups[0].Assignment[1]
	if p.Validate(s) == nil {
		t.Fatal("duplicate assignment accepted")
	}

	p = mk()
	p.Groups[0].Assignment[0] = 99
	if p.Validate(s) == nil {
		t.Fatal("out-of-range assignment accepted")
	}

	p = mk()
	p.Routes[1].Cycle = nil
	if p.Validate(s) == nil {
		t.Fatal("empty cycle accepted")
	}

	p = mk()
	p.Routes[1].Cycle[0].Repeat = 0
	if p.Validate(s) == nil {
		t.Fatal("zero repeat accepted")
	}

	p = mk()
	p.Groups[0].StartPoints = p.Groups[0].StartPoints[:1]
	if p.Validate(s) == nil {
		t.Fatal("truncated start points accepted")
	}

	p = mk()
	p.Routes[0].Cycle[0].Stops = nil
	if p.Validate(s) == nil {
		t.Fatal("empty phase accepted")
	}
}

// energyModelWithCapacity builds the default model with a custom
// capacity.
func energyModelWithCapacity(capacity float64) energy.Model {
	m := energy.Default()
	m.Capacity = capacity
	return m
}

func TestBTCTPDwellField(t *testing.T) {
	s := scenario(70, 12, 3)
	// Default dwell (zero value → energy.DefaultDwell): holds may be
	// nonzero.
	def, err := (&BTCTP{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit zero dwell: every hold must be exactly zero (the
	// paper's own idealization needs no phase correction).
	zero, err := (&BTCTP{Dwell: NoDwell}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range zero.Routes {
		if r.ExtraHold != 0 {
			t.Fatalf("mule %d hold = %v with zero dwell", i, r.ExtraHold)
		}
	}
	// Holds scale linearly with dwell.
	big, err := (&BTCTP{Dwell: 10}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Routes {
		if def.Routes[i].ExtraHold == 0 {
			continue
		}
		ratio := big.Routes[i].ExtraHold / def.Routes[i].ExtraHold
		if math.Abs(ratio-10) > 1e-6 { // default dwell is 1 s
			t.Fatalf("mule %d hold ratio = %v, want 10", i, ratio)
		}
	}
	// Holds are normalized: the minimum hold is zero.
	min := math.Inf(1)
	for _, r := range def.Routes {
		if r.ExtraHold < min {
			min = r.ExtraHold
		}
	}
	if min != 0 {
		t.Fatalf("minimum hold = %v, want 0", min)
	}
}

func TestBTCTPEnergiesAffectAssignment(t *testing.T) {
	// Two mules at the same position contend for the same nearest
	// start point; per the paper the higher-energy mule moves on.
	s := scenario(71, 10, 2)
	s.MuleStarts[0] = s.MuleStarts[1]

	lowFirst, err := (&BTCTP{Energies: []float64{1, 100}}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	highFirst, err := (&BTCTP{Energies: []float64{100, 1}}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	// Swapping the energy order must swap the assignment.
	if lowFirst.Groups[0].Assignment[0] != highFirst.Groups[0].Assignment[1] ||
		lowFirst.Groups[0].Assignment[1] != highFirst.Groups[0].Assignment[0] {
		t.Fatalf("assignments %v vs %v do not mirror the energy swap",
			lowFirst.Groups[0].Assignment, highFirst.Groups[0].Assignment)
	}
}

// hasConsecutiveDuplicate reports whether any walk edge is degenerate
// (two consecutive identical targets, including the wrap edge). The
// WPP construction never produces such edges; the check backs the
// property tests.
func hasConsecutiveDuplicate(w walk.Walk) bool {
	n := len(w.Seq)
	if n < 2 {
		return false
	}
	for i := 0; i < n; i++ {
		if w.Seq[i] == w.Seq[(i+1)%n] {
			return true
		}
	}
	return false
}

func TestHasConsecutiveDuplicate(t *testing.T) {
	if hasConsecutiveDuplicate(walk.New([]int{0, 1, 2})) {
		t.Fatal("false positive")
	}
	if !hasConsecutiveDuplicate(walk.New([]int{0, 1, 1, 2})) {
		t.Fatal("missed interior duplicate")
	}
	if !hasConsecutiveDuplicate(walk.New([]int{2, 1, 0, 2})) {
		t.Fatal("missed wrap duplicate")
	}
	if hasConsecutiveDuplicate(walk.New([]int{0})) {
		t.Fatal("singleton flagged")
	}
}

// mustGenerate is field.Generate for a config it can place.
func mustGenerate(cfg field.Config, src *xrand.Source) *field.Scenario {
	s, err := field.Generate(cfg, src)
	if err != nil {
		panic(err)
	}
	return s
}
