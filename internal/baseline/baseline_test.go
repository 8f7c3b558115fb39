package baseline

import (
	"testing"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/mule"
	"tctp/internal/sim"
	"tctp/internal/xrand"
)

func scenario(seed uint64, targets, mules int) *field.Scenario {
	s, err := field.Generate(field.Config{
		NumTargets: targets,
		NumMules:   mules,
		Placement:  field.Uniform,
	}, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return s
}

func TestCHBPlanValid(t *testing.T) {
	s := scenario(1, 20, 4)
	p, err := (&CHB{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "CHB" {
		t.Fatalf("Algorithm = %q", p.Algorithm)
	}
	// One group whose walk is a Hamiltonian circuit over all targets.
	if len(p.Groups) != 1 {
		t.Fatalf("CHB plan has %d groups, want 1", len(p.Groups))
	}
	if err := p.Groups[0].Walk.Validate(s.NumTargets(), nil); err != nil {
		t.Fatal(err)
	}
	// Every mule's loop covers all targets once.
	for i, r := range p.Routes {
		counts := map[int]int{}
		for _, st := range r.Cycle[0].Stops {
			counts[st.TargetID]++
		}
		if len(counts) != s.NumTargets() {
			t.Fatalf("mule %d covers %d targets", i, len(counts))
		}
	}
}

func TestCHBEntersAtNearestPoint(t *testing.T) {
	s := scenario(2, 15, 3)
	p, err := (&CHB{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	w := p.Groups[0].Walk
	for i, r := range p.Routes {
		entry := r.Approach[0].Pos
		// The entry point must be at the minimal distance from the
		// mule's start to the circuit (verified against a dense
		// sampling of the circuit).
		entryDist := s.MuleStarts[i].Dist(entry)
		total := w.Length(pts)
		for f := 0.0; f < 1.0; f += 0.001 {
			q := w.PointsAt(pts, []float64{f * total})[0]
			if s.MuleStarts[i].Dist(q) < entryDist-1.0 { // 1 m slack for sampling
				t.Fatalf("mule %d entry %.2f m but point %v is %.2f m away",
					i, entryDist, q, s.MuleStarts[i].Dist(q))
			}
		}
	}
}

// TestCHBBatchedAssignMatchesPerMule pins the batched start-point
// assignment (one NearestOffsets/RoutesFromArcs pass for the fleet) to
// the per-mule primitives it replaced: every route must be identical
// to calling NearestOffset + RouteFromArc for that mule alone.
func TestCHBBatchedAssignMatchesPerMule(t *testing.T) {
	s := scenario(7, 25, 6)
	p, err := (&CHB{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	w := p.Groups[0].Walk
	for i, start := range s.MuleStarts {
		want := core.RouteFromArc(pts, w, w.NearestOffset(pts, start))
		got := p.Routes[i]
		if got.Approach[0].Pos != want.Approach[0].Pos {
			t.Fatalf("mule %d entry %v, per-mule reference %v",
				i, got.Approach[0].Pos, want.Approach[0].Pos)
		}
		gs, ws := got.Cycle[0].Stops, want.Cycle[0].Stops
		if len(gs) != len(ws) {
			t.Fatalf("mule %d has %d stops, reference %d", i, len(gs), len(ws))
		}
		for k := range gs {
			if gs[k] != ws[k] {
				t.Fatalf("mule %d stop %d = %+v, reference %+v", i, k, gs[k], ws[k])
			}
		}
	}
}

func TestCHBNoLocationInit(t *testing.T) {
	// CHB must NOT equalize spacing: its start points are the mules'
	// nearest entry points, not an equal partition. With clumped mule
	// starts the entries must also clump.
	s := scenario(3, 12, 3)
	for i := range s.MuleStarts {
		s.MuleStarts[i] = s.Targets[s.SinkID].Pos // all at the sink
	}
	p, err := (&CHB{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Groups[0].StartPoints
	for i := 1; i < len(sp); i++ {
		if !sp[i].Eq(sp[0]) {
			t.Fatal("identical mule starts produced different entries")
		}
	}
}

func TestSweepPlanValid(t *testing.T) {
	s := scenario(4, 20, 4)
	for _, part := range []core.PartitionMethod{core.KMeansMethod, core.SectorsMethod} {
		sw := &Sweep{Partition: part}
		p, err := sw.Plan(s)
		if err != nil {
			t.Fatalf("%v: %v", part, err)
		}
		if err := p.Validate(s); err != nil {
			t.Fatalf("%v: %v", part, err)
		}
		// The union of all mule loops covers every target exactly
		// once (groups are disjoint and complete).
		counts := map[int]int{}
		for _, r := range p.Routes {
			for _, st := range r.Cycle[0].Stops {
				counts[st.TargetID]++
			}
		}
		if len(counts) != s.NumTargets() {
			t.Fatalf("%v: union covers %d targets, want %d", part, len(counts), s.NumTargets())
		}
		for id, c := range counts {
			if c != 1 {
				t.Fatalf("%v: target %d in %d groups", part, id, c)
			}
		}
	}
}

func TestSweepGroupsAreMuleExclusive(t *testing.T) {
	s := scenario(5, 18, 3)
	p, err := (&Sweep{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != s.NumMules() {
		t.Fatalf("Sweep plan has %d groups for %d mules", len(p.Groups), s.NumMules())
	}
	seen := map[int]bool{}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		if len(g.Mules) != 1 {
			t.Fatalf("group %d patrolled by %d mules, want 1", gi, len(g.Mules))
		}
		if seen[g.Mules[0]] {
			t.Fatalf("mule %d patrols two groups", g.Mules[0])
		}
		seen[g.Mules[0]] = true
	}
}

// twoClusterScenario is a hand-built two-region world with an obvious
// k=2 partition: the sink and two targets in the lower-left disc, and
// three targets in the upper-right disc.
func twoClusterScenario(muleStarts []geom.Point) *field.Scenario {
	mk := func(id int, x, y float64) field.Target {
		return field.Target{ID: id, Pos: geom.Pt(x, y), Weight: 1}
	}
	return &field.Scenario{
		Field: geom.NewRect(geom.Pt(0, 0), geom.Pt(800, 800)),
		Targets: []field.Target{
			mk(0, 100, 100), mk(1, 110, 100), mk(2, 100, 110),
			mk(3, 700, 700), mk(4, 710, 700), mk(5, 700, 710),
		},
		SinkID:     0,
		MuleStarts: muleStarts,
	}
}

// TestSweepMatchingOrderIndependent pins the (distance, index) settle
// order of the mule→group matching: the mule closest to a contested
// group keeps it regardless of its index, and permuting the mules
// permutes the matching consistently — the index-order greedy this
// replaces gave the contested group to whichever mule enumerated
// first.
func TestSweepMatchingOrderIndependent(t *testing.T) {
	// Both mules are nearest the lower-left group; mule 1 is closer,
	// so it must keep it and mule 0 must take the upper-right group.
	// The old index-order greedy assigned mule 0 the lower-left group.
	s := twoClusterScenario([]geom.Point{geom.Pt(390, 390), geom.Pt(150, 150)})
	p, err := (&Sweep{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	groupOfMule := func(p *core.FleetPlan, mule int) []int {
		for _, g := range p.Groups {
			for _, m := range g.Mules {
				if m == mule {
					return g.Targets
				}
			}
		}
		t.Fatalf("mule %d unassigned", mule)
		return nil
	}
	if got := groupOfMule(p, 1); got[0] != 0 {
		t.Fatalf("mule 1 (closest) patrols targets %v, want the sink's group {0,1,2}", got)
	}
	if got := groupOfMule(p, 0); got[0] != 3 {
		t.Fatalf("mule 0 patrols targets %v, want {3,4,5}", got)
	}

	// Permuting the mules permutes the matching consistently.
	sw := twoClusterScenario([]geom.Point{geom.Pt(150, 150), geom.Pt(390, 390)})
	ps, err := (&Sweep{}).Plan(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := groupOfMule(ps, 0); got[0] != 0 {
		t.Fatalf("after permutation, mule 0 patrols targets %v, want {0,1,2}", got)
	}
	if got := groupOfMule(ps, 1); got[0] != 3 {
		t.Fatalf("after permutation, mule 1 patrols targets %v, want {3,4,5}", got)
	}
}

func TestSweepTooManyMules(t *testing.T) {
	s := scenario(6, 2, 4) // 3 targets (incl. sink) for 4 mules
	if _, err := (&Sweep{}).Plan(s); err == nil {
		t.Fatal("expected error with more mules than targets")
	}
}

// TestPlannersRejectInvalidScenario: CHB validates in Plan and Sweep
// through core.Regions; both report the field validator's error.
func TestPlannersRejectInvalidScenario(t *testing.T) {
	s := scenario(8, 12, 3)
	s.Targets[2].Weight = 0
	want := s.Validate()
	for _, p := range []core.Planner{&CHB{}, &Sweep{}, &Sweep{Partition: core.SectorsMethod}} {
		if _, err := p.Plan(s); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", p.Name(), err, want)
		}
	}
}

func TestSweepDeterministicWithNilRand(t *testing.T) {
	s := scenario(7, 15, 3)
	a, err := (&Sweep{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Sweep{}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Routes {
		as, bs := a.Routes[i].Cycle[0].Stops, b.Routes[i].Cycle[0].Stops
		if len(as) != len(bs) {
			t.Fatal("sweep not deterministic")
		}
		for k := range as {
			if as[k].TargetID != bs[k].TargetID {
				t.Fatal("sweep not deterministic")
			}
		}
	}
}

func TestRandomRouterEpochSemantics(t *testing.T) {
	s := scenario(8, 9, 1) // 10 targets including sink
	r := &Random{}
	routers := r.NewRouters(s, xrand.New(42))
	if len(routers) != 1 {
		t.Fatalf("router count = %d", len(routers))
	}
	m := mule.New(sim.New(), mule.Config{Start: s.MuleStarts[0], Speed: 1, Router: routers[0]})
	seen := map[int]int{}
	// Two epochs: every target exactly twice.
	for i := 0; i < 2*s.NumTargets(); i++ {
		wp, dist, ok := routers[0].Next(m)
		if !ok {
			t.Fatal("random router parked")
		}
		if dist != m.Pos().Dist(wp.Pos) {
			t.Fatalf("leg length %v, want %v", dist, m.Pos().Dist(wp.Pos))
		}
		if wp.TargetID < 0 || wp.TargetID >= s.NumTargets() {
			t.Fatalf("bad target %d", wp.TargetID)
		}
		if !wp.Pos.Eq(s.Targets[wp.TargetID].Pos) {
			t.Fatal("waypoint position mismatch")
		}
		seen[wp.TargetID]++
	}
	for id, c := range seen {
		if c != 2 {
			t.Fatalf("target %d visited %d times in two epochs", id, c)
		}
	}
}

func TestRandomRoutersIndependent(t *testing.T) {
	s := scenario(9, 15, 2)
	routers := (&Random{}).NewRouters(s, xrand.New(7))
	m := mule.New(sim.New(), mule.Config{Speed: 1, Router: routers[0]})
	a, _, _ := routers[0].Next(m)
	b, _, _ := routers[1].Next(m)
	// Not a hard guarantee, but with 16 targets identical first picks
	// across independent streams are unlikely; a flake here would
	// indicate stream sharing.
	same := a.TargetID == b.TargetID
	c, _, _ := routers[0].Next(m)
	d, _, _ := routers[1].Next(m)
	if same && c.TargetID == d.TargetID {
		t.Fatal("routers appear to share one random stream")
	}
}

// TestPartitionString: Sweep's partition field is the C-planners'
// method, k-means by default, under the names the CLI parses.
func TestPartitionString(t *testing.T) {
	if got := (Sweep{}).Partition.String(); got != "kmeans" {
		t.Fatalf("default Sweep partition = %q, want kmeans", got)
	}
	for _, name := range []string{"kmeans", "sectors"} {
		m, err := core.ParsePartitionMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := (Sweep{Partition: m}).Partition.String(); got != name {
			t.Fatalf("Sweep partition %q renders as %q", name, got)
		}
	}
	if (Sweep{Partition: 9}).Partition.String() == "" {
		t.Fatal("empty partition name")
	}
}

var _ mule.Router = (*randomRouter)(nil)
