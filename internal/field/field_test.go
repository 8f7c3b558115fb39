package field

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"tctp/internal/geom"
	"tctp/internal/xrand"
)

func baseCfg() Config {
	return Config{NumTargets: 20, NumMules: 4, Placement: Uniform}
}

func TestGenerateUniform(t *testing.T) {
	s := mustGenerate(baseCfg(), xrand.New(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumTargets() != 21 { // 20 + sink
		t.Fatalf("NumTargets = %d", s.NumTargets())
	}
	if s.NumMules() != 4 {
		t.Fatalf("NumMules = %d", s.NumMules())
	}
	if s.SinkID != 0 {
		t.Fatalf("SinkID = %d", s.SinkID)
	}
	if !s.Targets[0].Pos.Eq(geom.Pt(400, 400)) {
		t.Fatalf("sink at %v, want field centre", s.Targets[0].Pos)
	}
	if s.HasRecharge {
		t.Fatal("unexpected recharge station")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(baseCfg(), xrand.New(42))
	b := mustGenerate(baseCfg(), xrand.New(42))
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs across identical seeds", i)
		}
	}
	c := mustGenerate(baseCfg(), xrand.New(43))
	same := true
	for i := range a.Targets {
		if a.Targets[i] != c.Targets[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestGenerateClustersDisconnected(t *testing.T) {
	cfg := baseCfg()
	cfg.Placement = Clusters
	cfg.NumClusters = 3
	cfg.ClusterRadius = 60
	s := mustGenerate(cfg, xrand.New(7))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every generated (non-sink) target must be within ClusterRadius
	// of at least one cluster mate and the clusters must be separated:
	// check that targets split into groups with inter-group distance
	// greater than the 20 m communication range.
	pts := s.Points()[1:]
	// Union-find style grouping by 2*radius proximity.
	group := make([]int, len(pts))
	for i := range group {
		group[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if group[x] != x {
			group[x] = find(group[x])
		}
		return group[x]
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= 2*cfg.ClusterRadius {
				group[find(i)] = find(j)
			}
		}
	}
	roots := map[int]bool{}
	for i := range pts {
		roots[find(i)] = true
	}
	if len(roots) < 2 {
		t.Fatalf("expected ≥2 disconnected groups, got %d", len(roots))
	}
}

func TestGenerateGrid(t *testing.T) {
	cfg := baseCfg()
	cfg.Placement = Grid
	cfg.NumTargets = 9
	s := mustGenerate(cfg, xrand.New(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumTargets() != 10 {
		t.Fatalf("NumTargets = %d", s.NumTargets())
	}
	// Grid is deterministic: regenerating yields identical layout
	// even with a different seed.
	s2 := mustGenerate(cfg, xrand.New(999))
	for i := range s.Targets {
		if s.Targets[i] != s2.Targets[i] {
			t.Fatal("grid layout depends on seed")
		}
	}
}

func TestMulesAtSink(t *testing.T) {
	cfg := baseCfg()
	cfg.MulesAtSink = true
	s := mustGenerate(cfg, xrand.New(3))
	for i, m := range s.MuleStarts {
		if !m.Eq(s.Targets[s.SinkID].Pos) {
			t.Fatalf("mule %d at %v, want sink", i, m)
		}
	}
}

func TestWithRecharge(t *testing.T) {
	cfg := baseCfg()
	cfg.WithRecharge = true
	s := mustGenerate(cfg, xrand.New(3))
	if !s.HasRecharge {
		t.Fatal("recharge station missing")
	}
	if !s.Field.Contains(s.Recharge) {
		t.Fatalf("recharge station %v outside field", s.Recharge)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePanics(t *testing.T) {
	cases := []Config{
		{NumTargets: 0, NumMules: 1},
		{NumTargets: 5, NumMules: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			Generate(cfg, xrand.New(1))
		}()
	}
}

func TestAssignVIPs(t *testing.T) {
	s := mustGenerate(baseCfg(), xrand.New(5))
	s.AssignVIPs(xrand.New(6), 3, 4)
	vips := s.VIPs()
	if len(vips) != 3 {
		t.Fatalf("VIP count = %d", len(vips))
	}
	for _, id := range vips {
		if id == s.SinkID {
			t.Fatal("sink became a VIP")
		}
		if s.Targets[id].Weight != 4 {
			t.Fatalf("VIP %d weight = %d", id, s.Targets[id].Weight)
		}
	}
	// Idempotent re-assignment resets previous VIPs.
	s.AssignVIPs(xrand.New(7), 1, 2)
	if got := len(s.VIPs()); got != 1 {
		t.Fatalf("after reassignment VIP count = %d", got)
	}
}

func TestAssignVIPsPanics(t *testing.T) {
	s := mustGenerate(baseCfg(), xrand.New(5))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("weight 1 accepted")
			}
		}()
		s.AssignVIPs(xrand.New(1), 1, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized count accepted")
			}
		}()
		s.AssignVIPs(xrand.New(1), 100, 2)
	}()
}

func TestWeightsAndPoints(t *testing.T) {
	s := mustGenerate(baseCfg(), xrand.New(8))
	s.AssignVIPs(xrand.New(9), 2, 3)
	w := s.Weights()
	pts := s.Points()
	if len(w) != s.NumTargets() || len(pts) != s.NumTargets() {
		t.Fatal("length mismatch")
	}
	for i, target := range s.Targets {
		if w[i] != target.Weight || !pts[i].Eq(target.Pos) {
			t.Fatalf("index %d mismatch", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Scenario { return mustGenerate(baseCfg(), xrand.New(10)) }

	s := mk()
	s.SinkID = 99
	if s.Validate() == nil {
		t.Fatal("bad sink accepted")
	}

	s = mk()
	s.Targets[3].Weight = 0
	if s.Validate() == nil {
		t.Fatal("zero weight accepted")
	}

	s = mk()
	s.Targets[3].ID = 7
	if s.Validate() == nil {
		t.Fatal("inconsistent id accepted")
	}

	s = mk()
	s.Targets[3].Pos = geom.Pt(-50, 0)
	if s.Validate() == nil {
		t.Fatal("out-of-field target accepted")
	}

	s = mk()
	s.MuleStarts = nil
	if s.Validate() == nil {
		t.Fatal("empty fleet accepted")
	}

	s = mk()
	s.Targets = nil
	if s.Validate() == nil {
		t.Fatal("empty targets accepted")
	}

	s = mk()
	s.HasRecharge = true
	s.Recharge = geom.Pt(-1, -1)
	if s.Validate() == nil {
		t.Fatal("out-of-field recharge accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := baseCfg()
	cfg.WithRecharge = true
	s := mustGenerate(cfg, xrand.New(11))
	s.AssignVIPs(xrand.New(12), 2, 5)

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NumTargets() != s.NumTargets() || back.NumMules() != s.NumMules() {
		t.Fatal("sizes changed in round trip")
	}
	for i := range s.Targets {
		if s.Targets[i] != back.Targets[i] {
			t.Fatalf("target %d changed in round trip", i)
		}
	}
	if back.Recharge != s.Recharge || back.HasRecharge != s.HasRecharge {
		t.Fatal("recharge changed in round trip")
	}
}

func TestClone(t *testing.T) {
	s := mustGenerate(baseCfg(), xrand.New(13))
	c := s.Clone()
	c.Targets[1].Weight = 9
	c.MuleStarts[0] = geom.Pt(-1, -1)
	if s.Targets[1].Weight == 9 {
		t.Fatal("Clone shares target slice")
	}
	if s.MuleStarts[0].Eq(geom.Pt(-1, -1)) {
		t.Fatal("Clone shares mule slice")
	}
}

func TestPlacementString(t *testing.T) {
	for _, p := range []Placement{Uniform, Clusters, Grid, Corridor, Hotspot, Placement(9)} {
		if p.String() == "" {
			t.Fatal("empty placement name")
		}
	}
	// ParsePlacement inverts String for every real placement.
	for _, p := range []Placement{Uniform, Clusters, Grid, Corridor, Hotspot} {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestGenerateCorridor(t *testing.T) {
	cfg := baseCfg()
	cfg.Placement = Corridor
	s := mustGenerate(cfg, xrand.New(5))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-sink target sits inside the central band.
	half := cfg.Height / 12
	if cfg.Height == 0 {
		half = 800.0 / 12
	}
	mid := 400.0
	for _, tg := range s.Targets[1:] {
		if tg.Pos.Y < mid-half-1e-9 || tg.Pos.Y > mid+half+1e-9 {
			t.Fatalf("target %d at y=%v outside corridor band", tg.ID, tg.Pos.Y)
		}
	}
}

func TestGenerateHotspot(t *testing.T) {
	cfg := baseCfg()
	cfg.Placement = Hotspot
	cfg.NumTargets = 30
	s := mustGenerate(cfg, xrand.New(5))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// At least 70% of the targets lie inside the hotspot disc.
	centre := geom.Pt(600, 600)
	inside := 0
	for _, tg := range s.Targets[1:] {
		if tg.Pos.Dist(centre) <= 80+1e-9 {
			inside++
		}
	}
	if inside < 21 {
		t.Fatalf("only %d/30 targets in the hotspot", inside)
	}
}

// Property: every generated target lies inside the field for arbitrary
// sizes and counts.
func TestGenerateInFieldProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw%8) + 1
		cfg := Config{NumTargets: n, NumMules: m, Placement: Uniform}
		s := mustGenerate(cfg, xrand.New(seed))
		if s.Validate() != nil {
			return false
		}
		for _, mule := range s.MuleStarts {
			if !s.Field.Contains(mule) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// mustGenerate is Generate for a config it can place.
func mustGenerate(cfg Config, src *xrand.Source) *Scenario {
	s, err := Generate(cfg, src)
	if err != nil {
		panic(err)
	}
	return s
}
