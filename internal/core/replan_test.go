package core

import (
	"fmt"
	"reflect"
	"testing"

	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/xrand"
)

// cplan builds a k-group C-BTCTP plan for replan tests.
func cplan(t *testing.T, s *field.Scenario, k int) *FleetPlan {
	t.Helper()
	p, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: k}}).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPartition verifies the global-id group bookkeeping: every
// active target owned exactly once, every alive mule owned exactly
// once, nothing else owned at all.
func checkPartition(t *testing.T, groups []PatrolGroup, s *field.Scenario, active, alive []bool) {
	t.Helper()
	tOwned := make([]int, s.NumTargets())
	mOwned := make([]int, s.NumMules())
	for _, g := range groups {
		for _, tid := range g.Targets {
			tOwned[tid]++
		}
		for _, mi := range g.Mules {
			mOwned[mi]++
		}
	}
	for i := 0; i < s.NumTargets(); i++ {
		want := 1
		if active != nil && !active[i] {
			want = 0
		}
		if tOwned[i] != want {
			t.Fatalf("target %d owned %d times, want %d", i, tOwned[i], want)
		}
	}
	for i := 0; i < s.NumMules(); i++ {
		want := 1
		if alive != nil && !alive[i] {
			want = 0
		}
		if mOwned[i] != want {
			t.Fatalf("mule %d owned %d times, want %d", i, mOwned[i], want)
		}
	}
}

// TestActiveViewRenumber: inactive targets drop out, survivors are
// renumbered ascending, the sink follows, and the id tables round-trip.
func TestActiveViewRenumber(t *testing.T) {
	s := clusteredScenario(1, 12, 4)
	active := make([]bool, s.NumTargets())
	for i := range active {
		active[i] = true
	}
	active[3], active[7] = false, false
	alive := []bool{true, false, true, true}
	view, tids, mids, err := ActiveView(s, active, alive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if view.NumTargets() != s.NumTargets()-2 || view.NumMules() != 3 {
		t.Fatalf("view %d targets %d mules", view.NumTargets(), view.NumMules())
	}
	if tids[view.SinkID] != s.SinkID {
		t.Fatalf("sink remapped to global %d, want %d", tids[view.SinkID], s.SinkID)
	}
	for li, gi := range tids {
		if !active[gi] {
			t.Fatalf("inactive target %d kept (view %d)", gi, li)
		}
		if view.Targets[li].Pos != s.Targets[gi].Pos {
			t.Fatalf("view target %d position mismatch", li)
		}
		if li > 0 && tids[li-1] >= gi {
			t.Fatal("target ids not ascending")
		}
	}
	if len(mids) != 3 || mids[0] != 0 || mids[1] != 2 || mids[2] != 3 {
		t.Fatalf("mule ids %v", mids)
	}
	// The sink must stay active.
	active[s.SinkID] = false
	if _, _, _, err := ActiveView(s, active, nil, nil); err == nil {
		t.Fatal("ActiveView accepted an inactive sink")
	}
}

// TestAbsorbReplanValidate: kill a whole group; the replanned plan
// validates against its reduced view and the global bookkeeping stays
// a partition of the survivors.
func TestAbsorbReplanValidate(t *testing.T) {
	s := clusteredScenario(2, 24, 6)
	plan := cplan(t, s, 3)
	alive := make([]bool, s.NumMules())
	for i := range alive {
		alive[i] = true
	}
	for _, mi := range plan.Groups[0].Mules {
		alive[mi] = false
	}
	positions := append([]geom.Point(nil), s.MuleStarts...)
	rep, err := AbsorbReplan(s, plan.Groups, nil, alive, positions, ReplanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Plan.Validate(rep.View); err != nil {
		t.Fatalf("replanned plan invalid: %v", err)
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("%d surviving groups, want 2", len(rep.Groups))
	}
	checkPartition(t, rep.Groups, s, nil, alive)
	// The dead group's targets moved as one block into a single group.
	ownerOf := map[int]int{}
	for gi, g := range rep.Groups {
		for _, tid := range g.Targets {
			ownerOf[tid] = gi
		}
	}
	blockOwner := -1
	for _, tid := range plan.Groups[0].Targets {
		if blockOwner == -1 {
			blockOwner = ownerOf[tid]
		} else if ownerOf[tid] != blockOwner {
			t.Fatalf("dead group's targets split across groups %d and %d", blockOwner, ownerOf[tid])
		}
	}
}

// TestAbsorbReplanDeterministic: no randomness anywhere — identical
// inputs give identical plans, walk for walk.
func TestAbsorbReplanDeterministic(t *testing.T) {
	s := clusteredScenario(4, 20, 6)
	plan := cplan(t, s, 3)
	alive := make([]bool, s.NumMules())
	for i := range alive {
		alive[i] = true
	}
	alive[plan.Groups[1].Mules[0]] = false
	a, err := AbsorbReplan(s, plan.Groups, nil, alive, nil, ReplanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AbsorbReplan(s, plan.Groups, nil, alive, nil, ReplanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for gi := range a.Groups {
		if !reflect.DeepEqual(a.Groups[gi].Walk.Seq, b.Groups[gi].Walk.Seq) {
			t.Fatalf("group %d walk differs between identical replans", gi)
		}
	}
}

// TestAbsorbReplanSpawn: an active target owned by no previous group
// (a spawn) joins exactly one surviving group, whose circuit is
// rebuilt to include it.
func TestAbsorbReplanSpawn(t *testing.T) {
	s := clusteredScenario(3, 18, 4)
	plan := cplan(t, s, 2)
	spawn := -1
	prev := make([]PatrolGroup, len(plan.Groups))
	for gi, g := range plan.Groups {
		prev[gi] = g
		if gi == 0 {
			// Pretend the last target of group 0 had been dormant at
			// plan time: the previous plan never owned it.
			kept := append([]int(nil), g.Targets...)
			for i, tid := range kept {
				if tid != s.SinkID {
					spawn = tid
					kept = append(kept[:i], kept[i+1:]...)
					break
				}
			}
			prev[gi].Targets = kept
		}
	}
	if spawn < 0 {
		t.Fatal("no spawn candidate")
	}
	rep, err := AbsorbReplan(s, prev, nil, nil, nil, ReplanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, rep.Groups, s, nil, nil)
	owner := -1
	for gi, g := range rep.Groups {
		for _, tid := range g.Targets {
			if tid == spawn {
				owner = gi
			}
		}
	}
	if owner < 0 {
		t.Fatalf("spawned target %d unowned after replan", spawn)
	}
	seen := false
	for _, g := range rep.Groups {
		for _, stop := range g.Walk.Seq {
			if stop == spawn {
				seen = true
			}
		}
	}
	if !seen {
		t.Fatalf("spawned target %d missing from every walk", spawn)
	}
}

// TestAbsorbReplanRefusals: no previous groups, no surviving mules,
// and no surviving groups are errors, not panics.
func TestAbsorbReplanRefusals(t *testing.T) {
	s := clusteredScenario(5, 10, 2)
	plan := cplan(t, s, 1)
	if _, err := AbsorbReplan(s, nil, nil, nil, nil, ReplanConfig{}); err == nil {
		t.Fatal("accepted empty previous groups")
	}
	dead := make([]bool, s.NumMules())
	if _, err := AbsorbReplan(s, plan.Groups, nil, dead, nil, ReplanConfig{}); err == nil {
		t.Fatal("accepted a fully dead fleet")
	}
}

// BenchmarkReplanAbsorb measures the mid-run replan cost: one group of
// a 4-group plan dies and its block is absorbed. The n=1000 sub-bench
// is the bench-gate anchor.
func BenchmarkReplanAbsorb(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := mustGenerate(field.Config{
				NumTargets: n,
				NumMules:   8,
				Placement:  field.Clusters,
			}, xrand.New(7))
			plan, err := (&CBTCTP{Config: PartitionConfig{Method: KMeansMethod, K: 4}}).Plan(s)
			if err != nil {
				b.Fatal(err)
			}
			alive := make([]bool, s.NumMules())
			for i := range alive {
				alive[i] = true
			}
			for _, mi := range plan.Groups[0].Mules {
				alive[mi] = false
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AbsorbReplan(s, plan.Groups, nil, alive, nil, ReplanConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
