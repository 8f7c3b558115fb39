package core_test

import (
	"encoding/json"
	"testing"

	"tctp/internal/core"
	"tctp/internal/mule"
)

// planJSON returns the JSON of a plan, or of its error.
func planJSON(t *testing.T, p *core.FleetPlan, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, jerr := json.Marshal(p)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return string(b)
}

// scramble overwrites every walk and route of a plan, as a caller that
// edits its plan in place would.
func scramble(p *core.FleetPlan) {
	for g := range p.Groups {
		for _, w := range [][]int{p.Groups[g].Walk.Seq, p.Groups[g].RechargeWalk.Seq} {
			for i := range w {
				w[i] = -7
			}
		}
	}
	for r := range p.Routes {
		for _, ph := range p.Routes[r].Cycle {
			for i := range ph.Stops {
				ph.Stops[i] = mule.Waypoint{TargetID: -7}
			}
		}
	}
}

// TestMemoPlansMatchFresh holds every planner that plans through a
// memo (core.MemoPlanner) to its plain Plan, bit for bit, over the
// golden scenarios and configurations: once as the memo's first use of
// its circuits and paths or a hit on another family's, once more as a
// hit after the first plan was scrambled in place. Every family but
// Sweep is a MemoPlanner, the C- and RW- planners with PlanMemo methods
// of their own; a promoted B-TCTP or W-TCTP PlanMemo would plan the
// embedding planner as the embedded one and fail here. One memo serves
// all of it, and must have built fewer circuits than it was asked for.
func TestMemoPlansMatchFresh(t *testing.T) {
	memo := new(core.Memo)
	asked := 0
	for i, s := range goldenScenarios() {
		seed := uint64(i)
		fresh, first, again := goldenPlanners(seed), goldenPlanners(seed), goldenPlanners(seed)
		for family, ps := range fresh {
			for k, p := range ps {
				mp, ok := first[family][k].(core.MemoPlanner)
				if !ok {
					if family != "sweep" {
						t.Fatalf("%s planner %d is no MemoPlanner", family, k)
					}
					continue
				}
				plan, err := p.Plan(s)
				want := planJSON(t, plan, err)
				got, err := mp.PlanMemo(s, memo)
				if g := planJSON(t, got, err); g != want {
					t.Fatalf("scenario %d, %s planner %d: memo plan\n%s\nwant\n%s", i, family, k, g, want)
				}
				if err == nil {
					scramble(got)
				}
				hit, err := again[family][k].(core.MemoPlanner).PlanMemo(s, memo)
				if g := planJSON(t, hit, err); g != want {
					t.Fatalf("scenario %d, %s planner %d: memo plan after a scrambled one\n%s\nwant\n%s", i, family, k, g, want)
				}
				asked += 2
			}
		}
	}
	circuits, paths := memo.Builds()
	t.Logf("%d plans through the memo built %d circuits and %d paths", asked, circuits, paths)
	if circuits == 0 || paths == 0 || circuits+paths >= asked/2 {
		t.Fatalf("%d plans built %d circuits and %d paths", asked, circuits, paths)
	}
}
