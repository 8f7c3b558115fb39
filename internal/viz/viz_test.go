package viz

import (
	"strings"
	"testing"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/walk"
	"tctp/internal/xrand"
)

func testScenario() *field.Scenario {
	s, err := field.Generate(field.Config{
		NumTargets:   10,
		NumMules:     2,
		Placement:    field.Uniform,
		WithRecharge: true,
	}, xrand.New(1))
	if err != nil {
		panic(err)
	}
	s.AssignVIPs(xrand.New(2), 1, 3)
	return s
}

func TestCanvasBasics(t *testing.T) {
	c := NewCanvas(20, 10, geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)))
	c.Plot(geom.Pt(50, 50), 'X')
	out := c.String()
	if !strings.ContainsRune(out, 'X') {
		t.Fatal("plotted rune missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // 10 rows + 2 border lines
		t.Fatalf("%d lines", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 22 {
			t.Fatalf("ragged line %q", l)
		}
	}
}

func TestCanvasOrientation(t *testing.T) {
	// North (max Y) must be the top row.
	c := NewCanvas(10, 10, geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)))
	c.Plot(geom.Pt(0, 100), 'N')
	c.Plot(geom.Pt(0, 0), 'B')
	out := strings.Split(c.String(), "\n")
	if !strings.ContainsRune(out[1], 'N') {
		t.Fatal("north point not in top row")
	}
	if !strings.ContainsRune(out[10], 'B') {
		t.Fatal("south point not in bottom row")
	}
}

func TestCanvasIgnoresOutside(t *testing.T) {
	c := NewCanvas(10, 10, geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)))
	c.Plot(geom.Pt(-5, 50), 'X')
	if strings.ContainsRune(c.String(), 'X') {
		t.Fatal("out-of-world point plotted")
	}
}

func TestCanvasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size canvas accepted")
		}
	}()
	NewCanvas(0, 5, geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
}

func TestLineDraws(t *testing.T) {
	c := NewCanvas(40, 20, geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)))
	c.LineGlyph(geom.Pt(0, 0), geom.Pt(100, 100), '.')
	if !strings.ContainsRune(c.String(), '.') {
		t.Fatal("line left no marks")
	}
}

func TestMapLegendAndMarkers(t *testing.T) {
	s := testScenario()
	w := walk.New([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	out := MapWalks(s, []walk.Walk{w}, 60, 30)
	for _, marker := range []string{"S", "V", "o", "R", "m", "legend"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("marker %q missing from map:\n%s", marker, out)
		}
	}
	if !strings.Contains(out, ".") {
		t.Fatal("route missing from map")
	}
}

func TestMapWithoutWalk(t *testing.T) {
	s := testScenario()
	out := MapWalks(s, nil, 40, 20)
	if !strings.Contains(out, "S") {
		t.Fatal("sink missing")
	}
}

func TestMapPlanDrawsEveryGroupWithDistinctGlyphs(t *testing.T) {
	s := testScenario()
	// A two-group plan split down the target list.
	var left, right []int
	for i := 0; i < s.NumTargets(); i++ {
		if i < s.NumTargets()/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	plan := &core.FleetPlan{
		Algorithm: "test",
		Groups: []core.PatrolGroup{
			{Walk: walk.New(left), Targets: left},
			{Walk: walk.New(right), Targets: right},
		},
	}
	out := MapPlan(s, plan, 70, 30)
	// Group 0 keeps '.', group 1 gets the next glyph, and the legend
	// lists both.
	if !strings.Contains(out, ".") || !strings.Contains(out, ",") {
		t.Fatalf("multi-group map misses a group glyph:\n%s", out)
	}
	if !strings.Contains(out, "group routes . ,") {
		t.Fatalf("legend misses group glyphs:\n%s", out)
	}
}

func TestMapPlanSingleGroupMatchesClassicMap(t *testing.T) {
	s := testScenario()
	w := walk.New([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	plan := &core.FleetPlan{Groups: []core.PatrolGroup{{Walk: w}}}
	if MapPlan(s, plan, 60, 30) != MapWalks(s, []walk.Walk{w}, 60, 30) {
		t.Fatal("single-group plan renders differently from the classic map")
	}
}

func TestMapPlanNil(t *testing.T) {
	s := testScenario()
	if MapPlan(s, nil, 40, 20) != MapWalks(s, nil, 40, 20) {
		t.Fatal("nil plan renders differently from the bare scenario")
	}
}
