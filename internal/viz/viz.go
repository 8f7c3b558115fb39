// Package viz renders scenarios and routes as ASCII maps for the CLI
// and the examples: targets, VIPs, the sink, the recharge station,
// mule start positions, and the patrolling walks' polylines. Plans
// are rendered through their group model — every patrol group's walk
// gets its own glyph, so a partitioned plan (C-TCTP, Sweep) shows its
// per-region circuits instead of a blank map.
package viz

import (
	"fmt"
	"strings"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/walk"
)

// Canvas is a character grid mapped onto a rectangular world region.
type Canvas struct {
	w, h  int
	world geom.Rect
	cells [][]rune
}

// NewCanvas creates a w×h character canvas covering the world
// rectangle. It panics on non-positive dimensions.
func NewCanvas(w, h int, world geom.Rect) *Canvas {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("viz: canvas %dx%d", w, h))
	}
	cells := make([][]rune, h)
	for i := range cells {
		cells[i] = make([]rune, w)
		for j := range cells[i] {
			cells[i][j] = ' '
		}
	}
	return &Canvas{w: w, h: h, world: world, cells: cells}
}

// cell maps a world point to canvas coordinates.
func (c *Canvas) cell(p geom.Point) (int, int, bool) {
	if !c.world.Contains(p) {
		return 0, 0, false
	}
	fx := (p.X - c.world.Min.X) / c.world.Width()
	fy := (p.Y - c.world.Min.Y) / c.world.Height()
	x := int(fx * float64(c.w-1))
	// Row 0 is the top of the map (max Y).
	y := int((1 - fy) * float64(c.h-1))
	return x, y, true
}

// Plot draws r at the world point (later plots overwrite earlier
// ones). Points outside the world region are ignored.
func (c *Canvas) Plot(p geom.Point, r rune) {
	if x, y, ok := c.cell(p); ok {
		c.cells[y][x] = r
	}
}

// LineGlyph draws a straight segment with the given glyph, leaving
// endpoints for the caller to label.
func (c *Canvas) LineGlyph(a, b geom.Point, r rune) {
	steps := int(a.Dist(b)/c.worldStep()) + 1
	for s := 1; s < steps; s++ {
		t := float64(s) / float64(steps)
		x, y, ok := c.cell(a.Lerp(b, t))
		if ok && c.cells[y][x] == ' ' {
			c.cells[y][x] = r
		}
	}
}

// worldStep returns the world distance corresponding to roughly one
// cell.
func (c *Canvas) worldStep() float64 {
	sx := c.world.Width() / float64(c.w)
	sy := c.world.Height() / float64(c.h)
	if sx < sy {
		return sx
	}
	return sy
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var sb strings.Builder
	sb.WriteString("+" + strings.Repeat("-", c.w) + "+\n")
	for _, row := range c.cells {
		sb.WriteString("|")
		sb.WriteString(string(row))
		sb.WriteString("|\n")
	}
	sb.WriteString("+" + strings.Repeat("-", c.w) + "+\n")
	return sb.String()
}

// routeGlyphs are the per-group walk glyphs, cycling for plans with
// more groups than glyphs. Group 0 keeps the classic '.' so
// single-circuit maps render exactly as before.
var routeGlyphs = []rune{'.', ',', '~', '^', '`', '"'}

// MapPlan renders a scenario with every patrol group of the plan
// drawn in its own glyph — the group model is the source of truth, so
// partitioned plans (C-TCTP, Sweep) show one polyline per region. A
// nil plan renders the bare scenario.
func MapPlan(s *field.Scenario, plan *core.FleetPlan, width, height int) string {
	if plan == nil {
		return MapWalks(s, nil, width, height)
	}
	return MapWalks(s, plan.Walks(), width, height)
}

// MapWalks renders a scenario with the given walks, one glyph per
// walk (cycling through routeGlyphs). Legend: o target, V VIP, S sink,
// R recharge station, m mule start, '.' route.
func MapWalks(s *field.Scenario, walks []walk.Walk, width, height int) string {
	canvas := NewCanvas(width, height, s.Field)
	pts := s.Points()

	for wi, w := range walks {
		if len(w.Seq) < 2 {
			continue
		}
		glyph := routeGlyphs[wi%len(routeGlyphs)]
		for i := range w.Seq {
			a := pts[w.Seq[i]]
			b := pts[w.Seq[(i+1)%len(w.Seq)]]
			canvas.LineGlyph(a, b, glyph)
		}
	}
	for _, m := range s.MuleStarts {
		canvas.Plot(m, 'm')
	}
	for _, t := range s.Targets {
		r := 'o'
		if t.IsVIP() {
			r = 'V'
		}
		canvas.Plot(t.Pos, r)
	}
	canvas.Plot(s.Targets[s.SinkID].Pos, 'S')
	if s.HasRecharge {
		canvas.Plot(s.Recharge, 'R')
	}
	legend := "legend: S sink, o target, V VIP, R recharge, m mule, . route\n"
	if len(walks) > 1 {
		glyphs := make([]string, 0, len(walks))
		for wi := range walks {
			glyphs = append(glyphs, string(routeGlyphs[wi%len(routeGlyphs)]))
		}
		legend = "legend: S sink, o target, V VIP, R recharge, m mule; group routes " +
			strings.Join(glyphs, " ") + "\n"
	}
	return canvas.String() + legend
}
