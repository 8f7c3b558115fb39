package core

import (
	"fmt"
	"sort"

	"tctp/internal/geom"
	"tctp/internal/walk"
)

// This file implements the paper's §3.2 patrolling rule: "when a DM
// arrives at a VIP g_i from target g_j, it selects a target
// g_k ∈ S_i^w which has minimal included angle with the former route
// g_j to g_i in the counterclockwise direction, as its next visiting
// target." Applied at every vertex of the WPP's edge multiset (NTPs
// have degree 2, so the rule only ever chooses at VIPs), the rule
// yields the deterministic closed walk every mule follows, so all
// mules traverse the VIP cycles in the same order — the property the
// paper needs for consistent visiting intervals.
//
// The greedy rule alone is not guaranteed to produce an Euler circuit
// on every geometry (it can close a subtour early); since the WPP
// multigraph always has even degrees and is connected, a Hierholzer
// splice completes the traversal in those rare cases.

// edge is one undirected edge of the multigraph with a stable identity
// (parallel edges get distinct ids).
type edge struct {
	u, v int
	id   int
	used bool
}

// multigraph is the WPP's edge multiset with per-vertex incidence
// lists.
type multigraph struct {
	edges []*edge
	inc   [][]*edge // by vertex
}

// graphFromWalk builds the multigraph induced by the closed walk over
// vertices [0, nv).
func graphFromWalk(w walk.Walk, nv int) *multigraph {
	g := &multigraph{inc: make([][]*edge, nv)}
	n := len(w.Seq)
	for i := 0; i < n; i++ {
		u, v := w.Seq[i], w.Seq[(i+1)%n]
		e := &edge{u: u, v: v, id: i}
		g.edges = append(g.edges, e)
		g.inc[u] = append(g.inc[u], e)
		g.inc[v] = append(g.inc[v], e)
	}
	return g
}

// other returns the endpoint of e opposite to x.
func (e *edge) other(x int) int {
	if e.u == x {
		return e.v
	}
	return e.u
}

// unusedAt returns the unused edges incident to vertex x, in id order.
func (g *multigraph) unusedAt(x int) []*edge {
	var out []*edge
	for _, e := range g.inc[x] {
		if !e.used {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// pickByAngleRule selects, among the unused edges at cur, the one
// whose direction has the minimal counterclockwise included angle from
// the incoming direction. Ties (parallel edges, collinear targets)
// break on the smaller edge id. Returns nil when no unused edge
// remains.
func (g *multigraph) pickByAngleRule(pts []geom.Point, cur int, incoming geom.Vec) *edge {
	var best *edge
	bestAngle := 0.0
	for _, e := range g.unusedAt(cur) {
		out := pts[e.other(cur)].Sub(pts[cur])
		a := geom.CCWAngle(incoming, out)
		if best == nil || a < bestAngle-geom.Eps {
			best, bestAngle = e, a
		}
	}
	return best
}

// TraverseAngleRule re-derives the traversal order of the walk's edge
// multiset under the patrolling rule, starting from the walk's first
// target in the walk's own initial direction. The result visits every
// edge exactly once (it is an Euler circuit of the multigraph), so
// each target keeps its occurrence count: NTPs appear once, VIP g_i
// appears w_i times, exactly as Definition 3 requires.
func TraverseAngleRule(pts []geom.Point, w walk.Walk) walk.Walk {
	n := len(w.Seq)
	if n < 3 {
		return w.Clone()
	}
	g := graphFromWalk(w, len(pts))
	start := w.Seq[0]

	// The first hop follows the walk's own first edge, which fixes
	// the traversal direction (counterclockwise for circuits built by
	// this package).
	first := g.edges[0]
	first.used = true
	seq := []int{start}
	cur := first.other(start)
	incoming := pts[cur].Sub(pts[start])

	for {
		seq = append(seq, cur)
		e := g.pickByAngleRule(pts, cur, incoming)
		if e == nil {
			break // back where no unused edges remain
		}
		e.used = true
		next := e.other(cur)
		incoming = pts[next].Sub(pts[cur])
		cur = next
	}
	// The greedy traversal ends by re-entering a vertex with no
	// unused edges; for an Euler circuit that vertex is the start and
	// seq's last element equals start — drop the duplicate.
	if seq[len(seq)-1] == start && len(seq) > 1 {
		seq = seq[:len(seq)-1]
	}

	// Hierholzer splice for the rare geometries where the greedy rule
	// closes early: walk the current sequence, and at the first vertex
	// with unused edges, traverse a sub-circuit (still by the angle
	// rule) and splice it in; repeat until every edge is used.
	for remaining(g) > 0 {
		spliced := false
		for pos := 0; pos < len(seq); pos++ {
			v := seq[pos]
			unused := g.unusedAt(v)
			if len(unused) == 0 {
				continue
			}
			sub := traverseFrom(g, pts, v, unused[0])
			// Splice sub after position pos. sub ends with the return
			// to v, so the walk reads ...,v,  a,...,z,v,  next,...
			// and every consecutive pair is a real multigraph edge.
			grown := make([]int, 0, len(seq)+len(sub))
			grown = append(grown, seq[:pos+1]...)
			grown = append(grown, sub...)
			grown = append(grown, seq[pos+1:]...)
			seq = grown
			spliced = true
			break
		}
		if !spliced {
			// Disconnected multigraph: cannot happen for walks, which
			// are connected by construction.
			panic(fmt.Sprintf("core: angle-rule traversal stuck with %d unused edges", remaining(g)))
		}
	}
	return walk.New(seq)
}

// traverseFrom runs the angle-rule traversal of unused edges starting
// at v along firstEdge until it closes, returning the visited vertices
// after v INCLUDING the final return to v (so the result can be
// spliced verbatim after an occurrence of v in an enclosing walk).
func traverseFrom(g *multigraph, pts []geom.Point, v int, firstEdge *edge) []int {
	firstEdge.used = true
	cur := firstEdge.other(v)
	incoming := pts[cur].Sub(pts[v])
	var seq []int
	for {
		seq = append(seq, cur)
		e := g.pickByAngleRule(pts, cur, incoming)
		if e == nil {
			break
		}
		e.used = true
		next := e.other(cur)
		incoming = pts[next].Sub(pts[cur])
		cur = next
	}
	return seq
}

// remaining counts unused edges.
func remaining(g *multigraph) int {
	n := 0
	for _, e := range g.edges {
		if !e.used {
			n++
		}
	}
	return n
}
