package optimal

import (
	"fmt"

	"tctp/internal/geom"
	"tctp/internal/tour"
)

// MinDCDT returns the target ordering minimizing the steady-state
// data-collecting delay time for mules same-speed data mules sharing
// one closed walk, and that minimum DCDT = L/(mules·speed). Because
// the DCDT of a shared cycle is proportional to its length, this is
// the optimal-tour problem again — but MinDCDT solves it by an
// independent branch-and-bound over orderings (MST-of-remainder
// admissible bound, nearest-first successor order, NN+2-opt incumbent),
// so it cross-checks HeldKarp rather than re-deriving it. Panics if
// len(pts) > MaxExact; returns 0 DCDT for degenerate fleets.
func MinDCDT(pts []geom.Point, mules int, speed float64) (tour.Tour, float64) {
	n := len(pts)
	if n > MaxExact {
		panic(fmt.Sprintf("optimal: MinDCDT on %d points exceeds MaxExact %d", n, MaxExact))
	}
	dcdt := func(length float64) float64 {
		if mules <= 0 || speed <= 0 {
			return 0
		}
		return length / (float64(mules) * speed)
	}
	if n < 3 {
		t := make(tour.Tour, n)
		for i := range t {
			t[i] = i
		}
		return t, dcdt(tour.Length(pts, t))
	}

	// Incumbent: nearest-neighbour improved by 2-opt.
	inc := tour.TwoOpt(pts, tour.NearestNeighbor(pts, 0))
	best := tour.Length(pts, inc)
	bestTour := append(tour.Tour(nil), inc...)

	bb := &bbState{pts: pts, visited: make([]bool, n), path: make(tour.Tour, 1, n)}
	bb.path[0] = 0
	bb.visited[0] = true
	bb.best, bb.bestTour = best, bestTour
	bb.dfs(0, 0)

	t := bb.bestTour
	canonicalize(t)
	return t, dcdt(tour.Length(pts, t))
}

type bbState struct {
	pts      []geom.Point
	visited  []bool
	path     tour.Tour
	best     float64
	bestTour tour.Tour
}

// dfs extends the partial path ending at cur with every unvisited
// point in nearest-first order, pruning branches whose partial length
// plus the MST over {cur, 0, unvisited} cannot beat the incumbent.
func (s *bbState) dfs(cur int, partial float64) {
	n := len(s.pts)
	if len(s.path) == n {
		if total := partial + s.pts[cur].Dist(s.pts[0]); total < s.best {
			s.best = total
			s.bestTour = append(s.bestTour[:0], s.path...)
		}
		return
	}
	if partial+s.remainderBound(cur) >= s.best {
		return
	}
	// Nearest-first successor order: finds tight incumbents early,
	// which powers the prune.
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, 0, n-len(s.path))
	for i := 0; i < n; i++ {
		if !s.visited[i] {
			cands = append(cands, cand{i, s.pts[cur].Dist(s.pts[i])})
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, c := range cands {
		s.visited[c.idx] = true
		s.path = append(s.path, c.idx)
		s.dfs(c.idx, partial+c.d)
		s.path = s.path[:len(s.path)-1]
		s.visited[c.idx] = false
	}
}

// remainderBound is an admissible completion bound: finishing the
// tour means connecting cur, the start, and every unvisited point
// into one walk, which costs at least the MST over that vertex set.
func (s *bbState) remainderBound(cur int) float64 {
	rem := make([]geom.Point, 0, len(s.pts))
	rem = append(rem, s.pts[cur], s.pts[0])
	for i, v := range s.visited {
		if !v {
			rem = append(rem, s.pts[i])
		}
	}
	return MST(rem)
}
