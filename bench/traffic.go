package main

import (
	"slices"
	"strconv"
	"strings"

	"tctp/internal/sweep/protocol"
	"tctp/internal/xrand"
)

// grid is a sweep over the paper's §5.1 axes (algorithm × targets ×
// fleet size) on the paper51 preset. Axis values stay in the canonical
// order of paperGrid, so the rows of any sub-grid appear in the same
// relative order as in the full grid's output.
type grid struct {
	Algs    []string
	Targets []int
	Mules   []int
}

// paperGrid is the evaluation grid of Figs. 7–10: 100 cells.
var paperGrid = grid{
	Algs:    []string{"btctp", "wtctp", "chb", "sweep", "random"},
	Targets: []int{10, 20, 30, 40, 50},
	Mules:   []int{2, 4, 6, 8},
}

func (g grid) cells() int { return len(g.Algs) * len(g.Targets) * len(g.Mules) }

// request renders the grid as a sweep request; a zero horizon keeps
// the preset's.
func (g grid) request(seeds int, baseSeed uint64, horizon float64) protocol.SweepRequest {
	return protocol.SweepRequest{
		Algorithms: strings.Join(g.Algs, ","),
		Preset:     "paper51",
		Targets:    joinInts(g.Targets),
		Mules:      joinInts(g.Mules),
		Seeds:      seeds,
		BaseSeed:   baseSeed,
		Horizon:    horizon,
	}
}

// contains reports whether the grid has the cell of a CSV row.
func (g grid) contains(alg string, targets, mules int) bool {
	return slices.Contains(g.Algs, alg) && slices.Contains(g.Targets, targets) && slices.Contains(g.Mules, mules)
}

// sweepArgs renders a request as the tctp-sweep flags that plan the
// same sweep.
func sweepArgs(req protocol.SweepRequest) []string {
	args := []string{"-alg", req.Algorithms, "-preset", req.Preset}
	if req.Targets != "" {
		args = append(args, "-targets", req.Targets)
	}
	if req.Mules != "" {
		args = append(args, "-mules", req.Mules)
	}
	if req.Partition != "" {
		args = append(args, "-partition", req.Partition)
	}
	if req.Horizon > 0 {
		args = append(args, "-horizon", strconv.FormatFloat(req.Horizon, 'g', -1, 64))
	}
	return append(args, "-seeds", strconv.Itoa(req.Seeds),
		"-base-seed", strconv.FormatUint(req.BaseSeed, 10))
}

// warmGrid is the i-th request of the warm-phase traffic for a seed: a
// random non-empty subset of each paper-grid axis. It is a pure
// function of (seed, i), so two runs with one seed send the same
// sequence of requests whatever the interleaving of the connections.
func warmGrid(seed uint64, i int) grid {
	src := xrand.New(xrand.New(seed).Uint64() + uint64(i))
	return grid{
		Algs:    subset(src, paperGrid.Algs),
		Targets: subset(src, paperGrid.Targets),
		Mules:   subset(src, paperGrid.Mules),
	}
}

// subset draws a uniform non-empty subset of xs, keeping xs's order.
func subset[T any](src *xrand.Source, xs []T) []T {
	mask := 1 + src.Intn(1<<len(xs)-1)
	var out []T
	for i, x := range xs {
		if mask&(1<<i) != 0 {
			out = append(out, x)
		}
	}
	return out
}

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}
