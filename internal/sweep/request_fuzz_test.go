package sweep_test

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"tctp/internal/field"
	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

// maxFuzzCells bounds the plans FuzzSweepRequest enumerates, well
// under MaxPlanCells: planning tens of thousands of cells per input
// would slow the fuzzer without testing the builder any further.
const maxFuzzCells = 4096

// TestGridCells counts the cells a spec spans without planning it:
// a request of a few hundred bytes naming 30 values on each of five
// axes spans 30⁵ cells, and a product past math.MaxInt saturates.
// Both are far over MaxPlanCells.
func TestGridCells(t *testing.T) {
	axis := func(f func(i int) string) string {
		vals := make([]string, 30)
		for i := range vals {
			vals[i] = f(i)
		}
		return strings.Join(vals, ",")
	}
	req := protocol.SweepRequest{
		Algorithms: "btctp",
		Targets:    axis(func(i int) string { return strconv.Itoa(10 + i) }),
		Mules:      axis(func(i int) string { return strconv.Itoa(1 + i) }),
		Speeds:     axis(func(i int) string { return strconv.Itoa(1 + i) }),
		Partition:  axis(func(i int) string { return "kmeans:" + strconv.Itoa(2+i) }),
		Failures:   axis(func(i int) string { return "0." + strconv.Itoa(10+i) }),
	}
	spec, err := build.Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.GridCells(), 30*30*30*30*30; got != want {
		t.Fatalf("30⁵ request spans %d cells, want %d", got, want)
	}

	wide := make([]int, 1000)
	huge := sweep.Spec{
		Algorithms: spec.Algorithms,
		Targets:    wide, Mules: wide, VIPs: wide, VIPWeights: wide,
		Placements: make([]field.Placement, 1000),
		Horizons:   make([]float64, 1000),
		Battery:    make([]bool, 1000),
	}
	if got := huge.GridCells(); got != math.MaxInt {
		t.Fatalf("a 1000⁷-cell spec counts %d cells, want math.MaxInt", got)
	}
}

// FuzzSweepRequest drives the server's submit path across its trust
// boundary: a request body decoded into a SweepRequest, built into a
// Spec and planned. Nothing may panic, and for every accepted plan of
// at most 64 cells each cell key (CellKey and CellKeys) and the plan
// fingerprint must equal the whole-struct oracles of oracle_test.go.
// The seed corpus under testdata/fuzz holds the paper grid, a fleet and
// workload grid, a failure and partition grid, an adaptive quality
// grid, and an inline scenario.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req protocol.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		spec, err := build.Spec(req)
		if err != nil || spec.GridCells() > maxFuzzCells {
			return
		}
		job, err := sweep.Plan(spec)
		if err != nil || job.Cells() > 64 {
			return
		}
		if err := sweep.CheckIdentitiesAgainstOracle(job); err != nil {
			t.Fatal(err)
		}
	})
}
