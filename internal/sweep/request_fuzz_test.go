package sweep_test

import (
	"encoding/json"
	"testing"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

// maxFuzzCells bounds the plans FuzzSweepRequest enumerates: a short
// request can name a grid of millions of cells, and planning one is a
// test of memory, not of the builder.
const maxFuzzCells = 4096

// gridBound is an upper bound on the cells a spec plans: the product
// of its axis lengths, an empty axis counting as its one default.
func gridBound(s *sweep.Spec) int {
	n := 1
	fleets := len(s.Fleets)
	if fleets == 0 {
		fleets = max(1, len(s.Mules)) * max(1, len(s.Speeds))
	}
	for _, l := range []int{
		len(s.Algorithms), len(s.Targets), fleets, len(s.Placements),
		len(s.Horizons), len(s.Battery), len(s.VIPs), len(s.VIPWeights),
		len(s.Workloads), len(s.Partitions), len(s.Failures),
	} {
		n *= max(1, l)
		if n > maxFuzzCells {
			return n
		}
	}
	return n
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
		if err != nil || gridBound(&spec) > maxFuzzCells {
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
