package build

import (
	"context"
	"io"
	"runtime"
	"testing"

	"tctp/internal/sweep"
	"tctp/internal/sweep/protocol"
)

// paperGridBudget bounds the bytes one pass of the paper's §5.1 grid
// allocates (planning the job and running its 100 cells, one seed
// each, on two workers, CSV sink included). Two worker scratches grow
// to the grid's largest cell and are reused for every other; a scratch
// that stopped being reused, or a per-run buffer that stopped being
// carved from it, costs about twice this.
const paperGridBudget = 1_500_000

// TestPaperGridAllocationBudget: the 1-seed paper grid through Job.Run
// with 2 workers allocates at most paperGridBudget bytes, which keeps
// a whole tctp-sweep request of it under the runtime's first garbage
// collection trigger.
func TestPaperGridAllocationBudget(t *testing.T) {
	req := protocol.SweepRequest{
		Algorithms: "btctp,wtctp,chb,sweep,random", Preset: "paper51",
		Targets: "10,20,30,40,50", Mules: "2,4,6,8", Seeds: 1, BaseSeed: 3,
	}
	spec, err := Spec(req)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	j, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := j.Run(context.Background(), sweep.RunOpts{Sinks: []sweep.Sink{sweep.CSV(io.Discard)}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Result().Cells); n != 100 {
		t.Fatalf("%d cells, want the grid's 100", n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("the 1-seed paper grid allocated %d bytes in %d objects", alloc, after.Mallocs-before.Mallocs)
	if alloc > paperGridBudget {
		t.Fatalf("the 1-seed paper grid allocated %d bytes, budget %d", alloc, paperGridBudget)
	}
}
