package sweep

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/patrol"
)

// paperGridSpec is the §5.1 grid of Figs. 7–10, all five algorithms
// over targets × mules, at a short horizon.
func paperGridSpec(targets, mules []int, seeds, workers int) Spec {
	return Spec{
		Name: "paper-grid",
		Algorithms: []Variant{
			Algo("btctp", patrol.Planned(&core.BTCTP{})),
			Algo("wtctp", patrol.Planned(&core.WTCTP{})),
			Algo("chb", patrol.Planned(&baseline.CHB{})),
			Algo("sweep", patrol.Planned(&baseline.Sweep{})),
			Algo("random", patrol.Online(&baseline.Random{})),
		},
		Targets:  targets,
		Mules:    mules,
		Horizons: []float64{3_000},
		Metrics:  []Metric{AvgDCDT(), AvgSD(), MaxInterval()},
		Seeds:    seeds,
		Workers:  workers,
	}
}

// TestPaperGridBuildsEachCircuitOnce: in a paper-grid job, B-TCTP,
// W-TCTP and CHB share one hull-insertion circuit per (seed, target
// count), and W-TCTP's four fleet sizes one path, so the job's memo
// builds exactly one of each per (seed, target count).
func TestPaperGridBuildsEachCircuitOnce(t *testing.T) {
	const seeds = 3
	targets := []int{10, 20, 30, 40, 50}
	j, err := Plan(paperGridSpec(targets, []int{2, 4, 6, 8}, seeds, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(context.Background(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	want := seeds * len(targets)
	if circuits, paths := j.plans.Builds(); circuits != want || paths != want {
		t.Fatalf("%d circuits and %d paths built, want %d of each", circuits, paths, want)
	}
}

// TestConcurrentCellsShareJobMemo plans the paper grid's cells
// concurrently through one job's memo, from its own pool (Job.Run) and
// from one-cell sub-jobs (ComputeCell) at once, and holds each cell's
// fold state and the sinks' bytes to a job that plans without a memo.
// Run it with -race.
func TestConcurrentCellsShareJobMemo(t *testing.T) {
	spec := paperGridSpec([]int{10, 20}, []int{2, 4}, 2, 4)
	plain, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain.plans = nil
	var want bytes.Buffer
	ref, err := plain.Run(context.Background(), RunOpts{Sinks: []Sink{CSV(&want)}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := j.Run(context.Background(), RunOpts{Sinks: []Sink{CSV(&got)}}); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < j.Cells(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := j.ComputeCell(context.Background(), i)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(st, ref.records[i].FoldState) {
				t.Errorf("cell %d: fold state %+v, without the memo %+v", i, st, ref.records[i].FoldState)
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("CSV through the memo\n%s\nwithout\n%s", got.Bytes(), want.Bytes())
	}
	if circuits, _ := j.plans.Builds(); circuits != 2*2 {
		t.Fatalf("%d circuits built, want one per (seed, target count)", circuits)
	}
}
