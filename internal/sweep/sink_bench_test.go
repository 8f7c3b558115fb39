package sweep_test

import (
	"context"
	"io"
	"testing"

	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
	"tctp/internal/sweep/protocol"
)

// collect keeps a sweep's defaults-applied spec and its cells.
type collect struct {
	spec  *sweep.Spec
	cells []*sweep.CellResult
}

func (c *collect) Begin(spec *sweep.Spec, _ int) error { c.spec = spec; return nil }
func (c *collect) Cell(r *sweep.CellResult) error      { c.cells = append(c.cells, r); return nil }
func (c *collect) End(*sweep.Result) error             { return nil }

// BenchmarkCSVSink renders the paper's §5.1 grid (5 algorithms × 5
// target counts × 4 fleet sizes, 100 cells) through one warm CSV sink:
// an operation is the header, the 100 rows and the final write. The
// cells are simulated once, under a short protocol, before timing.
func BenchmarkCSVSink(b *testing.B) {
	spec, err := build.Spec(protocol.SweepRequest{
		Algorithms: "btctp,wtctp,chb,sweep,random",
		Preset:     "paper51",
		Targets:    "10,20,30,40,50",
		Mules:      "2,4,6,8",
		Seeds:      2,
		Horizon:    20_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	var got collect
	if _, err := sweep.Run(context.Background(), spec, &got); err != nil {
		b.Fatal(err)
	}
	if len(got.cells) != 100 {
		b.Fatalf("paper grid has %d cells, want 100", len(got.cells))
	}
	sink := sweep.CSV(io.Discard)
	render := func() {
		if err := sink.Begin(got.spec, len(got.cells)); err != nil {
			b.Fatal(err)
		}
		for _, c := range got.cells {
			if err := sink.Cell(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.End(&sweep.Result{}); err != nil {
			b.Fatal(err)
		}
	}
	render()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render()
	}
}
