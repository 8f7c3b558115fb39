package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tctp/internal/core"
	"tctp/internal/patrol"
)

func sinkSpec() Spec {
	s := tinySpec()
	s.Mules = []int{2, 12}
	s.Skip = func(p Point) string {
		if p.Mules > p.Targets+1 {
			return "more mules than targets+1"
		}
		return ""
	}
	return s
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(context.Background(), sinkSpec(), CSV(&buf)); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+4 { // header + 4 executed cells (skipped cells emit nothing)
		t.Fatalf("%d rows", len(rows))
	}
	header := rows[0]
	wantCols := len(pointHeader) + 1 + 2*3 // reps + 3 metrics × (mean, ci95)
	if len(header) != wantCols {
		t.Fatalf("header %v has %d columns, want %d", header, len(header), wantCols)
	}
	if header[0] != "algorithm" || header[len(pointHeader)] != "reps" ||
		header[len(pointHeader)+1] != "avg_dcdt_s" ||
		header[len(pointHeader)+2] != "avg_dcdt_s_ci95" {
		t.Fatalf("header %v", header)
	}
	if rows[1][0] != "btctp" || rows[1][1] != "6" || rows[1][2] != "2" {
		t.Fatalf("first cell row %v", rows[1])
	}
	// The reps column reports the actual replication count.
	if rows[1][len(pointHeader)] != "3" {
		t.Fatalf("reps column = %q, want 3", rows[1][len(pointHeader)])
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(context.Background(), sinkSpec(), JSONL(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4+1 { // header + cells + summary
		t.Fatalf("%d lines", len(lines))
	}
	var head struct {
		Sweep string `json:"sweep"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.Sweep != "tiny" || head.Cells != 4 {
		t.Fatalf("header %+v", head)
	}
	var cell CellResult
	if err := json.Unmarshal([]byte(lines[1]), &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Point.Algorithm != "btctp" || cell.Point.Placement.String() != "uniform" {
		t.Fatalf("cell point %+v", cell.Point)
	}
	if len(cell.Metrics) != 3 || cell.Metrics[0].N != 3 {
		t.Fatalf("cell metrics %+v", cell.Metrics)
	}
	var tail struct {
		Summary struct {
			Cells   int           `json:"cells"`
			Runs    int           `json:"runs"`
			Skipped []SkippedCell `json:"skipped"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Summary.Cells != 4 || tail.Summary.Runs != 12 || len(tail.Summary.Skipped) != 4 {
		t.Fatalf("summary %+v", tail.Summary)
	}
	for _, sk := range tail.Summary.Skipped {
		if sk.Reason == "" || sk.Point.Mules != 12 {
			t.Fatalf("skipped %+v", sk)
		}
	}
}

func TestTextTableSink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(context.Background(), sinkSpec(), TextTable(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== tiny (4 cells × 3 replications) ==",
		"algorithm", "targets", "mules", // the varying axes
		"avg_dcdt_s", "±",
		"4 cells, 12 runs, 4 skipped",
		"skipped: alg=btctp targets=6 mules=12",
		"more mules than targets+1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Non-varying axes stay out of the table header (the skip footer
	// legitimately prints full points).
	header := strings.Split(out, "\n")[1]
	if strings.Contains(header, "placement") || strings.Contains(header, "battery") {
		t.Fatalf("constant axes leaked into the header %q", header)
	}
}

func TestTextTableSingleCell(t *testing.T) {
	var buf bytes.Buffer
	spec := Spec{
		Algorithms: []Variant{Algo("btctp", patrol.Planned(&core.BTCTP{}))},
		Targets:    []int{5},
		Mules:      []int{2},
		Horizons:   []float64{3_000},
		Metrics:    []Metric{AvgSD()},
		Seeds:      1,
	}
	if _, err := Run(context.Background(), spec, TextTable(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "btctp") {
		t.Fatalf("single-cell table lost its identity column:\n%s", buf.String())
	}
}

// failSink errors on demand at each stage of the sink protocol.
type failSink struct {
	beginErr, endErr error
	cellErrAt        int // fail on the cell with this index (-1: never)
	cells            int
}

func (f *failSink) Begin(*Spec, int) error { return f.beginErr }
func (f *failSink) Cell(c *CellResult) error {
	f.cells++
	if c.Index == f.cellErrAt {
		return fmt.Errorf("disk full")
	}
	return nil
}
func (f *failSink) End(*Result) error { return f.endErr }

func TestSinkBeginError(t *testing.T) {
	executed := atomic.Int64{}
	spec := countingSpec(&executed)
	_, err := Run(context.Background(), spec, &failSink{beginErr: fmt.Errorf("no header"), cellErrAt: -1})
	if err == nil || !strings.Contains(err.Error(), "sink begin") {
		t.Fatalf("err = %v", err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d replications ran despite a failed sink Begin", executed.Load())
	}
}

// countingSpec is a wide, slow-enough sweep for abort-promptness
// checks: 2 cells × 60 replications, counting executions.
func countingSpec(n *atomic.Int64) Spec {
	s := tinySpec()
	s.Targets = []int{6}
	s.Seeds = 60
	s.Metrics = append(s.Metrics, Metric{Name: "count", Fn: func(Env) float64 {
		n.Add(1)
		return 0
	}})
	return s
}

// gatedFailSink is a failSink that closes failed once its Cell error
// fires.
type gatedFailSink struct {
	failSink
	failed chan struct{}
}

func (g *gatedFailSink) Cell(c *CellResult) error {
	err := g.failSink.Cell(c)
	if err != nil {
		close(g.failed)
	}
	return err
}

// A sink whose Write fails mid-sweep must abort the worker pool
// promptly — well before the remaining replications execute — and
// surface the error. The second cell's replications wait for the sink
// failure, so a worker the OS stalls inside cell 0 cannot let the
// other worker run all of cell 1 before the abort.
func TestSinkCellErrorAbortsPromptly(t *testing.T) {
	executed := atomic.Int64{}
	spec := countingSpec(&executed)
	spec.Workers = 2
	sink := &gatedFailSink{failSink: failSink{cellErrAt: 0}, failed: make(chan struct{})}
	first := spec.Algorithms[0].Name // the only axis with two values
	count := spec.Metrics[len(spec.Metrics)-1].Fn
	spec.Metrics[len(spec.Metrics)-1].Fn = func(e Env) float64 {
		if e.Variant.Name != first {
			<-sink.failed
		}
		return count(e)
	}
	_, err := Run(context.Background(), spec, sink)
	if err == nil || !strings.Contains(err.Error(), "sink cell 0") ||
		!strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
	total := int64(2 * 60)
	if n := executed.Load(); n >= total {
		t.Fatalf("all %d replications ran despite the sink failing after cell 0", n)
	}
}

func TestSinkEndError(t *testing.T) {
	spec := tinySpec()
	_, err := Run(context.Background(), spec, &failSink{cellErrAt: -1, endErr: fmt.Errorf("flush failed")})
	if err == nil || !strings.Contains(err.Error(), "sink end") {
		t.Fatalf("err = %v", err)
	}
}

// A failing sink also aborts a checkpointed run — and the checkpoint
// written up to the failure stays resumable once the sink is fixed.
func TestSinkErrorLeavesResumableCheckpoint(t *testing.T) {
	spec := tinySpec()
	spec.Seeds = 4
	var want bytes.Buffer
	if _, err := Run(context.Background(), spec, CSV(&want)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := runCkpt(context.Background(), spec, path, false, &failSink{cellErrAt: 1}); err == nil {
		t.Fatal("failing sink accepted")
	}
	var got bytes.Buffer
	if _, err := runCkpt(context.Background(), spec, path, true, CSV(&got)); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resume after sink failure diverged:\n%s\nvs\n%s", got.String(), want.String())
	}
}
