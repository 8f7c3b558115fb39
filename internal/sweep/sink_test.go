package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
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

// TestCSVSinkMatchesOracle runs sweeps through the CSV sink and
// csvOracle side by side: vector columns, some left empty by partitioned
// cells, fleets, failures and workloads.
func TestCSVSinkMatchesOracle(t *testing.T) {
	mixed, err := scenario.ParseFleet("1x1+1x4")
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec){
		"skips": func(s *Spec) { *s = sinkSpec() },
		"vectors": func(s *Spec) {
			s.Algorithms, s.Mules = s.Algorithms[:1], []int{3}
			s.Partitions = []Partition{{}, {Method: "kmeans", K: 2}, {Method: "sectors", K: 3}}
			s.Vectors = []VectorMetric{DCDTCurve(5), GroupDCDT(4)}
		},
		"fleets, failures, workloads": func(s *Spec) {
			s.Mules, s.Fleets = nil, []scenario.Fleet{mixed}
			s.Failures = []Failure{{}, {Rate: 0.5, Handoff: "absorb"}}
			s.Workloads = []scenario.Workload{packetsWorkload()}
		},
	} {
		spec := tinySpec()
		mutate(&spec)
		var got, want bytes.Buffer
		if _, err := Run(context.Background(), spec, CSV(&got), newCSVOracle(&want)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: CSV sink\n%s\noracle\n%s", name, got.String(), want.String())
		}
	}
}

// FuzzCSVSink renders a header and three rows through the CSV sink and
// through csvOracle and requires the same bytes. The strings reach
// every quoting rule; the metrics are raw bit patterns read eight bytes
// at a time (NaN, ±Inf, -0, subnormals, magnitudes past 2^53); a vector
// may hold fewer means than its Len, or more. Long vectors push the
// buffer past its flush size.
func FuzzCSVSink(f *testing.F) {
	f.Fuzz(func(t *testing.T, alg, fleet, workload, partition, failure, metric, vector string,
		targets int, speed, horizon float64, placement uint8, battery bool, vlen, vhave uint8, raw []byte) {
		word := func(i int) float64 {
			if len(raw) < 8 {
				return 0
			}
			i %= len(raw) / 8
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		spec := &Spec{
			Metrics: []Metric{{Name: metric}, {Name: alg}},
			Vectors: []VectorMetric{{Name: vector, Len: int(vlen)}, {Name: "v", Len: 2}},
		}
		c := &CellResult{
			Point: Point{
				Algorithm: alg, Targets: targets, Mules: -targets, Speed: speed, Fleet: fleet,
				Placement: field.Placement(placement % 8), Horizon: horizon, Battery: battery,
				VIPs: int(vlen), VIPWeight: int(vhave), Workload: workload, Partition: partition,
				Failure: failure,
			},
			Reps: targets,
			Metrics: []MetricSummary{
				{Name: metric, Mean: word(0), CI95: word(1)},
				{Name: alg, Mean: word(2), CI95: word(3)},
			},
			Vectors: []VectorSummary{{Name: vector, Mean: make([]float64, vhave)}, {Name: "v"}},
		}
		for k := range c.Vectors[0].Mean {
			c.Vectors[0].Mean[k] = word(4 + k)
		}
		var got, want bytes.Buffer
		for _, r := range []struct {
			sink Sink
			out  *bytes.Buffer
		}{{CSV(&got), &got}, {newCSVOracle(&want), &want}} {
			if err := r.sink.Begin(spec, 3); err != nil {
				t.Fatal(err)
			}
			for range 3 {
				if err := r.sink.Cell(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.sink.End(&Result{}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("CSV sink\n%q\noracle\n%q", got.Bytes(), want.Bytes())
		}
	})
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// A failed write surfaces from the CSV sink: at End for a short sweep,
// and from Cell once the buffer passes its flush size.
func TestCSVSinkWriteError(t *testing.T) {
	spec := tinySpec()
	if _, err := Run(context.Background(), spec, CSV(errWriter{})); err == nil ||
		!strings.Contains(err.Error(), "sink end") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("short sweep: err = %v", err)
	}
	spec.Vectors = []VectorMetric{DCDTCurve(200)}
	if _, err := Run(context.Background(), spec, CSV(errWriter{})); err == nil ||
		!strings.Contains(err.Error(), "sink cell") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("long rows: err = %v", err)
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
