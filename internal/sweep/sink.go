package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// Sink receives a sweep's results as they finish. Begin is called once
// before execution with the defaults-applied spec and the number of
// cells that will run; Cell is called once per executed cell, in
// enumeration order; End is called once after the last cell with the
// full result (including skipped cells). A sink error aborts the
// sweep.
type Sink interface {
	Begin(spec *Spec, cells int) error
	Cell(c *CellResult) error
	End(r *Result) error
}

// pointHeader is the fixed axis-column schema shared by the CSV sink.
var pointHeader = []string{
	"algorithm", "targets", "mules", "speed", "fleet", "placement",
	"horizon", "battery", "vips", "vip_weight", "workload", "partition",
	"failure",
}

func pointRecord(p Point) []string {
	return []string{
		p.Algorithm,
		strconv.Itoa(p.Targets),
		strconv.Itoa(p.Mules),
		strconv.FormatFloat(p.Speed, 'g', -1, 64),
		p.Fleet,
		p.Placement.String(),
		strconv.FormatFloat(p.Horizon, 'g', -1, 64),
		strconv.FormatBool(p.Battery),
		strconv.Itoa(p.VIPs),
		strconv.Itoa(p.VIPWeight),
		p.Workload,
		p.Partition,
		p.Failure,
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// csvSink writes one long-form CSV row per cell: the full axis point
// followed by mean and CI95 columns for every scalar metric and the
// elementwise means of every vector metric.
type csvSink struct {
	w    *csv.Writer
	spec *Spec
}

// CSV returns a Sink emitting machine-readable CSV to w.
func CSV(w io.Writer) Sink { return &csvSink{w: csv.NewWriter(w)} }

func (s *csvSink) Begin(spec *Spec, cells int) error {
	s.spec = spec
	header := append([]string{}, pointHeader...)
	// reps is the actual replication count folded into the row — Seeds
	// everywhere unless adaptive early stopping cut a cell short.
	header = append(header, "reps")
	for _, m := range spec.Metrics {
		header = append(header, m.Name, m.Name+"_ci95")
	}
	for _, vm := range spec.Vectors {
		for k := 0; k < vm.Len; k++ {
			header = append(header, fmt.Sprintf("%s_%d", vm.Name, k+1))
		}
	}
	return s.w.Write(header)
}

func (s *csvSink) Cell(c *CellResult) error {
	rec := pointRecord(c.Point)
	rec = append(rec, strconv.Itoa(c.Reps))
	for _, m := range c.Metrics {
		rec = append(rec, fmtF(m.Mean), fmtF(m.CI95))
	}
	for i, vm := range s.spec.Vectors {
		vs := c.Vectors[i]
		for k := 0; k < vm.Len; k++ {
			if k < len(vs.Mean) {
				rec = append(rec, fmtF(vs.Mean[k]))
			} else {
				rec = append(rec, "")
			}
		}
	}
	return s.w.Write(rec)
}

func (s *csvSink) End(*Result) error {
	s.w.Flush()
	return s.w.Error()
}

// jsonlSink writes one JSON object per line: a sweep header, then one
// object per cell, then a summary object carrying the skipped cells.
type jsonlSink struct {
	enc *json.Encoder
}

// JSONL returns a Sink emitting JSON-lines to w.
func JSONL(w io.Writer) Sink { return &jsonlSink{enc: json.NewEncoder(w)} }

func (s *jsonlSink) Begin(spec *Spec, cells int) error {
	return s.enc.Encode(struct {
		Sweep    string `json:"sweep"`
		Seeds    int    `json:"seeds"`
		BaseSeed uint64 `json:"base_seed"`
		Cells    int    `json:"cells"`
	}{spec.Name, spec.Seeds, spec.BaseSeed, cells})
}

func (s *jsonlSink) Cell(c *CellResult) error { return s.enc.Encode(c) }

func (s *jsonlSink) End(r *Result) error {
	type summary struct {
		Cells   int           `json:"cells"`
		Runs    int           `json:"runs"`
		Skipped []SkippedCell `json:"skipped,omitempty"`
		Stopped []StoppedCell `json:"stopped,omitempty"`
	}
	return s.enc.Encode(struct {
		Summary summary `json:"summary"`
	}{summary{len(r.Cells), r.Runs, r.Skipped, r.Stopped}})
}

// ReplayJSONL writes a finished result to w through the JSONL sink,
// byte for byte as the sink streams it during a run of a sweep with
// that name, seed count and base seed: the header, every cell, the
// summary. It lets a caller keep a result and render its JSONL only
// when asked for it.
func ReplayJSONL(w io.Writer, name string, seeds int, baseSeed uint64, r *Result) error {
	s := JSONL(w)
	if err := s.Begin(&Spec{Name: name, Seeds: seeds, BaseSeed: baseSeed}, len(r.Cells)); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if err := s.Cell(c); err != nil {
			return err
		}
	}
	return s.End(r)
}

// textSink renders an aligned table for terminals: only the axes that
// actually vary become columns, each metric shows mean ±CI95, and the
// run summary (including skipped cells) lands in a footer.
type textSink struct {
	out  io.Writer
	tw   *tabwriter.Writer
	cols []pointColumn
}

type pointColumn struct {
	name string
	get  func(Point) string
}

// TextTable returns a Sink rendering an aligned text table to w.
func TextTable(w io.Writer) Sink { return &textSink{out: w} }

func (s *textSink) Begin(spec *Spec, cells int) error {
	s.cols = nil
	add := func(vary bool, name string, get func(Point) string) {
		if vary {
			s.cols = append(s.cols, pointColumn{name, get})
		}
	}
	add(len(spec.Algorithms) > 1, "algorithm", func(p Point) string { return p.Algorithm })
	add(len(spec.Targets) > 1, "targets", func(p Point) string { return strconv.Itoa(p.Targets) })
	add(len(spec.Mules) > 1, "mules", func(p Point) string { return strconv.Itoa(p.Mules) })
	add(len(spec.Speeds) > 1, "speed", func(p Point) string {
		return strconv.FormatFloat(p.Speed, 'g', -1, 64)
	})
	add(len(spec.Fleets) > 1, "fleet", func(p Point) string { return p.Fleet })
	add(len(spec.Placements) > 1, "placement", func(p Point) string { return p.Placement.String() })
	add(len(spec.Horizons) > 1, "horizon", func(p Point) string {
		return strconv.FormatFloat(p.Horizon, 'g', -1, 64)
	})
	add(len(spec.Battery) > 1, "battery", func(p Point) string { return strconv.FormatBool(p.Battery) })
	add(len(spec.VIPs) > 1, "vips", func(p Point) string { return strconv.Itoa(p.VIPs) })
	add(len(spec.VIPWeights) > 1, "vip_weight", func(p Point) string { return strconv.Itoa(p.VIPWeight) })
	add(len(spec.Workloads) > 1, "workload", func(p Point) string {
		if p.Workload == "" {
			return "none"
		}
		return p.Workload
	})
	add(len(spec.Partitions) > 1, "partition", func(p Point) string {
		if p.Partition == "" {
			return "none"
		}
		return p.Partition
	})
	add(len(spec.Failures) > 1, "failure", func(p Point) string {
		if p.Failure == "" {
			return "none"
		}
		return p.Failure
	})
	if len(s.cols) == 0 {
		add(true, "algorithm", func(p Point) string { return p.Algorithm })
	}

	title := spec.Name
	if title == "" {
		title = "sweep"
	}
	if _, err := fmt.Fprintf(s.out, "== %s (%d cells × %d replications) ==\n",
		title, cells, spec.Seeds); err != nil {
		return err
	}
	s.tw = tabwriter.NewWriter(s.out, 2, 4, 2, ' ', 0)
	header := ""
	for i, c := range s.cols {
		if i > 0 {
			header += "\t"
		}
		header += c.name
	}
	for _, m := range spec.Metrics {
		header += "\t" + m.Name
	}
	for _, vm := range spec.Vectors {
		header += "\t" + vm.Name + "[...]"
	}
	_, err := fmt.Fprintln(s.tw, header)
	return err
}

func (s *textSink) Cell(c *CellResult) error {
	row := ""
	for i, col := range s.cols {
		if i > 0 {
			row += "\t"
		}
		row += col.get(c.Point)
	}
	for _, m := range c.Metrics {
		row += fmt.Sprintf("\t%.2f ±%.2f", m.Mean, m.CI95)
	}
	for _, v := range c.Vectors {
		row += fmt.Sprintf("\t(%d pts)", len(v.Mean))
	}
	_, err := fmt.Fprintln(s.tw, row)
	return err
}

func (s *textSink) End(r *Result) error {
	if err := s.tw.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.out, "%d cells, %d runs, %d skipped\n",
		len(r.Cells), r.Runs, len(r.Skipped)); err != nil {
		return err
	}
	for _, sk := range r.Skipped {
		if _, err := fmt.Fprintf(s.out, "skipped: %v (%s)\n", sk.Point, sk.Reason); err != nil {
			return err
		}
	}
	for _, st := range r.Stopped {
		if _, err := fmt.Fprintf(s.out, "stopped early: %v after %d reps (%s)\n",
			st.Point, st.Reps, st.Reason); err != nil {
			return err
		}
	}
	return nil
}
