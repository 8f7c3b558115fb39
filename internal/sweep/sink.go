package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"unicode"
	"unicode/utf8"

	"tctp/internal/ftoa"
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

// csvFlushAt is the buffered size past which the CSV sink writes its
// rows out, as a 4 KB bufio.Writer would. The buffer starts at that
// capacity: a sweep of a few dozen cells then allocates it once, where
// growing it from empty costs more allocations and more bytes.
const csvFlushAt = 4096

// csvSink writes one long-form CSV row per cell: the full axis point
// followed by mean and CI95 columns for every scalar metric and the
// elementwise means of every vector metric, each with three decimals.
//
// Its bytes are exactly those of encoding/csv's Writer fed each row as
// strings, the metrics formatted by strconv's 'f' format (csvOracle in
// the tests), but a row costs no allocation. It is appended into one
// reused buffer: the point columns through strconv's Append functions,
// the string fields quoted in place by quoteCSV, and the metrics
// through ftoa.AppendFixed. That formatter rounds exactly in integer
// arithmetic for normal values from 2^-75 to 2^50, which holds every
// metric the sweeps emit, and hands any other value (0, NaN, ±Inf,
// subnormals, larger magnitudes) to strconv. The buffer goes to w once
// it passes csvFlushAt bytes, and at End.
type csvSink struct {
	w    io.Writer
	buf  []byte
	spec *Spec
}

// CSV returns a Sink emitting machine-readable CSV to w.
func CSV(w io.Writer) Sink { return &csvSink{w: w, buf: make([]byte, 0, csvFlushAt)} }

func (s *csvSink) Begin(spec *Spec, cells int) error {
	s.spec = spec
	b := s.buf
	for _, name := range pointHeader {
		b = append(append(b, name...), ',')
	}
	// reps is the actual replication count folded into the row — Seeds
	// everywhere unless adaptive early stopping cut a cell short.
	b = append(b, "reps"...)
	for _, m := range spec.Metrics {
		b = appendCSVField(append(b, ','), m.Name)
		b = append(b, ',')
		start := len(b)
		b = quoteCSV(append(append(b, m.Name...), "_ci95"...), start)
	}
	for _, vm := range spec.Vectors {
		for k := 1; k <= vm.Len; k++ {
			b = append(b, ',')
			start := len(b)
			b = strconv.AppendInt(append(append(b, vm.Name...), '_'), int64(k), 10)
			b = quoteCSV(b, start)
		}
	}
	return s.endRow(b)
}

func (s *csvSink) Cell(c *CellResult) error {
	p := &c.Point
	b := appendCSVField(s.buf, p.Algorithm)
	b = strconv.AppendInt(append(b, ','), int64(p.Targets), 10)
	b = strconv.AppendInt(append(b, ','), int64(p.Mules), 10)
	b = strconv.AppendFloat(append(b, ','), p.Speed, 'g', -1, 64)
	b = appendCSVField(append(b, ','), p.Fleet)
	b = appendCSVField(append(b, ','), p.Placement.String())
	b = strconv.AppendFloat(append(b, ','), p.Horizon, 'g', -1, 64)
	b = strconv.AppendBool(append(b, ','), p.Battery)
	b = strconv.AppendInt(append(b, ','), int64(p.VIPs), 10)
	b = strconv.AppendInt(append(b, ','), int64(p.VIPWeight), 10)
	b = appendCSVField(append(b, ','), p.Workload)
	b = appendCSVField(append(b, ','), p.Partition)
	b = appendCSVField(append(b, ','), p.Failure)
	b = strconv.AppendInt(append(b, ','), int64(c.Reps), 10)
	for _, m := range c.Metrics {
		b = ftoa.AppendFixed(append(b, ','), m.Mean, 3)
		b = ftoa.AppendFixed(append(b, ','), m.CI95, 3)
	}
	for i, vm := range s.spec.Vectors {
		mean := c.Vectors[i].Mean
		for k := 0; k < vm.Len; k++ {
			b = append(b, ',')
			if k < len(mean) {
				b = ftoa.AppendFixed(b, mean[k], 3)
			}
		}
	}
	return s.endRow(b)
}

func (s *csvSink) End(*Result) error { return s.flush() }

// endRow ends the row buffered in b and writes the buffer out once it
// passes csvFlushAt bytes.
func (s *csvSink) endRow(b []byte) error {
	s.buf = append(b, '\n')
	if len(s.buf) < csvFlushAt {
		return nil
	}
	return s.flush()
}

func (s *csvSink) flush() error {
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// appendCSVField appends field to b as encoding/csv's Writer writes
// it (see quoteCSV).
func appendCSVField(b []byte, field string) []byte {
	return quoteCSV(append(b, field...), len(b))
}

// quoteCSV quotes the field b[start:], when encoding/csv's Writer
// (Comma ',', UseCRLF false) would: a field holding a comma, a quote,
// '\r' or '\n', one starting with a Unicode space, and the field `\.`
// are wrapped in quotes, each quote inside doubled.
func quoteCSV(b []byte, start int) []byte {
	f := b[start:]
	if !csvNeedsQuotes(f) {
		return b
	}
	field := string(f)
	b = append(b[:start], '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, field[i])
	}
	return append(b, '"')
}

func csvNeedsQuotes(f []byte) bool {
	if len(f) == 0 {
		return false
	}
	if string(f) == `\.` {
		return true
	}
	for _, c := range f {
		switch c {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRune(f)
	return unicode.IsSpace(r)
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
