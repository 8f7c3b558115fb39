package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"tctp/internal/ftoa"
	"tctp/internal/stats"
)

// Table is a titled grid of cells used for experiment summaries.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; the cell count must match the column count.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiment: row has %d cells, table has %d columns",
			len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// fixed renders v with prec decimals, byte for byte as strconv's 'f'
// format does.
func fixed(v float64, prec int) string {
	var b [24]byte
	return string(ftoa.AppendFixed(b[:0], v, prec))
}

// AddF appends one row of formatted values: strings pass through,
// float64 renders with %.2f, int with %d.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fixed(v, 2)
		case int:
			row[i] = strconv.Itoa(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return sb.String()
}

// CSV writes the table (without its title) as CSV.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// RenderSeries prints aligned columns for a family of curves sharing
// an x axis — the textual equivalent of a Fig. 7-style line plot.
func RenderSeries(title, xLabel string, series []stats.Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	header := xLabel
	maxLen := 0
	for _, s := range series {
		header += "\t" + s.Name
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	fmt.Fprintln(w, header)
	for i := 0; i < maxLen; i++ {
		var row strings.Builder
		wrote := false
		for _, s := range series {
			if !wrote {
				if i < s.Len() {
					fmt.Fprintf(&row, "%g", s.X[i])
				} else {
					row.WriteString("-")
				}
				wrote = true
			}
			if i < s.Len() {
				fmt.Fprintf(&row, "\t%.2f", s.Y[i])
			} else {
				row.WriteString("\t-")
			}
		}
		fmt.Fprintln(w, row.String())
	}
	w.Flush()
	return sb.String()
}

// SeriesCSV writes the series family as CSV with a shared x column.
func SeriesCSV(w io.Writer, xLabel string, series []stats.Series) error {
	cw := csv.NewWriter(w)
	header := []string{xLabel}
	maxLen := 0
	for _, s := range series {
		header = append(header, s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(header))
		x := ""
		for _, s := range series {
			if i < s.Len() {
				x = strconv.FormatFloat(s.X[i], 'g', -1, 64)
				break
			}
		}
		row = append(row, x)
		for _, s := range series {
			if i < s.Len() {
				row = append(row, fixed(s.Y[i], 4))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderSurface prints a 2-D parameter grid — the textual equivalent
// of the paper's 3-D bar plots (Figs. 8–10).
func RenderSurface(s *stats.Surface) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s (rows: %s, cols: %s) ==\n", s.Name, s.RowLabel, s.ColLabel)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	header := s.RowLabel + "\\" + s.ColLabel
	for _, c := range s.Cols {
		header += fmt.Sprintf("\t%g", c)
	}
	fmt.Fprintln(w, header)
	for i, r := range s.Rows {
		row := fmt.Sprintf("%g", r)
		for j := range s.Cols {
			row += fmt.Sprintf("\t%.2f", s.At(i, j))
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	return sb.String()
}

// SurfaceCSV writes the surface as long-form CSV
// (rowValue, colValue, z).
func SurfaceCSV(w io.Writer, s *stats.Surface) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{s.RowLabel, s.ColLabel, s.Name}); err != nil {
		return err
	}
	for i, r := range s.Rows {
		for j, c := range s.Cols {
			rec := []string{
				strconv.FormatFloat(r, 'g', -1, 64),
				strconv.FormatFloat(c, 'g', -1, 64),
				fixed(s.At(i, j), 4),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
