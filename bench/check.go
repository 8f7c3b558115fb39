package main

import (
	"fmt"
	"strconv"
	"strings"
)

// table is a CSV document split into its header line and row lines.
// The lines stay raw text, so every comparison is a byte comparison.
type table struct {
	header string
	rows   []string
}

func splitCSV(b []byte) (table, error) {
	text := string(b)
	if !strings.HasSuffix(text, "\n") {
		return table{}, fmt.Errorf("output of %d bytes does not end in a newline", len(b))
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	return table{header: lines[0], rows: lines[1:]}, nil
}

// column returns the index of a header column, or -1.
func (t table) column(name string) int {
	for i, c := range strings.Split(t.header, ",") {
		if c == name {
			return i
		}
	}
	return -1
}

// subgrid returns the header plus the rows of the cells g contains, in
// t's order: the exact output of a sweep of g, when t is the output of
// a sweep of a grid containing g under the same replication protocol.
func (t table) subgrid(g grid) (table, error) {
	ia, it, im := t.column("algorithm"), t.column("targets"), t.column("mules")
	if ia < 0 || it < 0 || im < 0 {
		return table{}, fmt.Errorf("reference CSV lacks an axis column")
	}
	out := table{header: t.header}
	for _, row := range t.rows {
		f := strings.Split(row, ",")
		nt, err1 := strconv.Atoi(f[it])
		nm, err2 := strconv.Atoi(f[im])
		if err1 != nil || err2 != nil {
			return table{}, fmt.Errorf("reference row %q has a malformed axis value", row)
		}
		if g.contains(f[ia], nt, nm) {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// verifySweep checks one tctp-sweep CSV document of a sweep of `cells`
// cells with `seeds` replications each, and returns how many cells are
// wrong. A row is wrong when its reps column is not the seed count,
// when it is a B-TCTP row whose avg_sd_s is not exactly 0.000 (the
// paper's equal-spacing claim), or when it differs from the matching
// row of want (if given). An unparseable document, a wrong header or a
// wrong row count makes every cell wrong. The returned message names
// the first problem.
func verifySweep(out []byte, want *table, seeds, cells int) (int, string) {
	got, err := splitCSV(out)
	if err != nil {
		return cells, err.Error()
	}
	if len(got.rows) != cells {
		return cells, fmt.Sprintf("%d rows, want %d", len(got.rows), cells)
	}
	if want != nil && got.header != want.header {
		return cells, "header differs from the reference"
	}
	ia, ir, isd := got.column("algorithm"), got.column("reps"), got.column("avg_sd_s")
	if ia < 0 || ir < 0 || isd < 0 {
		return cells, "header lacks algorithm, reps or avg_sd_s"
	}
	ncol := len(strings.Split(got.header, ","))
	bad, msg := 0, ""
	wantReps := strconv.Itoa(seeds)
	for i, row := range got.rows {
		f := strings.Split(row, ",")
		var problem string
		switch {
		case len(f) != ncol:
			problem = "has the wrong column count"
		case f[ir] != wantReps:
			problem = "has reps " + f[ir] + ", want " + wantReps
		case f[ia] == "btctp" && f[isd] != "0.000":
			problem = "is a B-TCTP row with avg_sd_s " + f[isd]
		case want != nil && row != want.rows[i]:
			problem = "differs from the reference"
		}
		if problem != "" {
			bad++
			if msg == "" {
				msg = fmt.Sprintf("row %d %s", i+1, problem)
			}
		}
	}
	return bad, msg
}
