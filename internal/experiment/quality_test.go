package experiment

import (
	"bytes"
	"strconv"
	"testing"
)

// Every planner's reported ratio must be ≥ 1.0 on every preset: the
// denominators are sound lower bounds, so a smaller value means the
// bound (or the solver under it) is wrong.
func TestQualityStudyRatiosAtLeastOne(t *testing.T) {
	table, err := QualityStudy(Params{Seeds: 3}, QualityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 { // 2 presets × 4 planners
		t.Fatalf("%d rows, want 8", len(table.Rows))
	}
	for _, row := range table.Rows {
		for _, col := range []int{2, 3} {
			v, perr := strconv.ParseFloat(row[col], 64)
			if perr != nil {
				t.Fatalf("row %v: bad ratio %q", row, row[col])
			}
			if v < 1 {
				t.Errorf("%s/%s: %s ratio %v < 1", row[0], row[1], table.Columns[col], v)
			}
		}
	}
}

// The study's output must be byte-identical across worker counts —
// the property the committed golden fixtures and the CI quality gate
// rely on.
func TestQualityStudyDeterministic(t *testing.T) {
	render := func(workers int) []byte {
		p := Params{Seeds: 3}
		p.Workers = workers
		table, err := QualityStudy(p, QualityConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := table.CSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	four := render(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("quality study diverged across worker counts:\n1: %s\n4: %s", one, four)
	}
}
