package sweep

import (
	"context"
	"testing"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
)

func qualitySpec(alg Variant) Spec {
	return Spec{
		Name:       "quality-test",
		Algorithms: []Variant{alg},
		Targets:    []int{12},
		Mules:      []int{4},
		Speeds:     []float64{2},
		Placements: []field.Placement{field.Uniform},
		Horizons:   []float64{60_000},
		Seeds:      3,
		Metrics:    Quality(),
	}
}

// qualityMetricNames lists the metric names Quality adds, in order:
// the schema the quality study, the CSV golden fixtures and the
// benchgate quality gate share.
var qualityMetricNames = []string{"ratio_tour", "ratio_dcdt"}

// Every planner's approximation ratios must be ≥ 1.0: the denominator
// is a sound lower bound (exact Held-Karp here, at 12 targets per
// group), so a ratio below 1 means the bound or the solver is wrong.
func TestQualityRatiosAtLeastOne(t *testing.T) {
	for _, v := range []Variant{
		Algo("B-TCTP", patrol.Planned(&core.BTCTP{})),
		Algo("W-TCTP", patrol.Planned(&core.WTCTP{})),
		Algo("CHB", patrol.Planned(&baseline.CHB{})),
		Algo("Sweep", patrol.Planned(&baseline.Sweep{})),
	} {
		res, err := Run(context.Background(), qualitySpec(v))
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		for _, c := range res.Cells {
			for _, name := range qualityMetricNames {
				m := c.Metric(name)
				if m.Min < 1 {
					t.Errorf("%s: %s min %v < 1 (mean %v)", v.Name, name, m.Min, m.Mean)
				}
			}
		}
	}
}

// Online algorithms have no plan; the ratio columns must report 0,
// not fail.
func TestQualityRatiosOnlineZero(t *testing.T) {
	res, err := Run(context.Background(), qualitySpec(
		Algo("Random", patrol.Online(&baseline.Random{}))))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		for _, name := range qualityMetricNames {
			if m := c.Metric(name); m.Mean != 0 {
				t.Errorf("online %s mean %v, want 0", name, m.Mean)
			}
		}
	}
}

// Partitioned plans are bounded per group: the ratio must stay ≥ 1
// even though k separate cycles are shorter than one global tour.
func TestQualityRatiosPartitioned(t *testing.T) {
	spec := qualitySpec(Algo("B-TCTP", patrol.Planned(&core.BTCTP{})))
	spec.Placements = []field.Placement{field.Clusters}
	spec.Partitions = []Partition{{Method: "kmeans", K: 2}}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		for _, name := range qualityMetricNames {
			if m := c.Metric(name); m.Min < 1 {
				t.Errorf("partitioned %s min %v < 1", name, m.Min)
			}
		}
	}
}

// Adding the quality metrics must change every cell's content-
// addressed identity: metric names are part of the key, so quality
// cells and plain cells can never alias in a shared cache.
func TestQualityMetricsChangeCellKey(t *testing.T) {
	plain := qualitySpec(Algo("B-TCTP", patrol.Planned(&core.BTCTP{})))
	plain.Metrics = []Metric{AvgDCDT()}
	quality := qualitySpec(Algo("B-TCTP", patrol.Planned(&core.BTCTP{})))
	quality.Metrics = append([]Metric{AvgDCDT()}, Quality()...)

	jp, err := Plan(plain)
	if err != nil {
		t.Fatal(err)
	}
	jq, err := Plan(quality)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := jp.CellKey(0)
	if err != nil {
		t.Fatal(err)
	}
	kq, err := jq.CellKey(0)
	if err != nil {
		t.Fatal(err)
	}
	if kp == kq {
		t.Fatalf("quality metrics did not change the cell key %s", kp)
	}
}
