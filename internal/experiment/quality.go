package experiment

import (
	"encoding/json"
	"fmt"

	"tctp/internal/field"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
	"tctp/internal/sweep/build"
)

// QualityConfig parameterizes the solution-quality study: every
// plan-based planner's approximation ratio against the
// internal/optimal reference bounds, across scenario presets.
type QualityConfig struct {
	// Presets are the scenario presets to evaluate (default paper51
	// and clustered — the paper's model and the disconnected
	// deployment that motivates it).
	Presets []string
	// Algorithms are the planners to rate (default the plan-based
	// family: btctp, wtctp, chb, sweep; online algorithms have no
	// plan to rate).
	Algorithms []string
	// Horizon is the simulated duration (default 60 000 s — long
	// enough that finite-horizon interval truncation cannot erode the
	// DCDT ratio's ≥ 1 guarantee).
	Horizon float64
}

func (c QualityConfig) withDefaults() QualityConfig {
	if len(c.Presets) == 0 {
		c.Presets = []string{"paper51", "clustered"}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"btctp", "wtctp", "chb", "sweep"}
	}
	if c.Horizon == 0 {
		c.Horizon = 60_000
	}
	return c
}

// QualityStudy reports each planner's approximation ratios on each
// preset: the tour-length ratio (planned walk length over the
// per-group optimal-tour bound) and the DCDT ratio (measured
// steady-state delay over the induced interval bound). Both are ≥ 1.0
// for sound planners and bounds; the study's tests and the CI quality
// gate treat anything below as a defect. Ratios render with four
// decimals so the committed golden fixtures detect sub-percent
// regressions.
func QualityStudy(p Params, cfg QualityConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	table := NewTable(
		fmt.Sprintf("Solution quality — approximation ratios vs internal/optimal bounds (%d seeds)",
			p.withDefaults().Seeds),
		"preset", "algorithm", "ratio_tour", "ratio_dcdt",
		"avg DCDT (s)", "tour length (m)")
	for _, preset := range cfg.Presets {
		ps, err := scenario.Preset(preset)
		if err != nil {
			return nil, err
		}
		spec := p.spec("quality-" + preset)
		for _, name := range cfg.Algorithms {
			alg, aerr := build.Algorithm(name)
			if aerr != nil {
				return nil, aerr
			}
			spec.Algorithms = append(spec.Algorithms, sweep.Algo(name, alg))
		}
		spec.Targets = []int{ps.Targets.Count}
		spec.Mules = []int{ps.Fleet.Size()}
		spec.Speeds = []float64{ps.Fleet.CommonSpeed()}
		spec.Placements = []field.Placement{ps.Field.Placement}
		spec.Horizons = []float64{cfg.Horizon}
		spec.Metrics = append([]sweep.Metric{sweep.AvgDCDT(), sweep.CircuitLength()},
			sweep.Quality()...)
		// The preset supplies the field geometry (cluster parameters,
		// dimensions) exactly as the shared request builder does.
		presetField := ps.Field
		spec.Configure = func(pt sweep.Point, sc *scenario.Scenario) {
			placement := sc.Field.Placement
			sc.Field = presetField
			sc.Field.Placement = placement
		}
		digest, derr := json.Marshal(presetField)
		if derr != nil {
			return nil, derr
		}
		spec.ConfigDigest = string(digest)

		err = runCells(p, spec, "quality", func(c *sweep.CellResult) error {
			table.Add(preset, c.Point.Algorithm,
				ratioCell(c.Metric("ratio_tour").Mean),
				ratioCell(c.Metric("ratio_dcdt").Mean),
				fixed(c.Metric("avg_dcdt_s").Mean, 2),
				fixed(c.Metric("circuit_m").Mean, 2))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return table, nil
}

// ratioCell renders an approximation ratio with four decimals — the
// precision contract of the golden fixtures the quality gate compares
// against.
func ratioCell(v float64) string { return fixed(v, 4) }
