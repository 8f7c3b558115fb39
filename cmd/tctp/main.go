// Command tctp plans and simulates one patrolling scenario and prints
// the route map, the plan summary, and the paper's metrics.
//
// Usage:
//
//	tctp -alg btctp -targets 20 -mules 4 -seed 1
//	tctp -alg wtctp -policy balancing -vips 3 -weight 4
//	tctp -alg rwtctp -battery 150000
//	tctp -alg chb | -alg sweep | -alg random
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/energy"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/viz"
	"tctp/internal/xrand"
)

func main() {
	var (
		alg       = flag.String("alg", "btctp", "algorithm: btctp, wtctp, rwtctp, chb, sweep, random")
		policy    = flag.String("policy", "shortest", "W-TCTP break policy: shortest or balancing")
		targets   = flag.Int("targets", 20, "number of targets (excluding the sink)")
		mules     = flag.Int("mules", 4, "number of data mules")
		vips      = flag.Int("vips", 0, "number of VIP targets")
		weight    = flag.Int("weight", 3, "VIP weight")
		placement = flag.String("placement", "uniform", "target placement: "+field.PlacementNames)
		seed      = flag.Uint64("seed", 1, "scenario seed")
		horizon   = flag.Float64("horizon", 60_000, "simulated seconds")
		battery   = flag.Float64("battery", energy.DefaultCapacity, "battery capacity (J), used with -alg rwtctp")
		mapW      = flag.Int("map-width", 72, "ASCII map width (0 disables the map)")
		mapH      = flag.Int("map-height", 28, "ASCII map height")
		loadPath  = flag.String("load", "", "load the scenario from this JSON file instead of generating one")
		savePath  = flag.String("save", "", "save the (generated or loaded) scenario as JSON")
	)
	flag.Parse()

	if err := run(*alg, *policy, *targets, *mules, *vips, *weight, *placement,
		*seed, *horizon, *battery, *mapW, *mapH, *loadPath, *savePath); err != nil {
		fmt.Fprintln(os.Stderr, "tctp:", err)
		os.Exit(1)
	}
}

// loadScenario reads a scenario JSON file written by -save.
func loadScenario(path string) (*field.Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s field.Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return &s, nil
}

func run(alg, policy string, targets, mules, vips, weight int, placement string,
	seed uint64, horizon, battery float64, mapW, mapH int, loadPath, savePath string) error {

	place, err := field.ParsePlacement(placement)
	if err != nil {
		return err
	}

	src := xrand.New(seed)
	var s *field.Scenario
	if loadPath != "" {
		loaded, err := loadScenario(loadPath)
		if err != nil {
			return err
		}
		s = loaded
		targets = s.NumTargets() - 1
		mules = s.NumMules()
	} else {
		if s, err = field.Generate(field.Config{
			NumTargets:   targets,
			NumMules:     mules,
			Placement:    place,
			WithRecharge: alg == "rwtctp",
		}, src); err != nil {
			return err
		}
		if vips > 0 {
			s.AssignVIPs(src, vips, weight)
		}
	}
	if savePath != "" {
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(savePath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("scenario saved to %s\n", savePath)
	}

	var pol core.BreakPolicy
	switch policy {
	case "shortest":
		pol = core.ShortestLength
	case "balancing":
		pol = core.BalancingLength
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}

	opts := patrol.Options{Horizon: horizon}
	var algorithm patrol.Algorithm
	switch alg {
	case "btctp":
		algorithm = patrol.Planned(&core.BTCTP{})
	case "wtctp":
		algorithm = patrol.Planned(&core.WTCTP{Policy: pol})
	case "rwtctp":
		model := energy.Default()
		model.Capacity = battery
		rw := &core.RWTCTP{}
		rw.Policy = pol
		rw.Model = model
		opts.UseBattery = true
		opts.Energy = model
		algorithm = patrol.Planned(rw)
	case "chb":
		algorithm = patrol.Planned(&baseline.CHB{})
	case "sweep":
		algorithm = patrol.Planned(&baseline.Sweep{})
	case "random":
		algorithm = patrol.Online(&baseline.Random{})
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	res, err := patrol.Run(s, algorithm, opts, xrand.New(seed+1))
	if err != nil {
		return err
	}

	fmt.Printf("algorithm: %s\n", res.Algorithm)
	fmt.Printf("scenario: %d targets (+sink), %d mules, %s placement, seed %d\n",
		targets, mules, placement, seed)
	if mapW > 0 {
		fmt.Print(viz.MapPlan(s, res.Plan, mapW, mapH))
	}
	if res.Plan != nil {
		pts := s.Points()
		fmt.Printf("patrolling path: %d stops, %.1f m",
			res.Plan.TotalWalkSize(), res.Plan.TotalWalkLength(pts))
		if len(res.Plan.Groups) > 1 {
			fmt.Printf(" across %d patrol groups", len(res.Plan.Groups))
		}
		fmt.Println()
		if res.Plan.Rounds > 0 {
			fmt.Printf("recharge rounds (Equ. 4): %d\n", res.Plan.Rounds)
		}
	}
	fmt.Printf("simulated: %.0f s, %d visits, %.0f J total (%.1f J/visit)\n",
		horizon, res.TotalVisits(), res.TotalEnergy(), res.EnergyPerVisit())

	warm := res.PatrolStart + 1
	fmt.Printf("metrics (steady state):\n")
	fmt.Printf("  avg visiting interval (DCDT): %.1f s\n", res.Recorder.AvgDCDTAfter(warm))
	fmt.Printf("  avg SD of intervals:          %.3f s\n", res.Recorder.AvgSDAfter(warm))
	fmt.Printf("  max interval:                 %.1f s\n", res.Recorder.MaxInterval())
	if res.DeadMules() > 0 {
		fmt.Printf("  DEAD MULES: %d of %d\n", res.DeadMules(), len(res.Mules))
	}
	for i, m := range res.Mules {
		fmt.Printf("  mule %d: %.0f m, %d visits, %d recharges\n",
			i, m.Distance, m.Visits, m.Recharges)
	}
	return nil
}
