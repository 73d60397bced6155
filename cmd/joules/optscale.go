package main

import (
	"fmt"
	"time"

	"fantasticjoules/internal/experiments"
)

// optscaleWindow keeps the closed-loop row interactive at every size:
// a week of hourly control steps up to 2k routers, two days beyond.
func optscaleWindow(routers int) time.Duration {
	if routers > 2000 {
		return 2 * 24 * time.Hour
	}
	return 7 * 24 * time.Hour
}

// runOptimizeScale closes the loop on a generated hierarchical fleet
// (default 1000 routers; -routers picks another size) and prints the
// realized savings against the estimate envelope. Wall-clock timing
// lives here — the experiments package is determinism-linted and must
// not read the clock.
func runOptimizeScale(*experiments.Suite) error {
	routers := scaleRouters
	if routers <= 0 {
		routers = 1000
	}
	start := time.Now()
	row, err := experiments.RunOptimizeScale(experiments.OptimizeScaleConfig{
		Seed:    scaleSeed,
		Routers: routers,
		Window:  optscaleWindow(routers),
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("fleet: %d routers (%s), %d internal links\n",
		row.Routers, tierCensus(row.Tiers), row.Links)
	fmt.Printf("control: %d steps, %d actions, %d vetoes, %d resimulates, %d transitions, %d guardrail violations\n",
		row.Steps, row.Actions, row.Vetoes, row.Resimulates, row.Transitions, row.GuardrailViolations)
	fmt.Printf("baseline: %.1f kW mean wall power\n", row.BaselineMeanPower.Watts()/1e3)
	fmt.Printf("realized: %.1f kW saved (%.1f%% of baseline), %.3g J over the window\n",
		row.RealizedSavedWatts.Watts()/1e3, 100*row.RealizedShare,
		row.RealizedSavedJoules.Joules())
	verdict := "within"
	if !row.WithinEnvelope {
		verdict = "OUTSIDE"
	}
	fmt.Printf("envelope: [%.1f, %.1f] kW — realized %s\n",
		row.EnvelopeLow.Watts()/1e3, row.EnvelopeHigh.Watts()/1e3, verdict)
	fmt.Printf("psu shed: %d supplies, %.3g J additional\n",
		row.PSUsShed, row.PSUSavedJoules.Joules())
	fmt.Printf("wall: %.2fs\n", wall.Seconds())
	return nil
}
