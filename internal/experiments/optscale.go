package experiments

import (
	"fmt"
	"time"

	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/optimizer"
	"fantasticjoules/internal/units"
)

// The optimize-scale study closes the loop on generated fleets: where
// the scale artifact streams a hierarchical fleet through a counting
// sink, this one stands up the full control rig on it — incremental
// fleet, derived hypnos topology, per-link observed traffic — runs the
// §8 controller, and measures the realized wall-side joules
// against the same estimate envelope the calibrated section8online
// artifact uses. It is the proof that nothing in the control plane is
// pinned to the 107-router build.

// OptimizeScaleConfig shapes one closed-loop run on a generated fleet.
type OptimizeScaleConfig struct {
	Seed    int64
	Routers int
	// Window is both the dataset duration and the control window; Step is
	// both the SNMP grid and the control interval, so every control
	// decision lands on a sample boundary.
	Window time.Duration
	Step   time.Duration
}

func (c *OptimizeScaleConfig) applyDefaults() {
	if c.Routers <= 0 {
		c.Routers = 1000
	}
	if c.Window <= 0 {
		c.Window = 7 * 24 * time.Hour
	}
	if c.Step <= 0 {
		c.Step = time.Hour
	}
}

// OptimizeScaleRow is one fleet size's closed-loop summary: the control
// trace accounting plus the realized-vs-estimated savings envelope.
type OptimizeScaleRow struct {
	Routers int
	// Tiers counts routers per tier; Links is the derived topology's
	// internal link count.
	Tiers map[string]int
	Links int
	// Control-loop accounting over the window.
	Steps               int
	Actions             int
	Vetoes              int
	Resimulates         int
	GuardrailViolations int
	Transitions         int
	PSUsShed            int
	// BaselineMeanPower is the no-op fleet's mean wall power.
	// RealizedSavedJoules / RealizedSavedWatts are the measured wall-side
	// saving of the sleep schedule; RealizedShare is the fraction of the
	// baseline mean. PSUSavedJoules is the provisioning pass, separately
	// accounted.
	BaselineMeanPower   units.Power
	RealizedSavedJoules units.Energy
	RealizedSavedWatts  units.Power
	RealizedShare       float64
	PSUSavedJoules      units.Energy
	// The acceptance envelope, as in Section8Online: the realized watts
	// must land in [EnvelopeLow, EnvelopeHigh], where the bounds price the
	// realized schedule with the §7 refined accounting and amplify the
	// ceiling by the worst-case PSU conversion.
	EnvelopeLow    units.Power
	EnvelopeHigh   units.Power
	WithinEnvelope bool
}

// RunOptimizeScale stands up the control rig on a generated fleet and
// runs the closed loop over the window. A free function, not a Suite
// artifact, for the same reason RunScale is: the fleet is parameterized
// by size and must not pin per-size datasets in the suite cache.
// Deterministic: same config, same trace and the same joules, bit for
// bit.
func RunOptimizeScale(cfg OptimizeScaleConfig) (OptimizeScaleRow, error) {
	cfg.applyDefaults()
	rig, err := optimizer.NewRig(ispnet.Config{
		Seed:     cfg.Seed,
		Routers:  cfg.Routers,
		Duration: cfg.Window,
		SNMPStep: cfg.Step,
	})
	if err != nil {
		return OptimizeScaleRow{}, fmt.Errorf("optimize-scale rig (%d routers): %w", cfg.Routers, err)
	}
	net := rig.Fleet.Network()
	ctl, err := rig.Controller(optimizer.Config{
		Start:  net.Config.Start,
		Window: cfg.Window,
		Step:   cfg.Step,
		// The EXPERIMENTS.md optimizer-scenario hysteresis setting.
		MinDwellSteps:  4,
		MaxUtilization: optimizer.DefaultMaxUtilization,
		PSUShed:        true,
		PSUMaxLoad:     optimizer.DefaultPSUMaxLoad,
	})
	if err != nil {
		return OptimizeScaleRow{}, err
	}
	rep, err := ctl.Run()
	if err != nil {
		return OptimizeScaleRow{}, fmt.Errorf("optimize-scale run (%d routers): %w", cfg.Routers, err)
	}

	// Price the realized schedule with the offline accounting, exactly as
	// section8online does, so the envelope compares the same sleeping
	// link-hours at every fleet size.
	times := make([]time.Time, len(rep.Steps))
	sleeping := make([][]int, len(rep.Steps))
	for i, st := range rep.Steps {
		times[i] = st.Time
		sleeping[i] = st.Sleeping
	}
	estimate := hypnos.Evaluate(hypnos.NewSchedule(rig.Topo, times, sleeping))

	row := OptimizeScaleRow{
		Routers:             cfg.Routers,
		Links:               len(rig.Topo.Links),
		Steps:               len(rep.Steps),
		Actions:             rep.Actions,
		Vetoes:              rep.Vetoes,
		Resimulates:         rep.Resimulates,
		GuardrailViolations: rep.GuardrailViolations,
		Transitions:         rep.Transitions(),
		PSUsShed:            rep.PSUsShed,
		RealizedSavedJoules: rep.SleepSavedJoules,
		RealizedSavedWatts:  rep.SleepSavedWatts,
		PSUSavedJoules:      rep.PSUSavedJoules,
		EnvelopeLow:         estimate.RefinedLow,
		EnvelopeHigh:        units.Power(estimate.RefinedHigh.Watts() / onlinePSUEfficiencyFloor),
	}
	if net.Hierarchical() {
		row.Tiers = make(map[string]int)
		for _, r := range net.Routers {
			row.Tiers[r.Tier]++
		}
	}
	row.BaselineMeanPower = units.Power(rep.BaselineJoules.Joules() / cfg.Window.Seconds())
	if row.BaselineMeanPower > 0 {
		row.RealizedShare = row.RealizedSavedWatts.Watts() / row.BaselineMeanPower.Watts()
	}
	row.WithinEnvelope = row.RealizedSavedWatts >= row.EnvelopeLow &&
		row.RealizedSavedWatts <= row.EnvelopeHigh
	return row, nil
}
