package main

import (
	"time"

	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/optimizer"
	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/units"
)

// psuEfficiencyFloor widens the realized-savings envelope from DC side
// to wall side, as the optimize-scale artifact does (experiments'
// onlinePSUEfficiencyFloor).
const psuEfficiencyFloor = 0.8

// optimize-1k is what `joules -optimize -routers 1000` does: the §8
// controller over a generated 1k-router fleet for one week at hourly
// steps. Setup is optimizer.NewRig plus the controller; the run is
// Controller.Run. Each control step is one operation, timed from outside
// by watching the observation calls (the rig's public Traffic field) move
// to the next step's timestamp.
var optimizeWorkload = &workload{
	name:   "optimize-1k",
	setups: 3,
	prepare: func(seed int64) (func(*tracer) (round, error), float64, error) {
		cfg := ispnet.Config{Seed: seed, Routers: 1000, Duration: 7 * 24 * time.Hour, SNMPStep: time.Hour}
		newRound := func(tr *tracer) (round, error) {
			rig, err := optimizer.NewRig(cfg)
			if err != nil {
				return nil, err
			}
			r := &optimizeRound{cfg: cfg, rig: rig, clock: &stepClock{inner: rig.Traffic, traced: tr != nil}}
			rig.Traffic = r.clock.traffic
			r.ctl, err = rig.Controller(optimizer.Config{
				Start:          rig.Fleet.Network().Config.Start,
				Window:         cfg.Duration,
				Step:           cfg.SNMPStep,
				MinDwellSteps:  4,
				MaxUtilization: optimizer.DefaultMaxUtilization,
				PSUShed:        true,
				PSUMaxLoad:     optimizer.DefaultPSUMaxLoad,
			})
			return r, err
		}
		return newRound, studySteps(cfg), nil
	},
}

// stepClock wraps the observation plane. A control step starts when the
// controller first observes a new timestamp, so the interval between
// step starts (and from the last start to the end of Run) is one step's
// latency. Traced rounds also time every observation call.
type stepClock struct {
	inner  hypnos.TrafficFunc
	traced bool

	ops     *[]interval
	cur     time.Time
	started time.Time
	calls   int
	busy    time.Duration
}

func (c *stepClock) traffic(linkID int, t time.Time) units.BitRate {
	if !t.Equal(c.cur) {
		now := time.Now()
		c.endStep(now)
		c.cur, c.started = t, now
	}
	if !c.traced {
		return c.inner(linkID, t)
	}
	t0 := time.Now()
	v := c.inner(linkID, t)
	c.busy += time.Since(t0)
	c.calls++
	return v
}

func (c *stepClock) endStep(now time.Time) {
	if !c.started.IsZero() {
		*c.ops = append(*c.ops, interval{c.started, now})
	}
}

type optimizeRound struct {
	cfg   ispnet.Config
	rig   *optimizer.Rig
	ctl   *optimizer.Controller
	clock *stepClock

	rep     *optimizer.Report
	runS    float64
	counted float64 // optimizer_resimulates_total delta over Run
}

var resimulatesTotal = telemetry.Default().Counter("optimizer_resimulates_total", "")

func (r *optimizeRound) run(tr *tracer, ops *[]interval) error {
	r.clock.ops = ops
	before := resimulatesTotal.Value()
	t0 := time.Now()
	rep, err := r.ctl.Run()
	r.clock.endStep(time.Now())
	r.runS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	r.rep, r.counted = rep, float64(resimulatesTotal.Value()-before)
	return nil
}

func (r *optimizeRound) layers(tr *tracer) error {
	sleeps := 0
	for _, st := range r.rep.Steps {
		sleeps += len(st.Slept)
	}
	observeS := r.clock.busy.Seconds()
	tr.set("optimizer.run_s", r.runS)
	tr.set("optimizer.observe_calls", float64(r.clock.calls))
	tr.set("optimizer.observe_s", observeS)
	tr.set("optimizer.unattributed_s", selfTime(r.runS, tr.layer["hypnos.plan_s"], observeS, tr.layer["ispnet.shard_play_s"]))
	tr.set("hypnos.sleeps", float64(sleeps))
	tr.set("hypnos.sleep_accept_ratio", ratio(float64(sleeps), float64(sleeps+r.rep.Vetoes)))

	t0 := time.Now()
	pristine, err := ispnet.Build(r.cfg)
	if err != nil {
		return err
	}
	tr.set("ispnet.build_s", time.Since(t0).Seconds())
	t1 := time.Now()
	if _, _, err := hypnos.FromNetwork(pristine); err != nil {
		return err
	}
	tr.set("hypnos.from_network_ms", msSince(t1))
	t2 := time.Now()
	if _, err := ispnet.NewFleet(r.cfg); err != nil {
		return err
	}
	tr.set("ispnet.newfleet_s", time.Since(t2).Seconds())
	return nil
}

func (r *optimizeRound) digest(d *digest) {
	rep := r.rep
	d.int(rep.Actions)
	d.int(rep.Vetoes)
	d.int(rep.Resimulates)
	d.int(rep.PSUsShed)
	d.float(rep.BaselineJoules.Joules())
	d.float(rep.SleepJoules.Joules())
	d.float(rep.FinalJoules.Joules())
	for _, st := range rep.Steps {
		d.u64(uint64(st.Time.UnixNano()))
		for _, ids := range [][]int{st.Sleeping, st.Slept, st.Woke} {
			d.int(len(ids))
			for _, id := range ids {
				d.int(id)
			}
		}
		d.int(len(st.Vetoed))
	}
	d.series(r.rig.Fleet.Dataset().TotalPower)
}

// check holds the controller to its guarantees: no guardrail violation,
// realized savings inside the estimate envelope, a decision trace whose
// cold replay reproduces the fleet bit for bit, and a resimulate count
// the exported counter agrees with.
func (r *optimizeRound) check(c *checker) error {
	rep := r.rep
	c.expect(rep.GuardrailViolations == 0, "guardrail violations %d, want 0", rep.GuardrailViolations)
	c.expect(float64(rep.Resimulates) == r.counted, "Report.Resimulates %d, optimizer_resimulates_total moved %g", rep.Resimulates, r.counted)

	times := make([]time.Time, len(rep.Steps))
	sleeping := make([][]int, len(rep.Steps))
	for i, st := range rep.Steps {
		times[i], sleeping[i] = st.Time, st.Sleeping
	}
	est := hypnos.Evaluate(hypnos.NewSchedule(r.rig.Topo, times, sleeping))
	c.within("realized sleep saving (W)", rep.SleepSavedWatts.Watts(),
		est.RefinedLow.Watts(), est.RefinedHigh.Watts()/psuEfficiencyFloor)

	cold, err := ispnet.SimulateWithEvents(r.cfg, rep.Events)
	if err != nil {
		return err
	}
	diff := ispnet.DiffDatasets(r.rig.Fleet.Dataset(), cold)
	c.expect(diff == nil, "fleet dataset differs from a cold replay of Report.Events: %v", diff)
	return nil
}
