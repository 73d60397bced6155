package optimizer

import (
	"errors"
	"fmt"
	"time"

	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// The §8 control knobs. Callers must set Config.MaxUtilization (and
// PSUMaxLoad, when PSUShed is on) explicitly — pass these constants for
// the paper's values.
const (
	// DefaultMaxUtilization is the §8 guardrail cap: surviving links may
	// carry at most half their capacity after rerouting, keeping failover
	// headroom.
	DefaultMaxUtilization = 0.5
	// DefaultPSUMaxLoad is the §9.3.4 provisioning cap: surviving PSUs
	// may carry at most 80 % of their rated capacity at the peak.
	DefaultPSUMaxLoad = 0.8
)

// ErrNonPositiveConfig is returned by New when a Config ratio that the
// run would consume is zero or negative. There is no silent defaulting
// for these: a zero MaxUtilization is indistinguishable from an unset
// field, and treating it as "0.5" masked real caller bugs (an explicit
// "no headroom" cap silently became the paper default). Callers choose a
// value — DefaultMaxUtilization / DefaultPSUMaxLoad for the §8/§9
// figures — or get this error, testable via errors.Is.
var ErrNonPositiveConfig = errors.New("optimizer: non-positive config value")

// Config tunes a control run.
type Config struct {
	// Start and Window bound the control loop (default window: the §8
	// one-month run). Start must be set.
	Start  time.Time
	Window time.Duration
	// Step is the control interval (default 1 h, the §8 granularity).
	Step time.Duration
	// MaxUtilization is the guardrail's load cap on surviving links after
	// rerouting. Required: must be positive (DefaultMaxUtilization is the
	// §8 value); New rejects non-positive values with ErrNonPositiveConfig.
	MaxUtilization float64
	// MinDwellSteps adds actuation hysteresis: a link that changed state
	// keeps it for at least this many steps (safety wakes excepted). Zero
	// disables hysteresis and makes the static case exactly hypnos.Run.
	MinDwellSteps int
	// Down, when non-nil, reports whether a link's carrier is faulted at a
	// step time. Down links are never slept, never used for rerouting, and
	// sleeping links whose carrier fails stay asleep (waking an interface
	// cannot restore a lost carrier). Scenario.Down provides this for the
	// fault-storm family.
	Down func(linkID int, t time.Time) bool
	// PSUShed enables the §9.3.4 provisioning pass: after the sleep loop,
	// shed redundant PSUs on routers whose peak wall draw fits in fewer
	// units at no more than PSUMaxLoad of their capacity. PSUMaxLoad is
	// required whenever PSUShed is set (DefaultPSUMaxLoad is the §9.3.4
	// value) and rejected with ErrNonPositiveConfig otherwise.
	PSUShed    bool
	PSUMaxLoad float64
}

func (c *Config) applyDefaults() {
	if c.Window == 0 {
		c.Window = 30 * 24 * time.Hour
	}
	if c.Step == 0 {
		c.Step = time.Hour
	}
}

// validate rejects ratio knobs the run would consume at non-positive
// values; see ErrNonPositiveConfig.
func (c *Config) validate() error {
	if c.MaxUtilization <= 0 {
		return fmt.Errorf("%w: MaxUtilization = %v (set it explicitly; DefaultMaxUtilization is the §8 cap)", ErrNonPositiveConfig, c.MaxUtilization)
	}
	if c.PSUShed && c.PSUMaxLoad <= 0 {
		return fmt.Errorf("%w: PSUShed with PSUMaxLoad = %v (set it explicitly; DefaultPSUMaxLoad is the §9.3.4 cap)", ErrNonPositiveConfig, c.PSUMaxLoad)
	}
	if c.Window < 0 {
		return fmt.Errorf("%w: Window = %v", ErrNonPositiveConfig, c.Window)
	}
	if c.Step < 0 {
		return fmt.Errorf("%w: Step = %v", ErrNonPositiveConfig, c.Step)
	}
	return nil
}

// StepRecord is one control step of the decision trace.
type StepRecord struct {
	Time time.Time
	// Sleeping lists the link IDs asleep after the step, ascending (nil
	// when none) — the realized schedule, comparable to hypnos.Schedule.
	Sleeping []int
	// Slept and Woke are the transitions actuated at this step.
	Slept []int
	Woke  []int
	// Vetoed are the guardrail rejections of this step.
	Vetoed []hypnos.Veto
}

// Report is the outcome of a control run: the full decision trace, the
// committed actuation schedule, and the realized savings measured against
// the no-op baseline.
type Report struct {
	Steps []StepRecord
	// Actions counts committed actuation events (one per endpoint, so two
	// per link transition); Vetoes counts guardrail rejections;
	// Resimulates counts incremental fleet replays that ran: one before
	// the window-end read if anything was actuated, one before the
	// post-shed read if any PSU was shed — at most two per run.
	Actions     int
	Vetoes      int
	Resimulates int
	// GuardrailViolations counts steps whose committed plan failed the
	// independent post-decision audit (connectivity + aggregate headroom).
	// A correct run reports zero; the field exists so tests and the
	// artifact can prove it.
	GuardrailViolations int
	// BaselineJoules integrates the no-op dataset's wall power over the
	// full study window; SleepJoules is the same integral with the sleep
	// schedule actuated (links re-woken at window end); FinalJoules adds
	// the PSU shed. All wall-side, through the PSU conversion loss.
	BaselineJoules units.Energy
	SleepJoules    units.Energy
	FinalJoules    units.Energy
	// SleepSavedJoules = Baseline − Sleep; SleepSavedWatts is that energy
	// averaged over the control window — the number comparable to the §8
	// estimate envelope. PSUSavedJoules = Sleep − Final.
	SleepSavedJoules units.Energy
	SleepSavedWatts  units.Power
	PSUSavedJoules   units.Energy
	// PSUsShed counts PSUs taken offline by the provisioning pass.
	PSUsShed int
	// Events is every committed FleetEvent in commit order — replaying
	// them cold via SimulateWithEvents reproduces the final dataset bit
	// for bit (the replay property test pins this).
	Events []ispnet.FleetEvent
}

// Transitions counts the sleep/wake state changes across the trace — the
// oscillation metric the chaos scenario bounds.
func (r *Report) Transitions() int {
	n := 0
	for _, s := range r.Steps {
		n += len(s.Slept) + len(s.Woke)
	}
	return n
}

// Controller is the closed-loop optimizer: it observes link traffic
// through a TrafficFunc (the SNMP-counter view, built from the pristine
// network model so observation is independent of its own actuation),
// plans each step with the shared hypnos.Planner, and actuates committed
// transitions on the retained fleet.
//
// Actuation is queued, not replayed, step by step: while Run is between
// steps the fleet holds pending perturbations and Fleet.Dataset() is
// stale. Read datasets only from the returned Report or after Run
// returns, when the fleet has no pending perturbations.
type Controller struct {
	fleet   *ispnet.Fleet
	topo    hypnos.Topology
	traffic hypnos.TrafficFunc
	cfg     Config
	planner *hypnos.Planner

	// audit scratch, reused across steps.
	auditDown []bool
	auditEx   []bool
}

// New wires a controller to a fleet. topo and traffic come from
// hypnos.FromNetwork over a pristine build of the fleet's config — not
// the retained (mutated) network — so the observed load model matches
// what the shards realize. The fleet's current dataset is the no-op
// baseline every saving is measured against; scenario events must be
// perturbed and resimulated before New so they are part of the baseline
// (Run rejects a fleet with pending perturbations).
func New(fleet *ispnet.Fleet, topo hypnos.Topology, traffic hypnos.TrafficFunc, cfg Config) (*Controller, error) {
	if fleet == nil {
		return nil, errors.New("optimizer: nil fleet")
	}
	if traffic == nil {
		return nil, errors.New("optimizer: nil traffic func")
	}
	if cfg.Start.IsZero() {
		return nil, errors.New("optimizer: config needs a start time")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	p, err := hypnos.NewPlanner(topo, hypnos.PlannerOptions{
		MaxUtilization: cfg.MaxUtilization,
		MinDwellSteps:  cfg.MinDwellSteps,
	})
	if err != nil {
		return nil, err
	}
	return &Controller{
		fleet:     fleet,
		topo:      topo,
		traffic:   traffic,
		cfg:       cfg,
		planner:   p,
		auditDown: make([]bool, len(topo.Links)),
		auditEx:   make([]bool, len(topo.Links)),
	}, nil
}

// planStep is the instrumented decision: greedy policy plus guardrail,
// timed into the guardrail-latency histogram.
func (c *Controller) planStep(loads []float64, down []bool) hypnos.StepPlan {
	defer metricGuardrailSeconds.ObserveSince(time.Now())
	return c.planner.PlanStep(loads, down)
}

// actuation renders one link transition as its two endpoint events.
func actuation(l hypnos.Link, t time.Time, sleep bool) [2]ispnet.FleetEvent {
	op := ispnet.OpWake
	if sleep {
		op = ispnet.OpSleep
	}
	return [2]ispnet.FleetEvent{
		{At: t, Router: l.A.Router, Op: op, Iface: l.A.Interface},
		{At: t, Router: l.B.Router, Op: op, Iface: l.B.Interface},
	}
}

// commit queues a step's actuation events on the fleet and records them.
// Nothing is replayed here; resimulate replays them when Run next reads
// the fleet's dataset.
func (c *Controller) commit(rep *Report, evs []ispnet.FleetEvent) error {
	if len(evs) == 0 {
		return nil
	}
	if err := c.fleet.Perturb(evs...); err != nil {
		return err
	}
	rep.Events = append(rep.Events, evs...)
	rep.Actions += len(evs)
	metricActions.Add(uint64(len(evs)))
	return nil
}

// resimulate replays the routers perturbed since the last read and
// returns the fleet's current dataset. With nothing pending it replays
// nothing and counts nothing. Replaying the accumulated dirty set once is
// bit-identical to replaying it step by step (and to a cold
// SimulateWithEvents of Report.Events).
func (c *Controller) resimulate(rep *Report) (*ispnet.Dataset, error) {
	if c.fleet.DirtyRouters() == 0 {
		return c.fleet.Dataset(), nil
	}
	ds, err := c.fleet.Resimulate()
	if err != nil {
		return nil, err
	}
	rep.Resimulates++
	metricResimulates.Inc()
	return ds, nil
}

// audit is the independent post-decision check of the committed plan: the
// asleep-plus-down graph keeps the down-only graph's connectivity (no
// demand blackholed by the optimizer), and the slept traffic fits the
// aggregate MaxUtilization headroom of the surviving links. It
// deliberately re-derives both invariants from scratch rather than
// trusting the planner's bookkeeping.
func (c *Controller) audit(sleeping []int, down []bool, loads []float64) error {
	for i := range c.auditDown {
		c.auditDown[i] = down != nil && down[i]
		c.auditEx[i] = c.auditDown[i]
	}
	for _, id := range sleeping {
		c.auditEx[id] = true
	}
	base := hypnos.Components(c.topo, c.auditDown)
	if got := hypnos.Components(c.topo, c.auditEx); got != base {
		return fmt.Errorf("optimizer: plan splits the network: %d components, want %d", got, base)
	}
	var slept, spare float64
	for _, l := range c.topo.Links {
		if c.auditDown[l.ID] {
			continue
		}
		if c.auditEx[l.ID] {
			// Sleeping and not down: its traffic must fit the survivors.
			// (Down links were skipped above — a lost carrier carries
			// nothing to reroute, asleep or not.)
			slept += loads[l.ID]
			continue
		}
		if headroom := c.cfg.MaxUtilization*l.Capacity.BitsPerSecond() - loads[l.ID]; headroom > 0 {
			spare += headroom
		}
	}
	if slept > spare {
		return fmt.Errorf("optimizer: plan sleeps %.0f bps with only %.0f bps of headroom", slept, spare)
	}
	return nil
}

// Run executes the control loop over the configured window and returns
// the decision trace plus realized savings. The loop: observe link loads
// at the step time, plan with the shared greedy policy + guardrail,
// queue the transitions as fleet events. At the window end every
// still-sleeping link is woken, so the savings integral covers exactly
// the control window, and the queued events are replayed once to read
// the sleep dataset; the PSU provisioning pass (if enabled) then sheds
// redundant supplies for the remainder of the study and replays once
// more.
// Deterministic: same fleet config, scenario, and Config produce the same
// trace and the same realized joules, bit for bit.
func (c *Controller) Run() (*Report, error) {
	baseline := c.fleet.Dataset()
	if baseline == nil {
		return nil, errors.New("optimizer: fleet has no dataset")
	}
	if n := c.fleet.DirtyRouters(); n > 0 {
		return nil, fmt.Errorf("optimizer: %d routers have perturbations not yet resimulated; resimulate before Run so they are part of the baseline", n)
	}
	rep := &Report{BaselineJoules: units.Energy(timeseries.IntegratePower(baseline.TotalPower))}

	loads := make([]float64, len(c.topo.Links))
	var down []bool
	if c.cfg.Down != nil {
		down = make([]bool, len(c.topo.Links))
	}
	end := c.cfg.Start.Add(c.cfg.Window)
	for t := c.cfg.Start; t.Before(end); t = t.Add(c.cfg.Step) {
		for i, l := range c.topo.Links {
			loads[i] = c.traffic(l.ID, t).BitsPerSecond()
			if down != nil {
				down[i] = c.cfg.Down(l.ID, t)
			}
		}
		plan := c.planStep(loads, down)
		if err := c.audit(plan.Sleeping, down, loads); err != nil {
			rep.GuardrailViolations++
		}
		// plan.Vetoed aliases the planner's scratch; the record outlives
		// the next step, so copy.
		rep.Steps = append(rep.Steps, StepRecord{
			Time: t, Sleeping: plan.Sleeping, Slept: plan.Slept, Woke: plan.Woke,
			Vetoed: append([]hypnos.Veto(nil), plan.Vetoed...),
		})
		rep.Vetoes += len(plan.Vetoed)
		metricVetoes.Add(uint64(len(plan.Vetoed)))

		var evs []ispnet.FleetEvent
		for _, id := range plan.Slept {
			pair := actuation(c.topo.Links[id], t, true)
			evs = append(evs, pair[0], pair[1])
		}
		for _, id := range plan.Woke {
			pair := actuation(c.topo.Links[id], t, false)
			evs = append(evs, pair[0], pair[1])
		}
		if err := c.commit(rep, evs); err != nil {
			return nil, err
		}
	}

	// Hand the fleet back awake: wake every link still sleeping at the
	// window end, so the realized delta integrates the control window
	// only.
	var wake []ispnet.FleetEvent
	for _, l := range c.topo.Links {
		if c.planner.Sleeping(l.ID) {
			pair := actuation(l, end, false)
			wake = append(wake, pair[0], pair[1])
		}
	}
	if err := c.commit(rep, wake); err != nil {
		return nil, err
	}

	sleepDS, err := c.resimulate(rep)
	if err != nil {
		return nil, err
	}
	rep.SleepJoules = units.Energy(timeseries.IntegratePower(sleepDS.TotalPower))
	rep.SleepSavedJoules = rep.BaselineJoules - rep.SleepJoules
	rep.SleepSavedWatts = units.Power(rep.SleepSavedJoules.Joules() / c.cfg.Window.Seconds())
	rep.FinalJoules = rep.SleepJoules

	if c.cfg.PSUShed {
		evs, shed := c.planPSUShed(baseline)
		if err := c.commit(rep, evs); err != nil {
			return nil, err
		}
		rep.PSUsShed = shed
		if shed > 0 {
			finalDS, err := c.resimulate(rep)
			if err != nil {
				return nil, err
			}
			rep.FinalJoules = units.Energy(timeseries.IntegratePower(finalDS.TotalPower))
			rep.PSUSavedJoules = rep.SleepJoules - rep.FinalJoules
		}
	}

	metricSavedJoules.Set((rep.BaselineJoules - rep.FinalJoules).Joules())
	metricSavedWatts.Set(rep.SleepSavedWatts.Watts())
	return rep, nil
}

// planPSUShed sizes each router's PSU pool against its baseline peak wall
// draw: keep the smallest count m ≥ 1 whose aggregate capacity covers the
// peak at no more than PSUMaxLoad, shed the rest (highest indices first,
// index 0 always stays). Peak wall power is the conservative provisioning
// figure — it is the input-side draw, above the output-side load the
// PSUs actually share. The shed events are timestamped at the control
// start: a provisioning decision, in force for the whole study.
func (c *Controller) planPSUShed(baseline *ispnet.Dataset) ([]ispnet.FleetEvent, int) {
	var evs []ispnet.FleetEvent
	shed := 0
	for _, rp := range baseline.PSUSnapshots {
		n := len(rp.PSUs)
		if n <= 1 {
			continue
		}
		peak, ok := baseline.RouterWallPeak[rp.Router]
		if !ok {
			continue
		}
		capacity := rp.PSUs[0].Capacity.Watts()
		if capacity <= 0 {
			continue
		}
		keep := n
		for m := 1; m < n; m++ {
			if peak.Watts() <= c.cfg.PSUMaxLoad*float64(m)*capacity {
				keep = m
				break
			}
		}
		for idx := n - 1; idx >= keep; idx-- {
			evs = append(evs, ispnet.FleetEvent{
				At: c.cfg.Start, Router: rp.Router, Op: ispnet.OpPSUOffline, PSU: idx,
			})
			shed++
		}
	}
	return evs, shed
}
