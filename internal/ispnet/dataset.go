package ispnet

import (
	"fmt"
	"sort"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// Event is a notable occurrence in the simulated deployment, mirroring the
// events the paper reads out of its traces (§6.2).
type Event struct {
	Time        time.Time
	Router      string
	Description string
}

// Dataset is the collected measurement data of one simulation run — the
// synthetic stand-in for the paper's published dataset.
type Dataset struct {
	// Network is the fleet that produced the data.
	Network *Network

	// TotalPower is the network-wide wall power at the SNMP step (Fig. 1,
	// top series).
	TotalPower *timeseries.Series
	// TotalTraffic is the network-wide carried traffic in bit/s (Fig. 1,
	// bottom series; each link counted once).
	TotalTraffic *timeseries.Series
	// TotalCapacity is the summed interface capacity (for the Fig. 1
	// percent axis).
	TotalCapacity units.BitRate

	// RouterWallMedian is each router's median wall power over the window
	// (Table 1 input).
	RouterWallMedian map[string]units.Power
	// RouterWallPeak is each router's peak wall power over the window —
	// the provisioning figure the §9.3.4 PSU-shedding decision sizes
	// against (a PSU may only go offline if the survivors cover the peak,
	// not the median).
	RouterWallPeak map[string]units.Power

	// Autopower holds the external meter traces of the instrumented
	// routers, keyed by router name.
	Autopower map[string]*timeseries.Series
	// SNMPPower holds the PSU-reported total power traces for the
	// instrumented routers; routers whose model reports nothing are
	// absent (the Fig. 4c case).
	SNMPPower map[string]*timeseries.Series
	// IfaceRates holds per-interface bidirectional bit-rate traces for
	// the instrumented routers (the traffic-counter view the power model
	// consumes), keyed by router then interface.
	IfaceRates map[string]map[string]*timeseries.Series
	// IfaceProfiles maps every interface that ever appeared on an
	// instrumented router during the run to its power profile — the
	// module inventory file of §6.2, robust to mid-run (un)plugging.
	IfaceProfiles map[string]map[string]model.ProfileKey

	// PSUSnapshots is the one-time environment-sensor export of every
	// active router (§9.2).
	PSUSnapshots []psu.RouterPSUs

	// Events lists the injected deployment events.
	Events []Event
}

// Simulate builds the network for the config and plays the study window,
// producing the dataset every analysis consumes. It is deterministic for a
// given config.
func Simulate(cfg Config) (*Dataset, error) {
	return SimulateWithEvents(cfg, nil)
}

// SimulateWithEvents is Simulate with extra deployment events merged into
// the built-in schedule. It is the cold-recompute reference for the
// incremental Fleet path: Perturb(extra)+Resimulate must reproduce it bit
// for bit.
func SimulateWithEvents(cfg Config, extra []FleetEvent) (*Dataset, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return n.RunWithEvents(extra)
}

// Run plays the study window over the already-built network.
//
// The replay is sharded by router: every router's timeline (its filtered
// events, its device advances, its wall samples and — when instrumented —
// its meter and rate traces) is played independently by a worker pool
// bounded by Config.Workers, and the replay engine (replay.go) folds the
// results into the network-wide series in fixed fleet order. Because each
// shard owns all the state it touches and the reduction order never
// varies, the Dataset is bit-identical for every worker count, including
// the serial Workers=1 path.
func (n *Network) Run() (*Dataset, error) {
	return n.RunWithEvents(nil)
}

// RunWithEvents plays the study window with extra declarative events
// merged into the built-in schedule. The network must be freshly built:
// events mutate routers, so a second Run over the same network replays a
// different deployment.
func (n *Network) RunWithEvents(extra []FleetEvent) (*Dataset, error) {
	metricRuns.Inc()
	// Capacity is a deployment property of the pristine build: scheduled
	// events change what is up, not what was provisioned.
	return n.replay(n.schedule(extra), n.totalCapacity(), nil, nil, nil)
}

// schedule merges extra events into the built-in schedule, sorted by due
// time. Like baseEvents it must run against the pristine build.
func (n *Network) schedule(extra []FleetEvent) []FleetEvent {
	evs := append(n.baseEvents(), extra...)
	sortFleetEvents(evs)
	return evs
}

// stepGrid returns the shared SNMP-cadence step grid; every shard walks
// the same timestamps.
func (n *Network) stepGrid() []time.Time {
	cfg := n.Config
	numSteps := 0
	if cfg.SNMPStep > 0 {
		numSteps = int(cfg.Duration/cfg.SNMPStep) + 1
	}
	steps := make([]time.Time, 0, numSteps)
	end := cfg.Start.Add(cfg.Duration)
	for t := cfg.Start; t.Before(end); t = t.Add(cfg.SNMPStep) {
		steps = append(steps, t)
	}
	return steps
}

// totalCapacity sums the provisioned (non-spare) interface capacity, each
// link counted once. Must be taken on the pristine build, before events
// mutate interface lists.
func (n *Network) totalCapacity() units.BitRate {
	var c units.BitRate
	for _, r := range n.Routers {
		for _, itf := range r.Interfaces {
			if !itf.Spare {
				c += itf.Profile.Speed / 2
			}
		}
	}
	return c
}

// meterSeed derives the external-meter seed for the i-th instrumented
// router (AutopowerRouters order). The formula is part of the dataset's
// determinism contract: an incremental replay must recreate the exact
// meter a cold run would have attached.
func (n *Network) meterSeed(i int) int64 {
	return n.Config.Seed + int64(i) + 1000
}

// scheduledEvent is an event with its mutation.
type scheduledEvent struct {
	at     time.Time
	desc   string
	router string
	apply  func() error
}

// baseEvents returns the built-in Fig. 4 schedule as declarative
// FleetEvents. The interface names are resolved from the network's current
// deployment, so the schedule must be generated from the pristine build
// (Fleet retains it from NewFleet for exactly that reason: after a replay
// the FR4 is already unplugged and would no longer resolve).
func (n *Network) baseEvents() []FleetEvent {
	start := n.Config.Start
	var evs []FleetEvent
	day := func(d int) time.Time { return start.Add(time.Duration(d) * 24 * time.Hour) }

	for _, r := range n.AutopowerRouters() {
		switch r.Device.Model() {
		case "8201-32FH":
			// Fig. 4a. Find the FR4 interfaces and a mid-list DAC.
			var fr4, dac string
			for _, itf := range r.Interfaces {
				if itf.Profile.Transceiver == "FR4" && fr4 == "" && !itf.Spare {
					fr4 = itf.Name
				}
				if itf.Profile.Transceiver == "Passive DAC" && !itf.Spare {
					dac = itf.Name
				}
			}
			if fr4 != "" {
				evs = append(evs, FleetEvent{
					At: day(38), Router: r.Name, Op: OpUnplug, Iface: fr4,
					Desc: "400G FR4 interface removed (transceiver unplugged); ≈13 W drop",
				})
			}
			if dac != "" {
				evs = append(evs, FleetEvent{
					At: day(51), Router: r.Name, Op: OpAdminDown, Iface: dac,
					Desc: "flapping interface taken down for repair; transceiver stays plugged",
				})
				evs = append(evs, FleetEvent{
					At: day(54), Router: r.Name, Op: OpAdminUp, Iface: dac,
					Desc: "repaired interface brought back up",
				})
			}
			evs = append(evs, FleetEvent{
				At: day(60), Router: r.Name, Op: OpAddInterfaces, Count: 2,
				Desc: "two interfaces added",
			})
		case "NCS-55A1-24H":
			// Fig. 4b: installing the Autopower meter power-cycles each
			// PSU; the pseudo-constant sensor re-baselines ≈7 W lower.
			evs = append(evs, FleetEvent{
				At: day(24), Router: r.Name, Op: OpPowerCycle, PSU: 0,
				Desc: "Autopower meter installed: PSUs power-cycled, one sensor re-baselines",
			})
		}
	}
	return evs
}

// scheduleEvents compiles the built-in schedule against the current
// network. Kept as the one-call form the schedule tests exercise.
func (n *Network) scheduleEvents() []scheduledEvent {
	compiled, err := n.compileEvents(n.schedule(nil))
	if err != nil {
		// Unreachable: the built-in schedule only references routers and
		// ops this network owns.
		panic(err)
	}
	return compiled
}

// sortSchedule orders a schedule by due time. The sort is stable: events
// due at the same instant keep their schedule (append) order, which
// partitionEvents preserves per router — the apply order the simulation
// guarantees at every step.
func sortSchedule(evs []scheduledEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
}

// dropInterface removes an interface from the deployment records and
// retires its port.
func (n *Network) dropInterface(r *Router, ifName string) {
	if r.retired == nil {
		r.retired = make(map[string]bool)
	}
	r.retired[ifName] = true
	for i := range r.Interfaces {
		if r.Interfaces[i].Name == ifName {
			r.Interfaces = append(r.Interfaces[:i], r.Interfaces[i+1:]...)
			return
		}
	}
}

// addInterfaces brings up additional DAC interfaces on free ports.
func (n *Network) addInterfaces(r *Router, count int) error {
	used := make(map[string]bool)
	for _, itf := range r.Interfaces {
		used[itf.Name] = true
	}
	var tmplProfile *Interface
	for i := range r.Interfaces {
		if !r.Interfaces[i].Spare && r.Interfaces[i].Profile.Transceiver == "Passive DAC" {
			tmplProfile = &r.Interfaces[i]
			break
		}
	}
	if tmplProfile == nil {
		return fmt.Errorf("no template interface on %s", r.Name)
	}
	added := 0
	for _, name := range r.Device.InterfaceNames() {
		if added == count {
			break
		}
		if used[name] || r.retired[name] {
			continue
		}
		if err := r.Device.PlugTransceiver(name, tmplProfile.Profile.Transceiver, tmplProfile.Profile.Speed); err != nil {
			return err
		}
		if err := r.Device.SetAdmin(name, true); err != nil {
			return err
		}
		if err := r.Device.SetLink(name, true); err != nil {
			return err
		}
		r.Interfaces = append(r.Interfaces, Interface{
			Name:     name,
			Profile:  tmplProfile.Profile,
			MeanLoad: tmplProfile.MeanLoad,
		})
		added++
	}
	if added < count {
		return fmt.Errorf("only %d free ports on %s", added, r.Name)
	}
	return nil
}

// SimulateOSUpgrade reproduces the Fig. 8 scenario in isolation: an
// 8201-32FH running for four weeks with an OS upgrade at the midpoint
// whose new temperature management raises fan speeds by ≈45 W. It returns
// the PSU-reported power trace (with the sensor's constant offset — the
// trace the paper actually shows) and the upgrade time.
func SimulateOSUpgrade(seed int64) (*timeseries.Series, time.Time, error) {
	spec, err := device.Spec("8201-32FH")
	if err != nil {
		return nil, time.Time{}, err
	}
	dev, err := device.New(spec, "fig8-rtr", seed)
	if err != nil {
		return nil, time.Time{}, err
	}
	// Deploy a typical configuration.
	names := dev.InterfaceNames()
	for i := 0; i < 12; i++ {
		if err := dev.PlugTransceiver(names[i], "Passive DAC", 100*units.GigabitPerSecond); err != nil {
			return nil, time.Time{}, err
		}
		if err := dev.SetAdmin(names[i], true); err != nil {
			return nil, time.Time{}, err
		}
		if err := dev.SetLink(names[i], true); err != nil {
			return nil, time.Time{}, err
		}
	}
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	upgrade := start.Add(12 * 24 * time.Hour) // March 13
	series := timeseries.New("fig8")
	step := 30 * time.Minute
	for t := start; t.Before(start.Add(26 * 24 * time.Hour)); t = t.Add(step) {
		if t.Equal(upgrade) || (t.After(upgrade) && t.Add(-step).Before(upgrade)) {
			dev.UpgradeOS("7.11.1")
		}
		dev.Advance(step)
		if rep, err := dev.ReportedTotalPower(); err == nil {
			series.Append(t, rep.Watts())
		}
	}
	return series, upgrade, nil
}
