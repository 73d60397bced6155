package ispnet

import (
	"fmt"
	"sort"
	"time"

	"fantasticjoules/internal/units"
)

// FleetOp names a declarative deployment mutation. Declarative events —
// unlike the closure-based scheduledEvent they compile into — can be
// stored, merged, re-sorted, and re-resolved against freshly rebuilt
// routers, which is what makes incremental replay possible: a dirty
// router is rebuilt pristine and its event queue recompiled against the
// new object.
type FleetOp string

const (
	// OpAdminDown / OpAdminUp toggle an interface's admin state; the
	// transceiver stays plugged.
	OpAdminDown FleetOp = "admin-down"
	OpAdminUp   FleetOp = "admin-up"
	// OpLinkDown / OpLinkUp toggle an interface's link (carrier) state.
	OpLinkDown FleetOp = "link-down"
	OpLinkUp   FleetOp = "link-up"
	// OpUnplug admin-downs the interface, removes it from the deployment
	// records, and unplugs its transceiver (the Fig. 4a removal).
	OpUnplug FleetOp = "unplug"
	// OpAddInterfaces brings Count additional DAC interfaces up on free
	// ports, cloned from the router's template DAC.
	OpAddInterfaces FleetOp = "add-interfaces"
	// OpPowerCycle power-cycles the PSU at index PSU (the Fig. 4b meter
	// installation).
	OpPowerCycle FleetOp = "power-cycle"
	// OpScaleLoad multiplies every deployed interface's mean offered load
	// by Factor — the perturbation the optimizer's what-if loop uses.
	OpScaleLoad FleetOp = "scale-load"
	// OpSleep / OpWake are the optimizer's actuation ops: admin-down /
	// admin-up an interface to stop paying its Pport and Ptrx,up (the
	// transceiver stays plugged, so Ptrx,in keeps accruing — §7's refined
	// accounting). Unlike the strict OpAdmin* ops they are best-effort:
	// actuating an interface the deployment no longer has (e.g. a
	// transceiver unplugged by a later-merged schedule) is a no-op, so a
	// decision trace stays replayable against any deployment history.
	OpSleep FleetOp = "sleep"
	OpWake  FleetOp = "wake"
	// OpPSUOffline / OpPSUOnline take the PSU at index PSU out of or back
	// into the load-sharing pool (the §9.3.4 single-PSU measure). Taking
	// the last online PSU offline fails the replay, exactly as the device
	// refuses it.
	OpPSUOffline FleetOp = "psu-offline"
	OpPSUOnline  FleetOp = "psu-online"
)

// FleetEvent is one declarative deployment event. Zero-valued fields that
// an op does not use are ignored; Desc overrides the generated
// description when set.
type FleetEvent struct {
	At     time.Time
	Router string
	Op     FleetOp
	Iface  string  // OpAdmin*/OpLink*/OpUnplug
	Count  int     // OpAddInterfaces
	PSU    int     // OpPowerCycle
	Factor float64 // OpScaleLoad
	Desc   string
}

// describe returns the event-log description: Desc verbatim when set,
// otherwise a deterministic rendering of the op.
func (e FleetEvent) describe() string {
	if e.Desc != "" {
		return e.Desc
	}
	switch e.Op {
	case OpAdminDown, OpAdminUp, OpLinkDown, OpLinkUp, OpUnplug, OpSleep, OpWake:
		return fmt.Sprintf("%s %s", e.Op, e.Iface)
	case OpAddInterfaces:
		return fmt.Sprintf("%s x%d", e.Op, e.Count)
	case OpPowerCycle, OpPSUOffline, OpPSUOnline:
		return fmt.Sprintf("%s psu%d", e.Op, e.PSU)
	case OpScaleLoad:
		return fmt.Sprintf("%s x%g", e.Op, e.Factor)
	}
	return string(e.Op)
}

// validate rejects events that could not compile: unknown ops and
// missing operands. Router existence is checked at compile time against
// the network.
func (e FleetEvent) validate() error {
	switch e.Op {
	case OpAdminDown, OpAdminUp, OpLinkDown, OpLinkUp, OpUnplug, OpSleep, OpWake:
		if e.Iface == "" {
			return fmt.Errorf("ispnet: event %s on %s: missing interface", e.Op, e.Router)
		}
	case OpAddInterfaces:
		if e.Count <= 0 {
			return fmt.Errorf("ispnet: event %s on %s: count must be positive", e.Op, e.Router)
		}
	case OpPowerCycle, OpPSUOffline, OpPSUOnline:
		if e.PSU < 0 {
			return fmt.Errorf("ispnet: event %s on %s: negative PSU index", e.Op, e.Router)
		}
	case OpScaleLoad:
		if e.Factor <= 0 {
			return fmt.Errorf("ispnet: event %s on %s: factor must be positive", e.Op, e.Router)
		}
	default:
		return fmt.Errorf("ispnet: unknown event op %q on %s", e.Op, e.Router)
	}
	if e.Router == "" {
		return fmt.Errorf("ispnet: event %s: missing router", e.Op)
	}
	return nil
}

// hasInterface reports whether the router's current deployment still has
// an interface by that name. Evaluated at apply time, so a sleep/wake
// schedule recorded against one deployment replays cleanly against a
// deployment that has since unplugged or retired the interface.
func hasInterface(r *Router, name string) bool {
	for i := range r.Interfaces {
		if r.Interfaces[i].Name == name {
			return true
		}
	}
	return false
}

// sortFleetEvents orders a declarative schedule by due time. Stable, so
// events due at the same instant keep their append order — the apply
// order the simulation guarantees at every step.
func sortFleetEvents(evs []FleetEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
}

func describeFleetEvents(evs []FleetEvent) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{Time: e.At, Router: e.Router, Description: e.describe()}
	}
	return out
}

// compileEvents resolves a sorted declarative schedule against the
// network's current router objects, producing the closure form the shard
// replay consumes. Compile each replay: after a dirty router is rebuilt,
// the closures must capture the new *Router.
func (n *Network) compileEvents(evs []FleetEvent) ([]scheduledEvent, error) {
	out := make([]scheduledEvent, 0, len(evs))
	for _, e := range evs {
		if err := e.validate(); err != nil {
			return nil, err
		}
		r, ok := n.byName[e.Router]
		if !ok {
			return nil, fmt.Errorf("ispnet: event %s: unknown router %q", e.Op, e.Router)
		}
		e := e
		var apply func() error
		switch e.Op {
		case OpAdminDown:
			apply = func() error { return r.Device.SetAdmin(e.Iface, false) }
		case OpAdminUp:
			apply = func() error { return r.Device.SetAdmin(e.Iface, true) }
		case OpLinkDown:
			apply = func() error { return r.Device.SetLink(e.Iface, false) }
		case OpLinkUp:
			apply = func() error { return r.Device.SetLink(e.Iface, true) }
		case OpUnplug:
			apply = func() error {
				if err := r.Device.SetAdmin(e.Iface, false); err != nil {
					return err
				}
				n.dropInterface(r, e.Iface)
				return r.Device.UnplugTransceiver(e.Iface)
			}
		case OpSleep:
			apply = func() error {
				if !hasInterface(r, e.Iface) {
					return nil
				}
				return r.Device.SetAdmin(e.Iface, false)
			}
		case OpWake:
			apply = func() error {
				if !hasInterface(r, e.Iface) {
					return nil
				}
				return r.Device.SetAdmin(e.Iface, true)
			}
		case OpAddInterfaces:
			apply = func() error { return n.addInterfaces(r, e.Count) }
		case OpPowerCycle:
			apply = func() error { return r.Device.PowerCycle(e.PSU) }
		case OpPSUOffline:
			apply = func() error { return r.Device.SetPSUOnline(e.PSU, false) }
		case OpPSUOnline:
			apply = func() error { return r.Device.SetPSUOnline(e.PSU, true) }
		case OpScaleLoad:
			apply = func() error {
				for i := range r.Interfaces {
					if r.Interfaces[i].Spare {
						continue
					}
					r.Interfaces[i].MeanLoad = units.BitRate(r.Interfaces[i].MeanLoad.BitsPerSecond() * e.Factor)
					// Hierarchical loads are evaluated from the per-cohort
					// demand, not MeanLoad; scale both so the op means the
					// same thing on generated fleets (SubDemand is all-zero
					// on the calibrated build, where this is a no-op).
					for c := range r.Interfaces[i].SubDemand {
						r.Interfaces[i].SubDemand[c] *= e.Factor
					}
				}
				return nil
			}
		}
		out = append(out, scheduledEvent{at: e.At, desc: e.describe(), router: e.Router, apply: apply})
	}
	return out, nil
}

// Fleet is the retained-state form of Simulate. It keeps the built
// network, one retained result per router (its raw power and traffic
// step columns, wall median and peak, PSU snapshot and, for instrumented
// routers, their traces), and the merged event schedule, so that after
// Perturb only the routers named by the new events — the dirty set — are
// rebuilt and replayed; every clean router's retained result is folded
// back into the dataset untouched. Resimulate is bit-identical to a cold
// SimulateWithEvents over the same merged event list (the golden and
// property tests pin this), because:
//
//   - every router's replay is already independent (shards share no
//     mutable state, per-router rng streams are seeded by fleet index),
//   - dirty routers are rebuilt from a fresh Build of the same config,
//     which reproduces their pristine deployment exactly,
//   - the PSU snapshot is captured inside each shard's replay, so clean
//     routers' rng streams are never re-advanced,
//   - the replay engine folds every router in fleet order, played or
//     retained, exactly as the cold path does.
//
// A Fleet is not safe for concurrent use; a failed Resimulate leaves it
// unusable (the retained routers may be partially replayed).
type Fleet struct {
	cfg Config
	net *Network

	capacity units.BitRate
	// base is the built-in schedule resolved against the pristine build;
	// it must never be regenerated from the retained (mutated) network.
	base []FleetEvent
	// extra accumulates every perturbation ever applied, so a cold
	// SimulateWithEvents(cfg, extra) reproduces the current state.
	extra []FleetEvent
	// results holds every router's last replay result, in fleet order.
	results []routerResult

	dirty map[string]bool
	ds    *Dataset
}

// NewFleet builds the network and plays the full study window once,
// retaining every router's result for later incremental replays.
func NewFleet(cfg Config) (*Fleet, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      n.Config, // defaults applied by Build
		net:      n,
		capacity: n.totalCapacity(),
		base:     n.baseEvents(),
		results:  make([]routerResult, len(n.Routers)),
		dirty:    make(map[string]bool),
	}
	metricRuns.Inc()
	f.ds, err = n.replay(f.mergedEvents(), f.capacity, nil, f.results, nil)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Dataset returns the dataset of the last (re)simulation. The caller must
// treat it as immutable; Resimulate replaces it.
func (f *Fleet) Dataset() *Dataset { return f.ds }

// Network returns the retained network. Mutating it outside Perturb
// voids the bit-identity guarantee.
func (f *Fleet) Network() *Network { return f.net }

// Events returns the merged declarative schedule (built-in plus every
// perturbation), sorted by due time — the event list a cold
// SimulateWithEvents needs to reproduce the current dataset. Like
// ExtraEvents it returns a defensive copy: callers may mutate or re-sort
// the slice without corrupting the retained replay state.
func (f *Fleet) Events() []FleetEvent {
	evs := f.mergedEvents()
	out := make([]FleetEvent, len(evs))
	copy(out, evs)
	return out
}

// ExtraEvents returns a copy of every perturbation applied since the
// fleet was built (the schedule beyond the built-in base events). A cold
// SimulateWithEvents(cfg, ExtraEvents()...) reproduces the current
// dataset bit for bit.
func (f *Fleet) ExtraEvents() []FleetEvent {
	out := make([]FleetEvent, len(f.extra))
	copy(out, f.extra)
	return out
}

// DirtyRouters returns the number of routers queued for replay by
// perturbations since the last Resimulate.
func (f *Fleet) DirtyRouters() int { return len(f.dirty) }

// Perturb queues declarative events and marks their routers dirty. The
// events take effect at the next Resimulate; nothing is replayed here.
// An event batch is validated as a whole before any of it is queued.
func (f *Fleet) Perturb(events ...FleetEvent) error {
	for _, e := range events {
		if err := e.validate(); err != nil {
			return err
		}
		if _, ok := f.net.byName[e.Router]; !ok {
			return fmt.Errorf("ispnet: perturb: unknown router %q", e.Router)
		}
	}
	for _, e := range events {
		f.extra = append(f.extra, e)
		f.dirty[e.Router] = true
	}
	return nil
}

// Resimulate replays the dirty routers against the merged event schedule
// and folds their fresh results, with every clean router's retained one,
// into a new dataset. With no pending perturbations it returns the
// current dataset unchanged.
func (f *Fleet) Resimulate() (*Dataset, error) {
	if len(f.dirty) == 0 {
		return f.ds, nil
	}
	// Rebuild the dirty routers pristine. Build is deterministic for the
	// config, and router identity is index-stable across builds, so the
	// fresh fleet's router i is bit-for-bit the pristine form of the
	// retained fleet's router i.
	fresh, err := Build(f.cfg)
	if err != nil {
		return nil, err
	}
	for i, r := range f.net.Routers {
		if !f.dirty[r.Name] {
			continue
		}
		nr := fresh.Routers[i]
		if nr.Name != r.Name {
			return nil, fmt.Errorf("ispnet: rebuild fleet order changed: %q != %q", nr.Name, r.Name)
		}
		f.net.Routers[i] = nr
		f.net.byName[nr.Name] = nr
	}
	dirty := f.dirty
	f.dirty = make(map[string]bool)
	ds, err := f.net.replay(f.mergedEvents(), f.capacity, dirty, f.results, nil)
	if err != nil {
		return nil, err
	}
	f.ds = ds
	return ds, nil
}

func (f *Fleet) mergedEvents() []FleetEvent {
	evs := make([]FleetEvent, 0, len(f.base)+len(f.extra))
	evs = append(evs, f.base...)
	evs = append(evs, f.extra...)
	sortFleetEvents(evs)
	return evs
}
