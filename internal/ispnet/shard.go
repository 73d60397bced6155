package ispnet

import (
	"fmt"
	"sort"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/meter"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/trafficgen"
	"fantasticjoules/internal/units"
)

// routerShard is the unit of parallelism of the replay engine: one
// router's complete timeline — its filtered event queue, its device
// advances, its wall samples and, for instrumented routers, its
// Autopower/SNMP/rate traces.
//
// Everything a shard touches while play runs is owned by exactly one
// worker goroutine (goroutine confinement): the *device.Router and
// *meter.Meter belong to this router alone, LoadAt is pure, and the events
// in the queue mutate only this router. The hot path therefore contends on
// no locks. The result fields are read by the fold only after the worker
// has signalled the shard done.
type routerShard struct {
	net    *Network
	router *Router
	meter  *meter.Meter // nil unless instrumented
	events []scheduledEvent
	steps  []time.Time
	// snapAt is the mid-window instant of the one-time PSU sensor export.
	// The snapshot is taken by the shard itself (not by the fold) because
	// EnvSnapshot draws from the router's private rng: capturing it at a
	// fixed point in the shard's replay keeps the rng stream — and
	// therefore every later draw — identical whether the shard ran in a
	// cold Simulate or an incremental Fleet replay.
	snapAt time.Time

	// routerResult holds what play produces: the per-step power and
	// traffic columns (indexed like steps; steps where the router is not
	// deployed contribute exactly 0, which keeps the merged floating-point
	// sums independent of deployment gaps), the instrumented traces, and
	// the PSU export. summarizeWall fills in its wall statistics.
	routerResult
	// wall collects the wall-power samples of deployed steps in time
	// order; summarizeWall derives the median and peak from it.
	wall []float64

	// plan is the precomputed per-interface replay state: device handle
	// and profile resolved once, rebuilt only when a scheduled event fires
	// (events are the only thing that mutates router.Interfaces). The oper
	// and load fields are per-step scratch, written by the offering loop
	// and reused by the instrumented rates loop — which previously paid a
	// second InterfaceState lookup and a second LoadAt evaluation per
	// interface per step.
	plan []ifacePlan

	// eventsApplied counts the scheduled events play actually applied
	// (telemetry only; never read by the simulation).
	eventsApplied int

	err error
}

// ifacePlan is one interface's precomputed replay state; see
// routerShard.plan.
type ifacePlan struct {
	itf    *Interface
	handle device.Handle
	spare  bool
	// rateSeries caches the instrumented per-interface rate trace so the
	// per-step rates loop skips the map lookup; relinked lazily after a
	// plan rebuild.
	rateSeries *timeseries.Series

	// Per-step scratch.
	oper bool
	load units.BitRate
}

// buildPlan resolves handles and profile keys for the router's current
// interface list. Called before the step loop and again after every event
// application: events may add, drop, or reorder interfaces, which moves
// the backing array the itf pointers index into.
func (sh *routerShard) buildPlan() error {
	r := sh.router
	sh.plan = sh.plan[:0]
	for i := range r.Interfaces {
		itf := &r.Interfaces[i]
		h, err := r.Device.Handle(itf.Name)
		if err != nil {
			return err
		}
		sh.plan = append(sh.plan, ifacePlan{itf: itf, handle: h, spare: itf.Spare})
		if sh.profiles != nil {
			sh.profiles[itf.Name] = itf.Profile
		}
	}
	return nil
}

// reset wires the shard for one router's replay. The engine recycles a
// bounded set of shards through the whole fleet, so reset keeps the
// step-buffer and plan capacity of the shard's previous router and zeroes
// the columns: a shard relies on undeployed steps reading 0. Instrumented
// routers get fresh traces, which outlive the shard in the dataset.
func (sh *routerShard) reset(n *Network, r *Router, m *meter.Meter, evs []scheduledEvent, steps []time.Time) {
	*sh = routerShard{
		net:    n,
		router: r,
		meter:  m,
		events: evs,
		steps:  steps,
		snapAt: n.Config.Start.Add(n.Config.Duration / 2),
		routerResult: routerResult{
			power:   zeroedFloats(sh.power, len(steps)),
			traffic: zeroedFloats(sh.traffic, len(steps)),
		},
		wall: sh.wall[:0],
		plan: sh.plan[:0],
	}
	if m != nil {
		cfg := n.Config
		subSteps := int(cfg.SNMPStep / cfg.AutopowerStep)
		if cfg.SNMPStep%cfg.AutopowerStep != 0 {
			subSteps++
		}
		sh.autopower = timeseries.NewWithCap(r.Name+".autopower", len(steps)*subSteps)
		sh.rates = make(map[string]*timeseries.Series, len(r.Interfaces))
		sh.profiles = make(map[string]model.ProfileKey, len(r.Interfaces))
	}
}

// zeroedFloats returns buf resized to n and zero-filled, reallocating
// only when its capacity is short.
func zeroedFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// summarizeWall derives the result's wall median and peak from the
// played samples (sorting them in place).
func (sh *routerShard) summarizeWall() {
	if len(sh.wall) == 0 {
		return
	}
	sh.hasWall = true
	sh.wallMedian = medianOf(sh.wall)
	// medianOf sorted the samples in place; the peak is the last.
	sh.wallPeak = sh.wall[len(sh.wall)-1]
}

// play replays the router's full study window. It is the sharded port of
// the former time×routers loop: the same event application, traffic
// offering, metering cadence, and device advances, restricted to one
// router.
//
//joules:hotpath
func (sh *routerShard) play() error {
	n, r := sh.net, sh.router
	cfg := n.Config
	if err := sh.buildPlan(); err != nil {
		return err
	}

	events := sh.events
	var cm [trafficgen.NumCohorts]float64
	for si, t := range sh.steps {
		// Apply this router's due events in schedule order; events are the
		// only mutation of the interface list, so the plan is rebuilt here
		// and nowhere else.
		replan := false
		for len(events) > 0 && !events[0].at.After(t) {
			if err := events[0].apply(); err != nil {
				return fmt.Errorf("ispnet: event %q: %w", events[0].desc, err)
			}
			events = events[1:]
			sh.eventsApplied++
			replan = true
		}
		if replan {
			if err := sh.buildPlan(); err != nil {
				return err
			}
		}
		if !r.Active(t) {
			continue
		}

		// Offer this step's loads: one lock acquisition for the whole
		// batch, handle-addressed interface access, one diurnal (or cohort)
		// multiplier evaluation for the step.
		mult := n.diurnal.Multiplier(t, nil)
		if n.hier {
			trafficgen.CohortMultipliers(t, &cm)
		}
		st := r.Device.BeginStep()
		var stepTraffic float64
		for pi := range sh.plan {
			p := &sh.plan[pi]
			p.oper = false
			p.load = 0
			if p.spare {
				continue
			}
			present, admin, oper := st.InterfaceState(p.handle)
			p.oper = oper
			if !present || !admin || !oper {
				continue
			}
			load := n.loadAt(p.itf, r, t, mult, &cm)
			if err := st.SetTraffic(p.handle, load, PacketRateAt(load)); err != nil {
				st.End()
				return fmt.Errorf("ispnet: %s/%s: %w", r.Name, p.itf.Name, err)
			}
			p.load = load
			stepTraffic += load.BitsPerSecond() / 2
		}

		var w float64
		if sh.meter != nil {
			// Fine-grained external metering plus per-interface rates. The
			// meter samples the router through its own lock, so the batch
			// ends before the metered sub-loop.
			st.End()
			for sub := time.Duration(0); sub < cfg.SNMPStep; sub += cfg.AutopowerStep {
				v, err := sh.meter.Read(0)
				if err != nil {
					return err
				}
				sh.autopower.Append(t.Add(sub), v.Watts())
				r.Device.Advance(cfg.AutopowerStep)
			}
			for pi := range sh.plan {
				p := &sh.plan[pi]
				if p.rateSeries == nil {
					rates, ok := sh.rates[p.itf.Name]
					if !ok {
						//jouleslint:ignore hotpath -- lazy per-interface series creation: first metered step for that interface only
						rates = timeseries.NewWithCap(r.Name+"."+p.itf.Name+".rate", len(sh.steps))
						sh.rates[p.itf.Name] = rates
					}
					p.rateSeries = rates
				}
				// The oper state and load were computed by the offering
				// loop above; advancing the clock changes neither.
				if p.oper {
					p.rateSeries.Append(t, p.load.BitsPerSecond())
				} else {
					p.rateSeries.Append(t, 0)
				}
			}
			if rep, err := r.Device.ReportedTotalPower(); err == nil {
				if sh.snmp == nil {
					//jouleslint:ignore hotpath -- lazy one-time creation of the reported-power series
					sh.snmp = timeseries.NewWithCap(r.Name+".snmp", len(sh.steps))
				}
				sh.snmp.Append(t, rep.Watts())
			}
			w = r.Device.WallPower().Watts()
		} else {
			st.Advance(cfg.SNMPStep)
			w = st.WallPower().Watts()
			st.End()
		}

		sh.power[si] = w
		sh.traffic[si] = stepTraffic
		sh.wall = append(sh.wall, w)
	}
	// One-time PSU export after the window (§9.2). Taken here — not by
	// the caller — so the draws land at the same point of the router's
	// rng stream in cold and incremental replays alike.
	if !sh.snapAt.IsZero() && r.Active(sh.snapAt) {
		//jouleslint:ignore hotpath -- one-time PSU export after the window (§9.2), not per step
		sh.psus = r.Device.EnvSnapshot()
	}
	return nil
}

// partitionEvents splits a time-sorted schedule into per-router queues.
// Append order is preserved, so each router sees its events exactly as the
// global schedule ordered them — including events due at the same step.
// A first pass counts events per router so the map is sized to the number
// of routers with events (not the event count) and each queue is allocated
// exactly once at its final length.
func partitionEvents(evs []scheduledEvent) map[string][]scheduledEvent {
	counts := make(map[string]int)
	for _, e := range evs {
		counts[e.router]++
	}
	out := make(map[string][]scheduledEvent, len(counts))
	for _, e := range evs {
		q, ok := out[e.router]
		if !ok {
			q = make([]scheduledEvent, 0, counts[e.router])
		}
		out[e.router] = append(q, e)
	}
	return out
}

// medianOf returns the median of the samples, sorting them in place.
func medianOf(samples []float64) float64 {
	sort.Float64s(samples)
	mid := len(samples) / 2
	if len(samples)%2 == 0 {
		return (samples[mid-1] + samples[mid]) / 2
	}
	return samples[mid]
}
