package ispnet

import (
	"runtime"
	"sync"

	"fantasticjoules/internal/meter"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// The replay engine. Every way of playing the study window — Run,
// RunStream, NewFleet and Fleet.Resimulate — is one call of
// Network.replay, which runs a bounded producer/worker/consumer pipeline:
//
//	producer  wires recycled shards for the routers that play, in fleet
//	          order, and admits at most workers+replayWindowSlack in flight
//	workers   play shards concurrently
//	consumer  (the calling goroutine) walks the whole fleet in order and
//	          folds each router's result into the dataset: a played router
//	          from its finished shard, a clean router from its retained
//	          result
//
// With one worker the consumer plays each router itself, on one recycled
// shard. Peak heap is O(fleet metadata) + O(window × steps) plus whatever the
// caller retains. The per-step totals accumulate router contributions in
// fleet order whichever routers played, so the Dataset is bit-identical
// for every worker count and for any played/retained mix (the golden and
// property tests pin this under the DiffDatasets oracle).

// replayWindowSlack is how many shards beyond the worker count may be in
// flight: finished shards waiting for their in-order fold turn.
const replayWindowSlack = 2

// routerResult is one router's replay result: what the fold consumes and
// what a Fleet retains per router. The step grid is shared, so the
// columns carry no timestamps.
type routerResult struct {
	power   []float64 // wall power per step, in watts
	traffic []float64 // carried traffic per step, in bit/s
	// wallMedian / wallPeak are the router's median and peak wall power
	// over its deployed steps, in watts; hasWall distinguishes "never
	// deployed" from zero.
	wallMedian float64
	wallPeak   float64
	hasWall    bool
	// psus is the mid-window environment-sensor export (nil when the
	// router was not active at the snapshot instant).
	psus []psu.Snapshot

	// Instrumented-router traces (nil otherwise).
	autopower *timeseries.Series
	snmp      *timeseries.Series
	rates     map[string]*timeseries.Series
	profiles  map[string]model.ProfileKey
}

// retain copies a played result into rr, reusing rr's column storage,
// and returns the change in retained column bytes.
func (rr *routerResult) retain(res *routerResult) int {
	before := 8 * (len(rr.power) + len(rr.traffic))
	power := append(rr.power[:0], res.power...)
	traffic := append(rr.traffic[:0], res.traffic...)
	*rr = *res
	rr.power, rr.traffic = power, traffic
	return 8*(len(power)+len(traffic)) - before
}

// addRouter records one router's result in the dataset's per-router
// fields. Called in fleet order, so PSUSnapshots come out in fleet order.
func (ds *Dataset) addRouter(r *Router, res *routerResult) {
	if res.hasWall {
		ds.RouterWallMedian[r.Name] = units.Power(res.wallMedian)
		ds.RouterWallPeak[r.Name] = units.Power(res.wallPeak)
	}
	if res.autopower != nil {
		ds.Autopower[r.Name] = res.autopower
		ds.IfaceRates[r.Name] = res.rates
		ds.IfaceProfiles[r.Name] = res.profiles
		if res.snmp != nil {
			ds.SNMPPower[r.Name] = res.snmp
		}
	}
	// One-time PSU sensor export, mid-window (§9.2: a snapshot, not a
	// trace — the SNMP data only carries Pin).
	if res.psus != nil {
		ds.PSUSnapshots = append(ds.PSUSnapshots, psu.RouterPSUs{
			Router: r.Name,
			Model:  r.Device.Model(),
			PSUs:   res.psus,
		})
	}
}

// finish plays the shard and summarizes its wall samples.
func (sh *routerShard) finish() {
	sh.err = sh.playInstrumented()
	sh.summarizeWall()
}

// replaySlot is one in-flight shard: the worker closes done when the
// shard has played, and the consumer folds slots strictly in fleet order.
type replaySlot struct {
	sh   *routerShard
	done chan struct{}
}

// replay plays the study window over the network and folds the dataset.
//
//   - evs is the merged declarative schedule, sorted by due time.
//   - dirty names the routers to play; nil plays every router.
//   - retained, when non-nil, holds one result per router in fleet order:
//     routers that do not play are folded from it, and every played
//     router's result is copied into it.
//   - sink, when non-nil, receives every played router's series.
//
// capacity is the provisioned capacity of the pristine build, which the
// caller must take before any replay mutates the routers.
func (n *Network) replay(evs []FleetEvent, capacity units.BitRate, dirty map[string]bool, retained []routerResult, sink SeriesSink) (*Dataset, error) {
	steps := n.stepGrid()
	compiled, err := n.compileEvents(evs)
	if err != nil {
		return nil, err
	}
	byRouter := partitionEvents(compiled)
	plays := func(r *Router) bool { return dirty == nil || dirty[r.Name] }

	// One external meter per played instrumented router. Seeds depend only
	// on the instrumentation order, never on which routers play or on
	// worker scheduling.
	meters := make(map[string]*meter.Meter)
	for i, r := range n.AutopowerRouters() {
		if !plays(r) {
			continue
		}
		m := meter.New(n.meterSeed(i))
		if err := m.Attach(0, r.Device); err != nil {
			return nil, err
		}
		meters[r.Name] = m
	}
	played := 0
	for _, r := range n.Routers {
		if plays(r) {
			played++
		}
	}
	workers := n.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, played))

	// The bounded pipeline, started only for more than one worker: one
	// worker plays every router on the calling goroutine with no handoffs.
	// free holds the window's shards: the producer takes one per played
	// router and the consumer hands it back after the fold, so at most
	// window step-buffer sets exist at any instant and each has exactly
	// one owner. slots preserves fleet order.
	var (
		slots  chan *replaySlot
		free   chan *routerShard
		wg     sync.WaitGroup
		serial = new(routerShard)
	)
	if workers > 1 {
		window := workers + replayWindowSlack
		free = make(chan *routerShard, window)
		for range window {
			free <- new(routerShard)
		}
		slots = make(chan *replaySlot, window)
		work := make(chan *replaySlot)
		go func() {
			for _, r := range n.Routers {
				if !plays(r) {
					continue
				}
				sh := <-free
				sh.reset(n, r, meters[r.Name], byRouter[r.Name], steps)
				s := &replaySlot{sh: sh, done: make(chan struct{})}
				slots <- s
				work <- s
			}
			close(slots)
			close(work)
		}()
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range work {
					s.sh.finish()
					close(s.done)
				}
			}()
		}
	}

	ds := &Dataset{
		Network:          n,
		TotalPower:       timeseries.NewWithCap("total-power", len(steps)),
		TotalTraffic:     timeseries.NewWithCap("total-traffic", len(steps)),
		TotalCapacity:    capacity,
		RouterWallMedian: make(map[string]units.Power),
		RouterWallPeak:   make(map[string]units.Power),
		Autopower:        make(map[string]*timeseries.Series),
		SNMPPower:        make(map[string]*timeseries.Series),
		IfaceRates:       make(map[string]map[string]*timeseries.Series),
		IfaceProfiles:    make(map[string]map[string]model.ProfileKey),
		Events:           describeFleetEvents(evs),
	}
	totalPower := make([]float64, len(steps))
	totalTraffic := make([]float64, len(steps))
	fold := func(r *Router, res *routerResult) {
		// Router contributions accumulate in fleet order at every step:
		// the one floating-point addition sequence of every replay.
		for si := range totalPower {
			totalPower[si] += res.power[si]
			totalTraffic[si] += res.traffic[si]
		}
		ds.addRouter(r, res)
	}
	var spill *spiller
	if sink != nil {
		spill = newSpiller(sink, steps)
	}

	// The consumer: routers that play are played inline or taken from the
	// pipeline (which emits them in fleet order); the rest are folded from
	// retention. After a failure it keeps draining so the pipeline can
	// finish.
	var firstErr error
	retainedDelta := 0
	for i, r := range n.Routers {
		if !plays(r) {
			fold(r, &retained[i])
			continue
		}
		sh := serial
		if slots == nil {
			if firstErr != nil {
				break
			}
			sh.reset(n, r, meters[r.Name], byRouter[r.Name], steps)
			sh.finish()
		} else {
			s := <-slots
			<-s.done
			sh = s.sh
		}
		if firstErr == nil {
			firstErr = sh.err
		}
		if firstErr == nil {
			res := &sh.routerResult
			if retained != nil {
				retainedDelta += retained[i].retain(res)
				res = &retained[i]
			}
			fold(r, res)
			if spill != nil {
				firstErr = spill.router(r.Name, res)
			}
		}
		if free != nil {
			free <- sh
		}
	}
	wg.Wait()
	if retained != nil {
		metricShardsReplayed.Add(uint64(played))
		metricShardsReused.Add(uint64(len(n.Routers) - played))
		metricFleetChunkSplices.Add(uint64(len(n.Routers) - played))
		metricFleetChunkBytes.Add(float64(retainedDelta))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for si, t := range steps {
		ds.TotalPower.Append(t, totalPower[si])
		ds.TotalTraffic.Append(t, totalTraffic[si])
	}
	return ds, nil
}
