package ispnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fleetCase is one fleet the incremental Perturb/Resimulate contract is
// tested on: the calibrated 107-router build, whose instrumented routers
// retain their meter, SNMP and rate traces, or a generated 1k-router
// hierarchy. Every comparison runs through the DiffDatasets Float64bits
// oracle against a cold SimulateWithEvents of the same merged schedule.
type fleetCase struct {
	name string
	// quick and golden return the fleet's configs at a worker count: a
	// short window for the cold and randomized tests, and the window the
	// golden perturbation spans (the full 9 weeks on the calibrated
	// build, so every built-in Fig. 4 event fires).
	quick, golden func(workers int) Config
	// perturbation is the golden batch, applied as successive
	// Perturb+Resimulate rounds (so retained results from one round fold
	// into the next).
	perturbation func(t *testing.T, n *Network) [][]FleetEvent
	// trials seeds the randomized rounds; rounds and random draw each
	// trial's round count and batches.
	trials []int64
	rounds func(rng *rand.Rand) int
	random func(rng *rand.Rand, n *Network) []FleetEvent
	// long marks the randomized rounds as not a -short test.
	long bool
}

var fleetCases = []fleetCase{
	{
		name: "calibrated-107",
		quick: func(workers int) Config {
			cfg := quickCfg()
			cfg.Workers = workers
			return cfg
		},
		golden: func(workers int) Config {
			cfg := fullCfg()
			cfg.Workers = workers
			return cfg
		},
		perturbation: func(t *testing.T, n *Network) [][]FleetEvent {
			return [][]FleetEvent{goldenPerturbation(t, n)}
		},
		trials: []int64{4000, 4001, 4002},
		rounds: func(rng *rand.Rand) int { return 1 + rng.Intn(3) },
		random: func(rng *rand.Rand, n *Network) []FleetEvent {
			return randomEvents(rng, n, 1+rng.Intn(5))
		},
	},
	{
		name: "generated-1k",
		quick: func(workers int) Config {
			return hierFleetCfg(1000, workers, 12*time.Hour, time.Hour)
		},
		golden: func(workers int) Config {
			return hierFleetCfg(1000, workers, 24*time.Hour, time.Hour)
		},
		perturbation: func(t *testing.T, n *Network) [][]FleetEvent {
			evs := hierPerturbation(n, n.Config.Start)
			return [][]FleetEvent{evs[:4], evs[4:]}
		},
		trials: []int64{1234},
		rounds: func(*rand.Rand) int { return 3 },
		random: func(rng *rand.Rand, n *Network) []FleetEvent {
			return randomHierEvents(rng, n, n.Config.Start, n.Config.Duration)
		},
		long: true,
	},
}

// forEachFleet runs fn on every fleet case at Workers 1 and 8, and checks
// the datasets fn returns are identical across the two worker counts.
func forEachFleet(t *testing.T, fn func(t *testing.T, fc fleetCase, workers int) *Dataset) {
	for _, fc := range fleetCases {
		t.Run(fc.name, func(t *testing.T) {
			var got []*Dataset
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					got = append(got, fn(t, fc, workers))
				})
			}
			if len(got) == 2 && got[0] != nil && got[1] != nil {
				datasetsIdentical(t, got[0], got[1])
			}
		})
	}
}

// TestFleetColdMatchesSimulate pins the retained-state entry point to the
// batch paths: a fresh Fleet's dataset, Run's and RunStream's are all
// bit-identical.
func TestFleetColdMatchesSimulate(t *testing.T) {
	forEachFleet(t, func(t *testing.T, fc fleetCase, workers int) *Dataset {
		cfg := fc.quick(workers)
		want, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := SimulateStream(cfg, &DiscardSink{})
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, streamed, want)
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, f.Dataset(), want)
		return f.Dataset()
	})
}

// TestFleetResimulateGolden is the incremental-correctness golden test: a
// fixed perturbation applied through Perturb+Resimulate rounds must
// reproduce, bit for bit, a cold SimulateWithEvents over the merged event
// list.
func TestFleetResimulateGolden(t *testing.T) {
	forEachFleet(t, func(t *testing.T, fc fleetCase, workers int) *Dataset {
		cfg := fc.golden(workers)
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got *Dataset
		for _, round := range fc.perturbation(t, f.Network()) {
			if err := f.Perturb(round...); err != nil {
				t.Fatal(err)
			}
			if got, err = f.Resimulate(); err != nil {
				t.Fatal(err)
			}
		}
		want, err := SimulateWithEvents(cfg, f.ExtraEvents())
		if err != nil {
			t.Fatal(err)
		}
		datasetsIdentical(t, got, want)

		// Resimulate with nothing pending is a no-op returning the same
		// dataset object.
		again, err := f.Resimulate()
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatal("no-op Resimulate rebuilt the dataset")
		}
		return got
	})
}

// goldenPerturbation builds a fixed three-router perturbation batch that
// exercises every structural op: an interface taken down and brought back,
// a load scale on an instrumented router, and a PSU power-cycle.
func goldenPerturbation(t *testing.T, n *Network) []FleetEvent {
	t.Helper()
	start := n.Config.Start
	plain := ""
	for _, r := range n.Routers {
		if !r.Autopower && len(r.Interfaces) > 0 {
			plain = r.Name
			break
		}
	}
	if plain == "" {
		t.Fatal("no uninstrumented router with interfaces")
	}
	r := n.byName[plain]
	var iface string
	for _, itf := range r.Interfaces {
		if !itf.Spare {
			iface = itf.Name
			break
		}
	}
	if iface == "" {
		t.Fatalf("no configured interface on %s", plain)
	}
	auto := n.AutopowerRouters()
	if len(auto) < 2 {
		t.Fatal("want at least two instrumented routers")
	}
	return []FleetEvent{
		{At: start.Add(10 * 24 * time.Hour), Router: plain, Op: OpAdminDown, Iface: iface},
		{At: start.Add(20 * 24 * time.Hour), Router: plain, Op: OpAdminUp, Iface: iface},
		{At: start.Add(15 * 24 * time.Hour), Router: auto[0].Name, Op: OpScaleLoad, Factor: 1.5},
		{At: start.Add(30 * 24 * time.Hour), Router: auto[1].Name, Op: OpPowerCycle, PSU: 0},
	}
}

// TestFleetResimulatePropertyRandom is the property test of the
// incremental contract: for random event batches over random routers —
// applied across multiple Perturb/Resimulate rounds — every round's
// dataset is bit-identical to one cold SimulateWithEvents holding the
// merged event list.
func TestFleetResimulatePropertyRandom(t *testing.T) {
	forEachFleet(t, func(t *testing.T, fc fleetCase, workers int) *Dataset {
		if fc.long && testing.Short() {
			t.Skip("randomized generated-fleet rounds are not a -short test")
		}
		cfg := fc.quick(workers)
		var ds *Dataset
		for _, trial := range fc.trials {
			rng := rand.New(rand.NewSource(trial))
			f, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rounds := fc.rounds(rng)
			for round := 0; round < rounds; round++ {
				if err := f.Perturb(fc.random(rng, f.Network())...); err != nil {
					t.Fatal(err)
				}
				if ds, err = f.Resimulate(); err != nil {
					t.Fatalf("trial %d round %d: %v", trial, round, err)
				}
				want, err := SimulateWithEvents(cfg, f.ExtraEvents())
				if err != nil {
					t.Fatal(err)
				}
				datasetsIdentical(t, ds, want)
			}
			t.Logf("trial %d: %d events over %d rounds", trial, len(f.ExtraEvents()), rounds)
		}
		return ds
	})
}

// randomEvents draws a batch of valid perturbations against the current
// fleet. Ops are limited to mutations that cannot fail at apply time on
// an arbitrary router (no unplug/add, whose preconditions depend on the
// router's remaining ports).
func randomEvents(rng *rand.Rand, n *Network, count int) []FleetEvent {
	var evs []FleetEvent
	start, dur := n.Config.Start, n.Config.Duration
	for len(evs) < count {
		r := n.Routers[rng.Intn(len(n.Routers))]
		at := start.Add(time.Duration(rng.Int63n(int64(dur))))
		switch rng.Intn(4) {
		case 0, 1:
			var names []string
			for _, itf := range r.Interfaces {
				if !itf.Spare {
					names = append(names, itf.Name)
				}
			}
			if len(names) == 0 {
				continue
			}
			iface := names[rng.Intn(len(names))]
			op := OpAdminDown
			if rng.Intn(2) == 0 {
				op = OpAdminUp
			}
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: op, Iface: iface})
		case 2:
			evs = append(evs, FleetEvent{
				At: at, Router: r.Name, Op: OpScaleLoad,
				Factor: 0.5 + rng.Float64(),
			})
		case 3:
			evs = append(evs, FleetEvent{At: at, Router: r.Name, Op: OpPowerCycle, PSU: 0})
		}
	}
	return evs
}

// TestFleetShardCounters checks the dirty/reused telemetry: a cold build
// replays the whole fleet, a 1-router perturbation replays exactly one
// shard and reuses the rest.
func TestFleetShardCounters(t *testing.T) {
	replayed0 := metricShardsReplayed.Value()
	reused0 := metricShardsReused.Value()

	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricShardsReplayed.Value() - replayed0; got != NumRouters {
		t.Fatalf("cold build replayed %d shards, want %d", got, NumRouters)
	}
	if got := metricShardsReused.Value() - reused0; got != 0 {
		t.Fatalf("cold build reused %d shards, want 0", got)
	}

	target := f.Network().Routers[0]
	if err := f.Perturb(FleetEvent{
		At: f.cfg.Start.Add(24 * time.Hour), Router: target.Name,
		Op: OpScaleLoad, Factor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if f.DirtyRouters() != 1 {
		t.Fatalf("dirty = %d, want 1", f.DirtyRouters())
	}
	replayed1 := metricShardsReplayed.Value()
	reused1 := metricShardsReused.Value()
	if _, err := f.Resimulate(); err != nil {
		t.Fatal(err)
	}
	if got := metricShardsReplayed.Value() - replayed1; got != 1 {
		t.Fatalf("resimulate replayed %d shards, want 1", got)
	}
	if got := metricShardsReused.Value() - reused1; got != NumRouters-1 {
		t.Fatalf("resimulate reused %d shards, want %d", got, NumRouters-1)
	}
	if f.DirtyRouters() != 0 {
		t.Fatalf("dirty after resimulate = %d, want 0", f.DirtyRouters())
	}
}

// TestFleetPerturbValidates checks batch-atomic validation: a batch with
// one bad event queues nothing.
func TestFleetPerturbValidates(t *testing.T) {
	f, err := NewFleet(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	good := FleetEvent{
		At: f.cfg.Start, Router: f.Network().Routers[0].Name,
		Op: OpScaleLoad, Factor: 2,
	}
	for _, bad := range []FleetEvent{
		{At: f.cfg.Start, Router: "no-such-router", Op: OpScaleLoad, Factor: 2},
		{At: f.cfg.Start, Router: good.Router, Op: "warp-core-breach"},
		{At: f.cfg.Start, Router: good.Router, Op: OpScaleLoad, Factor: -1},
		{At: f.cfg.Start, Router: good.Router, Op: OpAdminDown},
	} {
		if err := f.Perturb(good, bad); err == nil {
			t.Fatalf("Perturb accepted bad event %+v", bad)
		}
		if f.DirtyRouters() != 0 {
			t.Fatalf("bad batch left %d routers dirty", f.DirtyRouters())
		}
	}
}
