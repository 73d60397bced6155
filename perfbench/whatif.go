package main

import (
	"fmt"
	"math/rand"
	"time"

	"fantasticjoules/internal/experiments"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/telemetry"
)

// whatifOps is the fixed number of perturb-and-remeasure operations per
// round. Every op appends to the fleet's event schedule, so a round's
// cost depends on its op count; fixing it keeps rounds comparable. 100
// is the fewest that still gives p90 ten samples beyond it per round.
const whatifOps = 100

// whatif-107 is an operator's perturb-and-remeasure loop on the
// calibrated fleet, one caller in a closed loop: each op scales one
// router's offered load at one instant and re-reads Fig. 1. Setup is a
// cold suite and a cold Fig. 1. The perturbation list derives from the
// seed and is the same in every round.
var whatifWorkload = &workload{
	name: "whatif-107",
	prepare: func(seed int64) (func(*tracer) (round, error), float64, error) {
		cfg := experiments.New(seed).DatasetConfig()
		perturbs, err := whatifPerturbations(seed, cfg)
		if err != nil {
			return nil, 0, err
		}
		newRound := func(tr *tracer) (round, error) {
			s := experiments.New(seed)
			if _, err := s.Fig1(); err != nil {
				return nil, err
			}
			return &whatifRound{s: s, perturbs: perturbs}, nil
		}
		return newRound, whatifOps * studySteps(cfg), nil
	},
}

// whatifPerturbations draws the op list: a load factor in [0.5, 1.5)
// on a uniformly chosen router at a uniformly chosen instant of the
// study window.
func whatifPerturbations(seed int64, cfg ispnet.Config) ([]ispnet.FleetEvent, error) {
	net, err := ispnet.Build(cfg)
	if err != nil {
		return nil, err
	}
	cfg = net.Config // with defaults applied
	// A stream of its own: the fleet's generators also start from seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0f0b5))
	evs := make([]ispnet.FleetEvent, whatifOps)
	for i := range evs {
		r := net.Routers[rng.Intn(len(net.Routers))]
		at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
		evs[i] = ispnet.FleetEvent{
			At:     at,
			Router: r.Name,
			Op:     ispnet.OpScaleLoad,
			Factor: 0.5 + rng.Float64(),
			Desc:   fmt.Sprintf("what-if %d", i),
		}
	}
	return evs, nil
}

type whatifRound struct {
	s        *experiments.Suite
	perturbs []ispnet.FleetEvent
	fig1     []experiments.Fig1Result
}

// shardSeconds is the program's own shard-replay histogram, read (never
// written) to split a traced op's Resimulate into play and fold.
var shardSeconds = telemetry.Default().Histogram("ispnet_shard_replay_seconds", "", nil)

func (r *whatifRound) run(tr *tracer, ops *[]interval) error {
	var resim, play, fold []float64
	for _, ev := range r.perturbs {
		t0 := time.Now()
		if err := r.s.Perturb(ev); err != nil {
			return err
		}
		if tr != nil {
			// Dataset replays the dirty shard; Fig1 then finds it cached.
			before := shardSeconds.Sum()
			t1 := time.Now()
			if _, err := r.s.Dataset(); err != nil {
				return err
			}
			ms := msSince(t1)
			p := (shardSeconds.Sum() - before) * 1e3
			resim, play, fold = append(resim, ms), append(play, p), append(fold, selfTime(ms, p))
		}
		res, err := r.s.Fig1()
		if err != nil {
			return err
		}
		*ops = append(*ops, interval{t0, time.Now()})
		r.fig1 = append(r.fig1, res)
	}
	if tr != nil {
		tr.set("ispnet.resimulate_ms", median(resim))
		tr.set("ispnet.resim_play_ms", median(play))
		tr.set("ispnet.resim_fold_ms", median(fold))
	}
	return nil
}

func (r *whatifRound) layers(tr *tracer) error {
	return probeFleet(tr, r.s.DatasetConfig())
}

func (r *whatifRound) digest(d *digest) {
	for _, res := range r.fig1 {
		d.series(res.Power)
		d.float(res.PowerTrafficCorrelation)
	}
}

// check replays the whole perturbation list cold: the incrementally
// maintained dataset must be bit-identical to it.
func (r *whatifRound) check(c *checker) error {
	ds, err := r.s.Dataset()
	if err != nil {
		return err
	}
	cold, err := ispnet.SimulateWithEvents(r.s.DatasetConfig(), r.perturbs)
	if err != nil {
		return err
	}
	diff := ispnet.DiffDatasets(ds, cold)
	c.expect(diff == nil, "incremental dataset differs from a cold replay of the %d perturbations: %v", len(r.perturbs), diff)
	return nil
}
