package main

import (
	"math"
	"time"

	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/timeseries"
)

// stream-10k is the bounded-memory scale study: a generated 10k-router
// fleet streamed for one week at hourly steps into the benchmark's own
// counting sink. Setup is ispnet.Build; the run is Network.RunStream.
// One operation is the delivery of 1% of the fleet's routers to the
// sink, timed from the previous one (single routers arrive in bursts as
// the workers finish, too uneven to time one by one).
var streamWorkload = &workload{
	name: "stream-10k",
	prepare: func(seed int64) (func(*tracer) (round, error), float64, error) {
		cfg := ispnet.Config{
			Seed: seed, Routers: 10000, Duration: 7 * 24 * time.Hour,
			SNMPStep: time.Hour, AutopowerStep: time.Hour,
		}
		newRound := func(tr *tracer) (round, error) {
			t0 := time.Now()
			net, err := ispnet.Build(cfg)
			if tr != nil {
				tr.set("ispnet.build_s", time.Since(t0).Seconds())
			}
			return &streamRound{cfg: cfg, net: net}, err
		}
		return newRound, studySteps(cfg), nil
	},
}

// streamOpsPerRound splits a stream into operations: one op is the
// delivery of this fraction of the fleet to the sink.
const streamOpsPerRound = 100

// countSink counts what the stream spills and marks each time another
// 1/streamOpsPerRound of the fleet's routers has arrived. Its own cost is
// timed in traced rounds so it can be told apart from the pipeline's.
type countSink struct {
	traced  bool
	ops     *[]interval
	perOp   int // routers per operation
	routers int
	opStart time.Time
	router  string
	chunks  int
	bytes   int
	busy    time.Duration
}

func (s *countSink) WriteChunk(router, series string, chunk []byte) error {
	var t0 time.Time
	if s.traced {
		t0 = time.Now()
	}
	if router != s.router {
		s.router = router
		s.routers++
		if s.routers%s.perOp == 0 {
			now := time.Now()
			*s.ops = append(*s.ops, interval{s.opStart, now})
			s.opStart = now
		}
	}
	s.chunks++
	s.bytes += len(chunk)
	if s.traced {
		s.busy += time.Since(t0)
	}
	return nil
}

type streamRound struct {
	cfg  ispnet.Config
	net  *ispnet.Network
	sink *countSink
	ds   *ispnet.Dataset
}

func (r *streamRound) run(tr *tracer, ops *[]interval) error {
	r.sink = &countSink{traced: tr != nil, ops: ops, perOp: r.cfg.Routers / streamOpsPerRound, opStart: time.Now()}
	ds, err := r.net.RunStream(r.sink)
	r.ds, r.net = ds, nil
	return err
}

func (r *streamRound) layers(tr *tracer) error {
	tr.set("ispnet.sink_chunks", float64(r.sink.chunks))
	tr.set("ispnet.sink_mb", float64(r.sink.bytes)/1e6)
	tr.set("ispnet.sink_s", r.sink.busy.Seconds())
	return nil
}

func (r *streamRound) digest(d *digest) {
	d.series(r.ds.TotalPower)
	d.series(r.ds.TotalTraffic)
	d.int(r.sink.chunks)
	d.int(r.sink.bytes)
	d.int(r.sink.routers)
}

// sumSink decodes every spilled "power" chunk and accumulates it per
// step in arrival (fleet) order — the addition sequence of the stream's
// own fold.
type sumSink struct {
	start, step int64
	sums        []float64
	scratch     *timeseries.Series
}

func (s *sumSink) WriteChunk(router, series string, chunk []byte) error {
	if series != "power" {
		return nil
	}
	s.scratch.Reset()
	if _, err := timeseries.DecodeChunk(s.scratch, chunk); err != nil {
		return err
	}
	for i := 0; i < s.scratch.Len(); i++ {
		k := (s.scratch.TimeAt(i).UnixNano() - s.start) / s.step
		if k < 0 || k >= int64(len(s.sums)) {
			continue
		}
		s.sums[k] += s.scratch.Value(i)
	}
	return nil
}

// check streams the same fleet again into a decoding sink: the per-router
// power chunks must sum, bit for bit, to the dataset's total power, and
// the rerun must reproduce the timed rounds' totals.
func (r *streamRound) check(c *checker) error {
	net, err := ispnet.Build(r.cfg)
	if err != nil {
		return err
	}
	cfg := net.Config
	steps := int(cfg.Duration / cfg.SNMPStep)
	sink := &sumSink{
		start:   cfg.Start.UnixNano(),
		step:    int64(cfg.SNMPStep),
		sums:    make([]float64, steps),
		scratch: timeseries.NewWithCap("power", 1024),
	}
	ds, err := net.RunStream(sink)
	if err != nil {
		return err
	}
	tp := ds.TotalPower
	match := tp.Len() == steps
	for i := 0; match && i < steps; i++ {
		match = math.Float64bits(tp.Value(i)) == math.Float64bits(sink.sums[i])
	}
	c.expect(match, "decoded power chunks do not sum to Dataset.TotalPower over %d steps", steps)
	rerun, timed := newDigest(), newDigest()
	rerun.series(tp)
	timed.series(r.ds.TotalPower)
	c.expect(rerun.sum() == timed.sum(), "streaming rerun's total power differs from the timed rounds'")
	return nil
}
