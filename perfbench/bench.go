package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// A run measures for the requested time, then keeps going until it has
// minOps operations (so p90 has ten samples beyond it), but never starts
// a round after maxSeconds.
const (
	minOps     = 100
	maxSeconds = 120
)

// The development seed is the one the repository's tests and the paper
// reproduction use; claims are confirmed on the held-out seed, which no
// change is tuned against.
const (
	devSeed     = 42
	heldOutSeed = 20251
)

// A workload repeats a fixed unit of work in rounds until the measuring
// time is spent. Each round builds fresh state (timed as setup_s) and
// then runs the work (timed as run_s), recording one latency per
// operation.
type workload struct {
	name string
	// setups is how many times an untraced round sets up (keeping the
	// last), for workloads with too few rounds to take a median over.
	setups int
	// prepare derives the workload's inputs from the seed (untimed) and
	// returns the round constructor plus the study one round delivers,
	// in routers × SNMP steps (the numerator of sim_router_steps_per_s).
	prepare func(seed int64) (newRound func(tr *tracer) (round, error), routerSteps float64, err error)
}

// round is one round's state between setup and checks.
type round interface {
	// run performs the fixed work, appending each operation's wall-clock
	// interval to ops. tr is nil in an untraced round.
	run(tr *tracer, ops *[]interval) error
	// layers records a traced round's remaining per-layer values after
	// the run phase's telemetry is in tr: self-times derived from it, and
	// single layers timed in isolation (outside every timed phase).
	layers(tr *tracer) error
	// digest hashes the round's simulated outputs; every round of a run
	// must produce the same digest.
	digest(d *digest)
	// check verifies the outputs. It runs once, untimed, after the last
	// round.
	check(c *checker) error
}

// tracer collects one traced round's per-layer values.
type tracer struct{ layer map[string]float64 }

func (t *tracer) set(name string, v float64) { t.layer[name] = v }

// bench runs one workload for the measuring time.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer
}

// phaseSnap is what a traced round reads at each phase boundary.
type phaseSnap struct {
	rt   rtSnap
	tele telemSnap
}

func takePhaseSnap() (phaseSnap, error) {
	tele, err := snapshot(telemetry.Default())
	return phaseSnap{rt: readRuntime(), tele: tele}, err
}

func (b *bench) run() (result, error) {
	newRound, routerSteps, err := b.w.prepare(b.seed)
	if err != nil {
		return result{}, err
	}
	ref := newRefKernel()
	ref.work()           // first touch of its state, untimed
	var quanta []float64 // every quantum of the untraced rounds, for the wall line
	var (
		// setupS and runS are rescaled to the nominal host (see
		// hostspeed.go); the raw ones are program time. ops are program
		// time (ms), and scaledOps the untraced rounds' ops rescaled.
		setupS, runS, rawSetupS, rawRunS, tracedRunS []float64
		ops, scaledOps                               []float64
		layers                                       []map[string]float64
		profile                                      []profSample
		digests                                      []uint64
		last                                         round
	)
	start := time.Now()
	more := func() bool {
		spent := time.Since(start).Seconds()
		switch {
		case spent < b.seconds:
			return true
		case spent > maxSeconds:
			return false
		}
		// Past the measuring time, finish the rounds that p90 and the
		// traced layers need.
		return len(ops) < minOps || (b.traced && len(layers) == 0)
	}
	for i := 0; i == 0 || more(); i++ {
		// Every round starts from a collected heap, so no round pays for
		// the previous round's garbage.
		runtime.GC()
		// A traced run alternates untraced and traced rounds, so tracing
		// overhead is the difference of their run_s medians.
		var tr *tracer
		var prof bytes.Buffer
		var s0, s1, s2 phaseSnap
		if b.traced && i%2 == 1 {
			tr = &tracer{layer: map[string]float64{}}
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, fmt.Errorf("cpu profile: %w", err)
			}
			if s0, err = takePhaseSnap(); err != nil {
				return result{}, err
			}
		}
		// A workload whose rounds are long sets up several times per
		// untraced round, so setup_s is a median of several samples.
		setups := 1
		if tr == nil {
			setups = max(b.w.setups, 1)
		}
		// Untraced rounds sample the host's speed throughout set-up and
		// run (see hostspeed.go); traced rounds time the program alone.
		sampling := tr == nil
		if sampling {
			ref.start()
		}
		var setup []interval
		var r round
		for j := 0; j < setups; j++ {
			t0 := time.Now()
			r, err = newRound(tr)
			setup = append(setup, interval{t0, time.Now()})
			if err != nil {
				break
			}
		}
		var roundOps []interval
		var runIv interval
		if err == nil && tr != nil {
			s1, err = takePhaseSnap()
		}
		if err == nil {
			t1 := time.Now()
			err = r.run(tr, &roundOps)
			runIv = interval{t1, time.Now()}
		}
		clock := newHostClock(nil) // program time is wall time
		if sampling {
			clock = ref.halt()
		}
		if err != nil {
			return result{}, fmt.Errorf("%s round: %w", b.w.name, err)
		}
		runProgram, runScaled := clock.measure(runIv)
		for _, op := range roundOps {
			program, scaled := clock.measure(op)
			ops = append(ops, program*1e3)
			if sampling {
				scaledOps = append(scaledOps, scaled*1e3)
			}
		}
		if tr != nil {
			if s2, err = takePhaseSnap(); err != nil {
				return result{}, err
			}
			pprof.StopCPUProfile()
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return result{}, err
			}
			profile = append(profile, samples...)
			addRuntimeDelta(tr.layer, "setup", s0.rt, s1.rt)
			addRuntimeDelta(tr.layer, "run", s1.rt, s2.rt)
			addTelemetryLayers(tr, telemDelta{s0.tele, s1.tele}, telemDelta{s1.tele, s2.tele}, len(roundOps))
			if err := r.layers(tr); err != nil {
				return result{}, fmt.Errorf("%s layers: %w", b.w.name, err)
			}
			layers = append(layers, tr.layer)
			tracedRunS = append(tracedRunS, runProgram)
		} else {
			for _, iv := range setup {
				program, scaled := clock.measure(iv)
				rawSetupS, setupS = append(rawSetupS, program), append(setupS, scaled)
			}
			rawRunS, runS = append(rawRunS, runProgram), append(runS, runScaled)
			for _, q := range clock.quanta {
				quanta = append(quanta, q.seconds())
			}
		}
		d := newDigest()
		r.digest(d)
		digests = append(digests, d.sum())
		last = r
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	c := &checker{log: b.log}
	stable := true
	for _, d := range digests {
		stable = stable && d == digests[0]
	}
	c.expect(stable, "output digest identical across %d rounds", len(digests))
	if err := last.check(c); err != nil {
		return result{}, fmt.Errorf("%s check: %w", b.w.name, err)
	}
	fmt.Fprintf(b.log, "fingerprint %s %016x\n", b.w.name, digests[0])
	fmt.Fprintf(b.log, "rounds %d (untraced %d, traced %d); checks %d, failed %d\n",
		len(digests), len(runS), len(tracedRunS), c.n, c.failed)

	res := result{
		Correct:   c.failed == 0,
		Attempted: len(ops) + c.n,
		Failed:    c.failed,
	}
	if b.traced {
		res.Metrics = tracedMetrics(layers, profile, median(tracedRunS)-median(rawRunS), median(rawRunS))
		return res, nil
	}
	p50, _ := percentile(scaledOps, 0.5)
	p90, ok := percentile(scaledOps, 0.9)
	tp, tv, _ := tailPercentile(scaledOps)
	fmt.Fprintf(b.log, "ops %d: p50 %.4g ms, p90 %.4g ms (>= %d beyond: %v), highest tail p%g %.4g ms\n",
		len(scaledOps), p50, p90, minTail, ok, tp*100, tv)
	rawP50, _ := percentile(ops, 0.5)
	rawP90, _ := percentile(ops, 0.9)
	fmt.Fprintf(b.log, "wall setup_s %.4g, run_s %.4g, op_p50_ms %.4g, op_p90_ms %.4g; reference quantum %.4g ms (median of %d)\n",
		median(rawSetupS), median(rawRunS), rawP50, rawP90, median(quanta)*1e3, len(quanta))
	res.Metrics = map[string]metric{
		"setup_s":                {median(setupS), "s"},
		"run_s":                  {median(runS), "s"},
		"op_p50_ms":              {p50, "ms"},
		"op_p90_ms":              {p90, "ms"},
		"sim_router_steps_per_s": {routerSteps / median(runS), "1/s"},
		"peak_rss_mb":            {rss, "MB"},
	}
	return res, nil
}

// tracedMetrics assembles every per-layer metric: per-round values are
// medians over the traced rounds, CPU shares pool all their samples, and
// the tracing overhead is the traced minus the untraced median run_s.
func tracedMetrics(layers []map[string]float64, profile []profSample, overhead, untracedRunS float64) map[string]metric {
	whole := map[string]float64{
		"trace.overhead_s":     overhead,
		"trace.overhead_share": ratio(overhead, untracedRunS),
	}
	for mod, share := range attribute(profile) {
		whole["cpu."+mod] = share
	}
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		v, ok := whole[m.name]
		if !ok {
			vals := make([]float64, len(layers))
			for i, l := range layers {
				vals[i] = l[m.name]
			}
			v = median(vals)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// addTelemetryLayers records the per-layer values every workload reads
// from the program's own telemetry: run-phase deltas, plus the setup
// phase's replay cost.
func addTelemetryLayers(tr *tracer, setup, run telemDelta, ops int) {
	_, setupPlay := setup.hist("ispnet_shard_replay_seconds")
	tr.set("ispnet.setup_shard_play_s", setupPlay)
	tr.set("ispnet.setup_router_steps", setup.counter("ispnet_steps_total"))

	_, play := run.hist("ispnet_shard_replay_seconds")
	tr.set("ispnet.shard_play_s", play)
	tr.set("ispnet.router_steps", run.counter("ispnet_steps_total"))
	tr.set("ispnet.events_applied", run.counter("ispnet_events_applied_total"))
	replayed := run.counter("ispnet_shards_replayed_total")
	reused := run.counter("ispnet_shards_reused_total")
	tr.set("ispnet.shards_replayed", replayed)
	tr.set("ispnet.shards_reused", reused)
	tr.set("ispnet.shard_reuse_ratio", ratio(reused, replayed+reused))
	tr.set("ispnet.shards_replayed_per_op", ratio(replayed, float64(ops)))
	tr.set("ispnet.chunk_splices", run.counter("ispnet_fleet_chunk_splices_total"))
	tr.set("ispnet.fleet_chunk_mb", run.gauge("ispnet_fleet_chunk_bytes")/1e6)

	plans, planS := run.hist("optimizer_guardrail_seconds")
	tr.set("hypnos.plan_s", planS)
	tr.set("hypnos.plan_steps", plans)
	tr.set("hypnos.plan_step_ms", ratio(planS*1e3, plans))
	tr.set("hypnos.vetoes", run.counter("optimizer_vetoes_total"))
	tr.set("optimizer.resimulates", run.counter("optimizer_resimulates_total"))
	tr.set("optimizer.actions", run.counter("optimizer_actions_total"))

	tr.set("experiments.memo_hits", run.counter("experiments_memo_hits_total"))
	tr.set("experiments.memo_misses", run.counter("experiments_memo_misses_total"))
	tr.set("experiments.epoch_invalidations", run.counter("experiments_cell_epoch_invalidations_total"))
}

// checker counts output checks; each is one attempted operation, and a
// failed check is a failed one.
type checker struct {
	n, failed int
	log       io.Writer
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.n++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check failed: "+format+"\n", args...)
	}
}

// within checks lo ≤ v ≤ hi.
func (c *checker) within(what string, v, lo, hi float64) {
	c.expect(v >= lo && v <= hi, "%s = %.6g, want [%g, %g]", what, v, lo, hi)
}

// digest fingerprints simulated outputs: FNV-64a over the exact bits of
// every value, so two runs agree only if they are bit-identical.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }

// approx digests v rounded to sig significant digits, for an output
// known to vary below that precision.
func (d *digest) approx(v float64, sig int) {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		d.float(v)
		return
	}
	scale := math.Pow(10, float64(sig-1)-math.Floor(math.Log10(math.Abs(v))))
	d.float(math.Round(v*scale) / scale)
}

func (d *digest) int(v int)    { d.u64(uint64(v)) }
func (d *digest) str(s string) { d.int(len(s)); io.WriteString(d.h, s) }

func (d *digest) series(s *timeseries.Series) {
	d.int(s.Len())
	for i := 0; i < s.Len(); i++ {
		d.u64(uint64(s.TimeAt(i).UnixNano()))
		d.float(s.Value(i))
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
