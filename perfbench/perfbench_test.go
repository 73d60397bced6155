package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fantasticjoules/internal/telemetry"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	if v, ok := percentile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (ok %v), want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it, want ok = false")
	}
	if v, ok := percentile(xs, 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (ok %v), want 50", v, ok)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples must not be ok")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, _, ok := tailPercentile(xs)
		if tc.want == 0 {
			if ok {
				t.Errorf("n=%d: got p%g, want none (fewer than 11 samples)", tc.n, p*100)
			}
			continue
		}
		if !ok || p != tc.want {
			t.Errorf("n=%d: highest tail percentile = %g (ok %v), want %g", tc.n, p, ok, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10, 3, 2.5); got != 4.5 {
		t.Errorf("selfTime(10; 3, 2.5) = %v, want 4.5", got)
	}
	if got := selfTime(1, 0.7, 0.4); got != 0 {
		t.Errorf("children past the parent must floor at 0, got %v", got)
	}
	if got := selfTime(2); got != 2 {
		t.Errorf("no children: self = total, got %v", got)
	}
}

func TestTelemetryDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("work_total", "")
	g := reg.Gauge("bytes", "")
	h := reg.Histogram("op_seconds", "", nil)
	c.Add(5)
	h.Observe(0.25)
	before, err := snapshot(reg)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(7)
	g.Set(3e6)
	h.Observe(0.5)
	h.Observe(1)
	reg.Counter("late_total", "").Add(2) // registered between the snapshots
	after, err := snapshot(reg)
	if err != nil {
		t.Fatal(err)
	}
	d := telemDelta{before, after}
	if got := d.counter("work_total"); got != 7 {
		t.Errorf("counter delta = %v, want 7", got)
	}
	if got := d.counter("late_total"); got != 2 {
		t.Errorf("late-registered counter delta = %v, want 2", got)
	}
	if got := d.counter("never_total"); got != 0 {
		t.Errorf("unregistered counter delta = %v, want 0", got)
	}
	if got := d.gauge("bytes"); got != 3e6 {
		t.Errorf("gauge = %v, want 3e6", got)
	}
	if n, sum := d.hist("op_seconds"); n != 2 || sum != 1.5 {
		t.Errorf("histogram delta = %v obs, %v s; want 2, 1.5", n, sum)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 2048*1024/1e6 {
		t.Errorf("VmHWM = %v MB, %v", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("missing VmHWM must be an error")
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile builds a gzipped pprof profile. Each function gets
// its own location, except location 100, which inlines device into
// ispnet (innermost line first).
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	funcs := []string{
		"", // string 0 is always empty
		"fantasticjoules/internal/ispnet.(*routerShard).play",           // 1
		"fantasticjoules/internal/device.(*Router).Step",                // 2
		"math/rand.(*rngSource).Seed",                                   // 3
		"fantasticjoules/internal/units.Power.Watts",                    // 4
		"runtime.mallocgc",                                              // 5
		"runtime.gcAssistAlloc",                                         // 6
		"runtime.gcBgMarkWorker",                                        // 7
		"main.(*countSink).WriteChunk",                                  // 8
		"fantasticjoules/internal/hypnos.(*Planner).PlanStep",           // 9
		"fantasticjoules/internal/stats.Median",                         // 10
		"runtime.futex",                                                 // 11
		"fantasticjoules/internal/optimizer.(*Controller).Run.func1",    // 12
		"fantasticjoules/internal/experiments.(*Suite).Fig1",            // 13
		"fantasticjoules/internal/timeseries.(*Series).SmoothInto[...]", // 14
	}
	prof := &pb{}
	add := func(count uint64, locs ...uint64) {
		s := (&pb{}).bytes(1, packed(locs...)).bytes(2, packed(count, count*10_000_000))
		prof.bytes(2, s.b)
	}
	// The expected shares below (out of 20 samples) document the rules.
	add(4, 2, 1)    // device inside ispnet → device
	add(3, 3, 2, 1) // seeding inside device → math_rand
	add(2, 4, 1)    // units is transparent → ispnet
	add(1, 6, 5, 1) // mark assist from an ispnet allocation → runtime_gc
	add(2, 7)       // background marking → runtime_gc
	add(1, 8, 1)    // the benchmark's own sink, called from ispnet → ispnet
	add(2, 9, 12)   // planner under the controller → hypnos
	add(1, 10, 13)  // a repo package with no module of its own → other
	add(1, 11)      // no repo frame at all → other
	add(2, 14, 13)  // generic timeseries method → timeseries
	add(1, 100)     // inlined device frame in an ispnet location → device
	for id := uint64(1); id < uint64(len(funcs)); id++ {
		line := (&pb{}).varint(1, id).varint(2, 10)
		prof.bytes(4, (&pb{}).varint(1, id).bytes(4, line.b).b)
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id).b)
	}
	inner := (&pb{}).varint(1, 2).varint(2, 1)
	outer := (&pb{}).varint(1, 1).varint(2, 2)
	prof.bytes(4, (&pb{}).varint(1, 100).bytes(4, inner.b).bytes(4, outer.b).b)
	for _, s := range funcs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUAttributionSyntheticProfile(t *testing.T) {
	samples, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 11 {
		t.Fatalf("parsed %d samples, want 11", len(samples))
	}
	if got := samples[10].stack; !reflect.DeepEqual(got, []string{
		"fantasticjoules/internal/device.(*Router).Step",
		"fantasticjoules/internal/ispnet.(*routerShard).play",
	}) {
		t.Errorf("inlined location stack = %v, want innermost first", got)
	}
	shares := attribute(samples)
	want := map[string]float64{
		"device": 5, "math_rand": 3, "ispnet": 3, "runtime_gc": 3,
		"hypnos": 2, "timeseries": 2, "other": 2,
	}
	total := 0.0
	for _, m := range cpuModules {
		total += shares[m]
		if got, w := shares[m], want[m]/20; math.Abs(got-w) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", m, got, w)
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	prof := (&pb{}).bytes(6, []byte("runtime.main")).b
	if _, err := parseProfile(prof[:len(prof)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and per-layer
// metrics in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	var want []string
	for _, m := range layerMetrics() {
		want = append(want, m.name+" "+m.unit)
	}
	var got []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer:\n%v\nprogram prints:\n%v", got, want)
	}
}

// fakeRound is a workload round with trivial work: opsPerRound 1-ms-ish
// operations and an output that the test controls.
type fakeRound struct {
	output float64
	ops    int
}

func (f *fakeRound) run(tr *tracer, ops *[]interval) error {
	t := time.Now()
	for i := 0; i < f.ops; i++ {
		*ops = append(*ops, interval{t, t.Add(time.Duration(i%10) * time.Millisecond)})
	}
	return nil
}
func (f *fakeRound) layers(tr *tracer) error { return nil }
func (f *fakeRound) digest(d *digest)        { d.float(f.output) }
func (f *fakeRound) check(c *checker) error {
	c.expect(f.output >= 0, "output %v negative", f.output)
	return nil
}

func fakeWorkload(outputs func(round int) float64) *workload {
	return &workload{name: "fake", prepare: func(seed int64) (func(*tracer) (round, error), float64, error) {
		n := 0
		return func(*tracer) (round, error) {
			n++
			return &fakeRound{output: outputs(n), ops: 30}, nil
		}, 1000, nil
	}}
}

func TestBenchRunReportsEveryEndToEndMetric(t *testing.T) {
	var log bytes.Buffer
	b := &bench{w: fakeWorkload(func(int) float64 { return 1 }), seed: 1, seconds: 1e-3, log: &log}
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	// 30 ops per round: the run continues past its time to reach minOps.
	if !res.Correct || res.Failed != 0 || res.Attempted != 120+2 {
		t.Errorf("correct %v, attempted %d, failed %d; want true, 122, 0\n%s", res.Correct, res.Attempted, res.Failed, log.String())
	}
	for _, name := range []string{"setup_s", "run_s", "op_p50_ms", "op_p90_ms", "sim_router_steps_per_s", "peak_rss_mb"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("missing end-to-end metric %s", name)
		}
	}
	if len(res.Metrics) != 6 {
		t.Errorf("got %d metrics, want exactly the 6 end-to-end ones", len(res.Metrics))
	}
}

func TestBenchRunFailsUnstableOutput(t *testing.T) {
	var log bytes.Buffer
	b := &bench{w: fakeWorkload(func(n int) float64 { return float64(n) }), seed: 1, seconds: 1e-3, log: &log}
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("rounds with different outputs: correct %v, failed %d; want false, 1", res.Correct, res.Failed)
	}
}

func TestBenchTracedRunReportsEveryLayer(t *testing.T) {
	var log bytes.Buffer
	b := &bench{w: fakeWorkload(func(int) float64 { return 1 }), seed: 1, seconds: 1e-3, traced: true, log: &log}
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(layerMetrics()) {
		t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(layerMetrics()))
	}
	for _, m := range layerMetrics() {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("per-layer metric %s: %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
	}
}

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	k.work()
	if n := testing.AllocsPerRun(5, k.work); n != 0 {
		t.Errorf("reference work allocated %v times per quantum; it must not touch the heap", n)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if got := trimmedMean(xs, 0.1); got != 4.5 {
		t.Errorf("trimmedMean dropping one value at each end = %v, want 4.5", got)
	}
	if got := trimmedMean([]float64{3, 9}, 0.5); got != 6 {
		t.Errorf("trimmedMean never drops everything: got %v, want 6", got)
	}
	if !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Error("trimmedMean of nothing is not NaN")
	}
}

func TestHostClockSubtractsAndRescales(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two quanta, each twice the nominal time: the host runs at half speed.
	q := 2 * time.Duration(refNominal*1e9)
	quanta := []quantum{{at(100), at(100).Add(q)}, {at(200), at(200).Add(q)}}
	c := newHostClock(quanta)
	program, scaled := c.measure(interval{at(50), at(300)})
	want := 0.25 - 2*q.Seconds()
	if math.Abs(program-want) > 1e-12 || math.Abs(scaled-want/2) > 1e-12 {
		t.Errorf("250 ms holding two quanta: program %v, scaled %v; want %v, %v", program, scaled, want, want/2)
	}
	// An interval between the quanta holds none of them.
	if program, _ := c.measure(interval{at(110), at(190)}); math.Abs(program-0.08) > 1e-12 {
		t.Errorf("80 ms between quanta: program %v, want 0.08", program)
	}
	// Without quanta, program time is wall time.
	if program, _ := newHostClock(nil).measure(interval{at(0), at(30)}); math.Abs(program-0.03) > 1e-12 {
		t.Errorf("no quanta: program %v, want 0.03", program)
	}
}

func TestHostClockFollowsLocalSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 2·refNear quanta at nominal speed, then as many at a third of it.
	var quanta []quantum
	for i := 0; i < 4*refNear; i++ {
		d := time.Duration(refNominal * 1e9)
		if i >= 2*refNear {
			d *= 3
		}
		start := t0.Add(time.Duration(i) * refEvery)
		quanta = append(quanta, quantum{start, start.Add(d)})
	}
	c := newHostClock(quanta)
	if got := c.speed[0]; math.Abs(got-1) > 1e-12 {
		t.Errorf("speed before the first quanta %v, want 1", got)
	}
	if got := c.speed[len(c.speed)-1]; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("speed after the last quanta %v, want 1/3", got)
	}
}

func TestRefKernelSamples(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := newRefKernel()
	k.start()
	t0 := time.Now()
	for time.Since(t0) < 10*refEvery {
		runtime.Gosched()
	}
	iv := interval{t0, time.Now()}
	c := k.halt()
	if len(c.quanta) == 0 {
		t.Fatal("the sampler ran no quantum in 10 periods")
	}
	program, scaled := c.measure(iv)
	if wall := iv.to.Sub(iv.from).Seconds(); program <= 0 || program >= wall || scaled <= 0 {
		t.Errorf("%v s of wall time with %d quanta: program %v, scaled %v", wall, len(c.quanta), program, scaled)
	}
	// A round too short for the sampler still gets one quantum.
	k.start()
	if c := k.halt(); len(c.quanta) != 1 {
		t.Errorf("an immediate halt left %d quanta, want 1", len(c.quanta))
	}
}
