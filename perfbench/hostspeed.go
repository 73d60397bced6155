package main

import (
	"math"
	"sort"
	"time"
)

// The host this benchmark runs on is a vCPU share of a machine whose
// speed drifts with what the machine's other tenants do: on a 2-vCPU VM
// the same fixed work has taken 40% longer in one minute than in the
// next, the two vCPUs drift apart from each other, and two sets of runs
// hours apart differed by more than any useful bound. So the benchmark
// runs on one P and measures the host's speed on that same P while the
// program works: a sampler goroutine runs a quantum of a fixed reference
// kernel, which calls nothing of the program, every refEvery. On one P
// the program waits while a quantum runs, so a timed interval's program
// time is its wall time minus the quanta inside it. Each stretch of
// program time between two quanta is then rescaled to a nominal host by
// the speed the quanta around it measured:
//
//	seconds × refNominal ÷ (trimmed mean of the nearby quanta)
//
// and an interval's rescaled time is the sum over its stretches. A
// change to the program moves its program time and leaves the reference
// alone, so it moves the rescaled times by the same share. The raw
// medians (program time, unscaled) are printed on the `wall` line.

// refNominal is the reference quantum's duration on the nominal host, in
// seconds: a rescaled time is what the work would take on a host that
// runs one quantum in exactly this long.
const refNominal = 0.002

// The kernel does what the simulation does most: hash-map updates,
// floating-point arithmetic over a series and a sort. Interleaved with
// whatif-107 operations and with stream replays on one thread, it
// tracked their drift best of the kernels tried (dependent reads over a
// 4 or 32 MiB table, pure arithmetic, an allocation loop, and this one),
// with an elasticity of 0.8–1.3. It allocates nothing, so it neither
// triggers nor pays for the program's garbage collection.
const (
	refKeys    = 1 << 12 // distinct map keys
	refUpdates = 1 << 15 // map updates per quantum
	refSeries  = 1 << 13 // series length
)

// refEvery is the sampler's period: quanta take about a tenth of the P.
const refEvery = 20 * time.Millisecond

// The speed for a stretch is the trimmed mean of the refNear quanta on
// either side of it (about 0.2 s of the host), without the refTrim share
// at each end: the mean follows the slowdown integrated over time, as
// program time does, and the trim drops quanta the OS interrupted.
const (
	refNear = 5
	refTrim = 0.1
)

// refKernel is the reference work, with its own preallocated state, and
// the quanta its sampler has timed.
type refKernel struct {
	m      map[uint64]float64
	series []float64
	sink   float64

	quanta []quantum // written by the sampler; read once it stopped
	stop   chan struct{}
	done   chan struct{}
}

// quantum is one timed run of the reference work.
type quantum struct{ start, end time.Time }

func (q quantum) seconds() float64 { return q.end.Sub(q.start).Seconds() }

func newRefKernel() *refKernel {
	return &refKernel{m: make(map[uint64]float64, refKeys), series: make([]float64, refSeries)}
}

// work is one fixed unit of reference work.
func (k *refKernel) work() {
	clear(k.m) // keeps the map's storage
	x := uint64(1)
	for i := 0; i < refUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.m[x>>52] += float64(i)
	}
	for i := range k.series {
		k.series[i] = math.Sin(float64(i))
	}
	sort.Float64s(k.series)
	k.sink += float64(len(k.m)) + k.series[refSeries/2]
}

// start begins sampling; the quanta of earlier rounds are dropped.
func (k *refKernel) start() {
	k.quanta = k.quanta[:0]
	k.stop, k.done = make(chan struct{}), make(chan struct{})
	go k.sample()
}

func (k *refKernel) sample() {
	defer close(k.done)
	t := time.NewTicker(refEvery)
	defer t.Stop()
	for {
		select {
		case <-k.stop:
			return
		case <-t.C:
			q := quantum{start: time.Now()}
			k.work()
			q.end = time.Now()
			k.quanta = append(k.quanta, q)
		}
	}
}

// halt stops sampling, waits for the sampler to end and returns the
// clock its quanta define.
func (k *refKernel) halt() *hostClock {
	close(k.stop)
	<-k.done
	if len(k.quanta) == 0 { // a round shorter than refEvery
		q := quantum{start: time.Now()}
		k.work()
		q.end = time.Now()
		k.quanta = append(k.quanta, q)
	}
	return newHostClock(k.quanta)
}

// interval is a wall-clock interval of the program's work: one
// operation, set-up or run.
type interval struct{ from, to time.Time }

// hostClock turns wall intervals into program time and rescaled time.
// Stretch i is the program time before quantum i (stretch len(quanta)
// the time after the last), at speed[i].
type hostClock struct {
	quanta []quantum
	speed  []float64 // nominal seconds per program second
}

func newHostClock(quanta []quantum) *hostClock {
	c := &hostClock{quanta: quanta, speed: make([]float64, len(quanta)+1)}
	qs := make([]float64, len(quanta))
	for i, q := range quanta {
		qs[i] = q.seconds()
	}
	for i := range c.speed {
		lo, hi := max(i-refNear, 0), min(i+refNear, len(qs))
		c.speed[i] = refNominal / trimmedMean(qs[lo:hi], refTrim)
	}
	return c
}

// measure returns an interval's program time and rescaled time, in
// seconds.
func (c *hostClock) measure(iv interval) (program, scaled float64) {
	from := iv.from
	for i := 0; i <= len(c.quanta); i++ {
		to := iv.to
		if i < len(c.quanta) {
			q := c.quanta[i]
			if q.end.Before(from) || q.end.Equal(from) {
				continue // the stretch before q ends before the interval
			}
			if q.start.Before(to) {
				to = q.start
			}
		}
		if to.After(from) {
			d := to.Sub(from).Seconds()
			program += d
			scaled += d * c.speed[i]
		}
		if i == len(c.quanta) || !c.quanta[i].end.Before(iv.to) {
			break
		}
		from = c.quanta[i].end
	}
	return program, scaled
}
