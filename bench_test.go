package fantasticjoules

// Benchmarks regenerating every table and figure of the paper plus the
// design-choice ablations DESIGN.md calls out. Each benchmark reports the
// time to (re)compute one artifact; the shared suite caches the expensive
// substrates (the fleet simulation and the lab derivations) after the
// first run, so steady-state numbers measure the analysis itself. Run
// with:
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured values.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fantasticjoules/internal/experiments"
	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/stats"
	"fantasticjoules/internal/units"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite = experiments.New(42) })
	return benchSuite
}

func BenchmarkFig1NetworkPowerTraffic(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2aASICTrend(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if pts := s.Fig2a(); len(pts) == 0 {
			b.Fatal("empty trend")
		}
	}
}

func BenchmarkFig2bDatasheetTrend(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasheetAccuracy(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ModelDerivation(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6AdditionalModels(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Validation(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9OffsetCorrected(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5EfficiencyCurve(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if res := s.Fig5(); len(res.PFE600) == 0 {
			b.Fatal("empty curve")
		}
	}
}

func BenchmarkFig6PSUScatter(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3PSUSavings(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4RightSizing(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5PortTypePower(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if rows := s.Table5(); len(rows) != 4 {
			b.Fatal("bad table5")
		}
	}
}

func BenchmarkFig8OSUpgrade(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection7Insights(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Section7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection8LinkSleeping(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Section8(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationDynamicTerms(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationDynamicTerms(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSmoothing(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationSmoothing(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSweepDensity(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationSweepDensity(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental recomputation (DESIGN.md §11) ---

// BenchmarkFig1Incremental times the perturb-and-remeasure loop the
// incremental path exists for: scale one router's offered load, then
// re-request Fig. 1. Only the dirty router's shard replays and only the
// artifacts downstream of the dataset recompute — compare against
// BenchmarkFig1NetworkPowerTraffic's cold first iteration. A dedicated
// suite keeps the perturbations out of the shared benchmark suite.
func BenchmarkFig1Incremental(b *testing.B) {
	s := experiments.New(42)
	if _, err := s.Fig1(); err != nil {
		b.Fatal(err)
	}
	ds, err := s.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	router := ds.Network.AutopowerRouters()[0].Name
	at := ds.Network.Config.Start.Add(21 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate scale-up and the exact inverse so the merged schedule
		// stays bounded while each iteration dirties exactly one router.
		factor := 1.5
		if i%2 == 1 {
			factor = 1 / 1.5
		}
		if err := s.Perturb(ispnet.FleetEvent{
			At: at, Router: router, Op: ispnet.OpScaleLoad, Factor: factor,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResimulatePerturbed times the fleet layer alone: Perturb +
// Resimulate with 1 and 10 dirty routers out of the calibrated fleet at
// the suite's dataset resolution, plus 1 dirty router out of a generated
// 1k-router hierarchical fleet (at the optimize-scale artifact's hourly
// resolution). The replay cost should scale with the dirty count plus
// one fleet-order add of every clean router's retained columns.
func BenchmarkResimulatePerturbed(b *testing.B) {
	cases := []struct {
		name string
		cfg  ispnet.Config
		// dirty routers perturbed per iteration.
		dirty int
	}{
		{"routers=1", ispnet.Config{
			Seed:          42,
			SNMPStep:      15 * time.Minute,
			AutopowerStep: 5 * time.Minute,
		}, 1},
		{"routers=10", ispnet.Config{
			Seed:          42,
			SNMPStep:      15 * time.Minute,
			AutopowerStep: 5 * time.Minute,
		}, 10},
		{"routers=1k", ispnet.Config{
			Seed:     42,
			Routers:  1000,
			Duration: 7 * 24 * time.Hour,
			SNMPStep: time.Hour,
		}, 1},
	}
	for _, tc := range cases {
		dirty := tc.dirty
		b.Run(tc.name, func(b *testing.B) {
			f, err := ispnet.NewFleet(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			routers := f.Network().Routers
			if dirty > len(routers) {
				b.Fatalf("fleet has %d routers, need %d", len(routers), dirty)
			}
			at := f.Network().Config.Start.Add(f.Network().Config.Duration / 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				factor := 1.5
				if i%2 == 1 {
					factor = 1 / 1.5
				}
				evs := make([]ispnet.FleetEvent, dirty)
				for j := 0; j < dirty; j++ {
					evs[j] = ispnet.FleetEvent{
						At: at, Router: routers[j].Name, Op: ispnet.OpScaleLoad, Factor: factor,
					}
				}
				if err := f.Perturb(evs...); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Resimulate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerStep times one closed-loop control step at the
// optimizer's granularity: the greedy decision plus SLA guardrail
// (hypnos.Planner.PlanStep over the full 169-link backbone) followed by
// actuating a one-link perturbation through the incremental fleet path
// (Perturb + Resimulate of the two endpoint routers). This is the cost
// the online controller pays per hour of simulated time when one link
// changes state; steps that decide "no change" skip the resimulate and
// cost only the PlanStep part.
func BenchmarkOptimizerStep(b *testing.B) {
	cfg := ispnet.Config{
		Seed:          42,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
	}
	f, err := ispnet.NewFleet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pristine, err := ispnet.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	topo, traffic, err := hypnos.FromNetwork(pristine)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := hypnos.NewPlanner(topo, hypnos.PlannerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	at := f.Network().Config.Start.Add(21 * 24 * time.Hour)
	loads := make([]float64, len(topo.Links))
	for i, l := range topo.Links {
		loads[i] = traffic(l.ID, at).BitsPerSecond()
	}
	// One settling step: the first PlanStep on an idle backbone makes ~60
	// sleep decisions; steady-state steps mostly revalidate.
	planner.PlanStep(loads, nil)
	link := topo.Links[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner.PlanStep(loads, nil) // decision + guardrail
		// Alternate sleep and wake of one link so each iteration is a
		// 1-action perturbation dirtying exactly the two endpoint routers.
		op := ispnet.OpSleep
		if i%2 == 1 {
			op = ispnet.OpWake
		}
		if err := f.Perturb(
			ispnet.FleetEvent{At: at, Router: link.A.Router, Op: op, Iface: link.A.Interface},
			ispnet.FleetEvent{At: at, Router: link.B.Router, Op: op, Iface: link.B.Interface},
		); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Resimulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerStep1k is BenchmarkOptimizerStep on a generated
// 1k-router hierarchical fleet: the PlanStep decision covers ~1.5k
// links and the actuation resimulates two dirty routers (the fold of
// the other ~998 routers' retained columns included). This is the
// per-step cost of `joules -optimize -routers 1000`.
func BenchmarkOptimizerStep1k(b *testing.B) {
	cfg := ispnet.Config{
		Seed:     42,
		Routers:  1000,
		Duration: 7 * 24 * time.Hour,
		SNMPStep: time.Hour,
	}
	f, err := ispnet.NewFleet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pristine, err := ispnet.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	topo, traffic, err := hypnos.FromNetwork(pristine)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := hypnos.NewPlanner(topo, hypnos.PlannerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	at := f.Network().Config.Start.Add(f.Network().Config.Duration / 3)
	loads := make([]float64, len(topo.Links))
	for i, l := range topo.Links {
		loads[i] = traffic(l.ID, at).BitsPerSecond()
	}
	planner.PlanStep(loads, nil)
	link := topo.Links[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner.PlanStep(loads, nil)
		op := ispnet.OpSleep
		if i%2 == 1 {
			op = ispnet.OpWake
		}
		if err := f.Perturb(
			ispnet.FleetEvent{At: at, Router: link.A.Router, Op: op, Iface: link.A.Interface},
			ispnet.FleetEvent{At: at, Router: link.B.Router, Op: op, Iface: link.B.Interface},
		); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Resimulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core operation microbenchmarks ---

func BenchmarkModelPredict(b *testing.B) {
	m, err := PublishedModel("NCS-55A1-24H")
	if err != nil {
		b.Fatal(err)
	}
	key := model.ProfileKey{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * units.GigabitPerSecond}
	cfg := model.Config{}
	for i := 0; i < 24; i++ {
		cfg.Interfaces = append(cfg.Interfaces, model.Interface{
			Profile: key, TransceiverPresent: true, AdminUp: true, OperUp: true,
			Bits: 10 * units.GigabitPerSecond, Packets: 1e6,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictPower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredictParallel drives PredictPower from GOMAXPROCS
// goroutines against one shared model — the read path a concurrent
// monitoring service exercises. A fully assembled Model is immutable, so
// the benchmark also acts as a race check when run with -race.
//
// The workers are spawned (and parked on a start channel) before the
// timer resets. The earlier b.RunParallel version reported 720 B / 8
// allocs per op at -benchtime=1x: that was RunParallel's own pool setup —
// the testing.PB bookkeeping and worker goroutines it allocates inside
// the timed region — divided by N=1, not an allocation in PredictPower
// (which is 0-alloc at any serial benchtime). Pre-spawning keeps the
// measured region to pure PredictPower calls, so the parallel benchmark
// reports 0 allocs/op like the serial one at every benchtime.
func BenchmarkModelPredictParallel(b *testing.B) {
	m, err := PublishedModel("NCS-55A1-24H")
	if err != nil {
		b.Fatal(err)
	}
	key := model.ProfileKey{Port: model.QSFP28, Transceiver: model.PassiveDAC, Speed: 100 * units.GigabitPerSecond}
	cfg := model.Config{}
	for i := 0; i < 24; i++ {
		cfg.Interfaces = append(cfg.Interfaces, model.Interface{
			Profile: key, TransceiverPresent: true, AdminUp: true, OperUp: true,
			Bits: 10 * units.GigabitPerSecond, Packets: 1e6,
		})
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > b.N {
		workers = b.N
	}
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	per, extra := b.N/workers, b.N%workers
	share := func(w int) int {
		n := per
		if w < extra {
			n++
		}
		return n
	}
	// Worker 0 is the benchmark goroutine itself: with one worker the
	// timed region then contains no parking at all (a blocked wg.Wait can
	// allocate its semaphore record inside the measurement).
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < share(w); i++ {
				if _, err := m.PredictPower(cfg); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	b.ResetTimer()
	close(start)
	for i := 0; i < share(0); i++ {
		if _, err := m.PredictPower(cfg); err != nil {
			errs[0] = err
			break
		}
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearRegression(b *testing.B) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.LinearRegression(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelDerivationEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := DeriveModel("Wedge100BF-32X", model.PassiveDAC, 100*units.GigabitPerSecond, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Model.PBase <= 0 {
			b.Fatal("bad derivation")
		}
	}
}

func BenchmarkAblationHypnosThreshold(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationHypnosThreshold(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinesComparison(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}
