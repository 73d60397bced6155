package ispnet

import (
	"testing"
	"time"

	"fantasticjoules/internal/meter"
)

// TestLoadAtZeroAlloc pins the per-interface load synthesis at zero
// allocations on both fleet kinds: the calibrated 107-router build
// (diurnal shape) and a generated 1k-router hierarchy (cohort shapes).
func TestLoadAtZeroAlloc(t *testing.T) {
	for _, routers := range []int{0, 1000} {
		cfg := quickCfg()
		cfg.Routers = routers
		n, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sink float64
		allocs := testing.AllocsPerRun(10, func() {
			for _, r := range n.Routers[:8] {
				for i := range r.Interfaces {
					for h := range 24 {
						ts := n.Config.Start.Add(time.Duration(h) * time.Hour)
						sink += n.LoadAt(&r.Interfaces[i], r, ts).BitsPerSecond()
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d routers: LoadAt allocates %v times per run, want 0", len(n.Routers), allocs)
		}
		if sink <= 0 {
			t.Errorf("%d routers: no load offered", len(n.Routers))
		}
	}
}

// TestShardPlayAllocsFlat pins the replay loop's allocations as
// independent of the window length: a warm shard's reset+play allocates
// only per-window setup (instrumented traces, the PSU export), never per
// step. Each window carries a sleep/wake pair, so the event-apply and
// replan path runs too. Both a plain and an Autopower-metered router are
// checked, at one and two weeks.
func TestShardPlayAllocsFlat(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 14 * 24 * time.Hour
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := n.stepGrid()
	plain := n.Routers[0]
	metered := n.AutopowerRouters()[0]
	if plain.Autopower {
		t.Fatal("router 0 is instrumented; pick another plain router")
	}
	for _, r := range []*Router{plain, metered} {
		var m *meter.Meter
		if r.Autopower {
			m = meter.New(n.meterSeed(0))
			if err := m.Attach(0, r.Device); err != nil {
				t.Fatal(err)
			}
		}
		iface := ""
		for _, itf := range r.Interfaces {
			if !itf.Spare {
				iface = itf.Name
				break
			}
		}
		start := n.Config.Start
		evs, err := n.compileEvents([]FleetEvent{
			{At: start.Add(6 * time.Hour), Router: r.Name, Op: OpSleep, Iface: iface},
			{At: start.Add(30 * time.Hour), Router: r.Name, Op: OpWake, Iface: iface},
		})
		if err != nil {
			t.Fatal(err)
		}
		var sh routerShard
		play := func(steps []time.Time) float64 {
			return testing.AllocsPerRun(5, func() {
				sh.reset(n, r, m, evs, steps)
				if err := sh.play(); err != nil {
					t.Fatal(err)
				}
				if sh.eventsApplied != len(evs) {
					t.Fatalf("applied %d events, want %d", sh.eventsApplied, len(evs))
				}
			})
		}
		week, twoWeeks := play(steps[:len(steps)/2]), play(steps)
		if week != twoWeeks {
			t.Errorf("%s (autopower=%v): reset+play allocates %v times over one week but %v over two; the step loop allocates",
				r.Name, r.Autopower, week, twoWeeks)
		}
		t.Logf("%s (autopower=%v): %v allocations per window", r.Name, r.Autopower, week)
	}
}
