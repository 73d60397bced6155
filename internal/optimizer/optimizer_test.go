package optimizer_test

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/optimizer"
	"fantasticjoules/internal/telemetry"
)

var start = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

func quickCfg() ispnet.Config {
	return ispnet.Config{
		Seed:          42,
		Duration:      3 * 24 * time.Hour,
		SNMPStep:      15 * time.Minute,
		AutopowerStep: 5 * time.Minute,
	}
}

// topoFor builds the controller's observation plane: topology and
// traffic from a pristine build of the config, so the observed load
// model is independent of any actuation on a retained fleet.
func topoFor(t testing.TB, cfg ispnet.Config) (hypnos.Topology, hypnos.TrafficFunc) {
	t.Helper()
	pristine, err := ispnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo, traffic, err := hypnos.FromNetwork(pristine)
	if err != nil {
		t.Fatal(err)
	}
	return topo, traffic
}

// rig builds a retained fleet plus the observation plane and applies a
// scenario's environment events to the baseline, through the package's
// own Rig so the tests exercise the same derivation the artifacts use.
func rig(t testing.TB, cfg ispnet.Config, sc *optimizer.Scenario) (*ispnet.Fleet, hypnos.Topology, hypnos.TrafficFunc) {
	t.Helper()
	r, err := optimizer.NewRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(sc); err != nil {
		t.Fatal(err)
	}
	return r.Fleet, r.Topo, r.Traffic
}

func TestNewValidation(t *testing.T) {
	cfg := quickCfg()
	f, topo, traffic := rig(t, cfg, nil)
	util := optimizer.DefaultMaxUtilization
	if _, err := optimizer.New(nil, topo, traffic, optimizer.Config{Start: start, MaxUtilization: util}); err == nil {
		t.Error("nil fleet accepted")
	}
	if _, err := optimizer.New(f, topo, nil, optimizer.Config{Start: start, MaxUtilization: util}); err == nil {
		t.Error("nil traffic accepted")
	}
	if _, err := optimizer.New(f, topo, traffic, optimizer.Config{MaxUtilization: util}); err == nil {
		t.Error("zero start accepted")
	}
	if _, err := optimizer.New(f, hypnos.Topology{}, traffic, optimizer.Config{Start: start, MaxUtilization: util}); err == nil {
		t.Error("empty topology accepted")
	}

	// The zero-value footgun: ratio knobs the run consumes must be set
	// explicitly — non-positive values are rejected with the sentinel, not
	// silently replaced by the paper defaults.
	for name, bad := range map[string]optimizer.Config{
		"zero MaxUtilization":        {Start: start},
		"negative MaxUtilization":    {Start: start, MaxUtilization: -0.5},
		"PSUShed without PSUMaxLoad": {Start: start, MaxUtilization: util, PSUShed: true},
		"negative PSUMaxLoad":        {Start: start, MaxUtilization: util, PSUShed: true, PSUMaxLoad: -1},
		"negative Window":            {Start: start, MaxUtilization: util, Window: -time.Hour},
		"negative Step":              {Start: start, MaxUtilization: util, Step: -time.Minute},
	} {
		_, err := optimizer.New(f, topo, traffic, bad)
		if !errors.Is(err, optimizer.ErrNonPositiveConfig) {
			t.Errorf("%s: err = %v, want ErrNonPositiveConfig", name, err)
		}
	}
	// PSUMaxLoad is only consumed when PSUShed is on: zero without the
	// pass is fine.
	if _, err := optimizer.New(f, topo, traffic, optimizer.Config{Start: start, MaxUtilization: util}); err != nil {
		t.Errorf("PSUMaxLoad unset without PSUShed rejected: %v", err)
	}
}

// TestStaticTraceMatchesHypnos pins the epsilon-closeness requirement at
// epsilon zero: with no faults and no hysteresis, the controller's
// realized schedule is the §8 hypnos schedule — both drive the same
// Planner over the same observed traffic.
func TestStaticTraceMatchesHypnos(t *testing.T) {
	cfg := quickCfg()
	f, topo, traffic := rig(t, cfg, nil)
	window := 2 * 24 * time.Hour

	c, err := optimizer.New(f, topo, traffic, optimizer.Config{
		Start: start, Window: window, MaxUtilization: optimizer.DefaultMaxUtilization,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	sched, err := hypnos.Run(topo, traffic, hypnos.Options{Start: start, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != len(sched.Sleeping) {
		t.Fatalf("controller took %d steps, hypnos %d", len(rep.Steps), len(sched.Sleeping))
	}
	for i, s := range rep.Steps {
		if !reflect.DeepEqual(s.Sleeping, sched.Sleeping[i]) {
			t.Fatalf("step %d: controller sleeps %v, hypnos %v", i, s.Sleeping, sched.Sleeping[i])
		}
	}

	if rep.GuardrailViolations != 0 {
		t.Errorf("guardrail violations = %d, want 0", rep.GuardrailViolations)
	}
	if rep.Actions == 0 {
		t.Error("controller committed no actions")
	}
	if rep.SleepSavedJoules <= 0 {
		t.Errorf("realized sleep savings = %v, want > 0", rep.SleepSavedJoules)
	}
}

// TestSameSeedSameTrace is the determinism acceptance criterion: two
// full runs — fresh fleets, same seed, same fault storm — produce
// identical decision traces and bit-identical realized joules.
func TestSameSeedSameTrace(t *testing.T) {
	run := func() *optimizer.Report {
		cfg := quickCfg()
		topo0, _ := topoFor(t, cfg)
		sc := optimizer.FaultStorm(topo0, 7, start, cfg.Duration)
		f, topo, traffic := rig(t, cfg, &sc)
		c, err := optimizer.New(f, topo, traffic, optimizer.Config{
			Start: start, Window: 2 * 24 * time.Hour, MinDwellSteps: 4, Down: sc.Down,
			MaxUtilization: optimizer.DefaultMaxUtilization,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatal("decision traces differ between same-seed runs")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("committed event schedules differ between same-seed runs")
	}
	if math.Float64bits(a.SleepSavedJoules.Joules()) != math.Float64bits(b.SleepSavedJoules.Joules()) {
		t.Fatalf("realized joules differ: %v vs %v", a.SleepSavedJoules, b.SleepSavedJoules)
	}
}

// TestColdReplayMatchesIncremental is the replay property extended to
// optimizer-generated events: the controller's whole committed schedule
// (scenario faults, sleeps, wakes, PSU sheds), replayed cold through
// SimulateWithEvents, reproduces the incrementally-resimulated dataset
// bit for bit.
func TestColdReplayMatchesIncremental(t *testing.T) {
	cfg := quickCfg()
	topo0, _ := topoFor(t, cfg)
	sc := optimizer.FaultStorm(topo0, 11, start, cfg.Duration)
	f, topo, traffic := rig(t, cfg, &sc)
	c, err := optimizer.New(f, topo, traffic, optimizer.Config{
		Start: start, Window: 2 * 24 * time.Hour, MinDwellSteps: 4, Down: sc.Down,
		MaxUtilization: optimizer.DefaultMaxUtilization,
		PSUShed:        true, PSUMaxLoad: optimizer.DefaultPSUMaxLoad,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	cold, err := ispnet.SimulateWithEvents(cfg, f.ExtraEvents())
	if err != nil {
		t.Fatal(err)
	}
	if err := ispnet.DiffDatasets(cold, f.Dataset()); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplaysOncePerRead pins when the controller pays for a fleet
// replay: control steps only queue their actuation, and Run replays the
// accumulated dirty set once before each read of the fleet's dataset —
// after the window-end wake-all, and after the PSU shed when one shed
// anything. A run that actuates nothing replays nothing and hands back
// the baseline dataset itself.
func TestRunReplaysOncePerRead(t *testing.T) {
	counter := telemetry.Default().Counter("optimizer_resimulates_total", "")
	cfg := quickCfg()
	topo0, _ := topoFor(t, cfg)
	sc := optimizer.FaultStorm(topo0, 11, start, cfg.Duration)
	allDown := func(int, time.Time) bool { return true }

	for _, tc := range []struct {
		name      string
		down      func(int, time.Time) bool
		psuShed   bool
		wantResim int
	}{
		{"storm+shed", sc.Down, true, 2},
		{"storm", sc.Down, false, 1},
		{"idle", allDown, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, topo, traffic := rig(t, cfg, &sc)
			baseline := f.Dataset()
			c, err := optimizer.New(f, topo, traffic, optimizer.Config{
				Start: start, Window: 2 * 24 * time.Hour, MinDwellSteps: 4, Down: tc.down,
				MaxUtilization: optimizer.DefaultMaxUtilization,
				PSUShed:        tc.psuShed, PSUMaxLoad: optimizer.DefaultPSUMaxLoad,
			})
			if err != nil {
				t.Fatal(err)
			}
			before := counter.Value()
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			actuating := 0
			for _, st := range rep.Steps {
				if len(st.Slept)+len(st.Woke) > 0 {
					actuating++
				}
			}
			if tc.wantResim > 0 && actuating < 2 {
				t.Fatalf("only %d actuating steps; the case needs several", actuating)
			}
			if tc.psuShed && rep.PSUsShed == 0 {
				t.Fatal("no PSUs shed")
			}
			if rep.Resimulates != tc.wantResim {
				t.Errorf("Resimulates = %d over %d actuating steps, want %d", rep.Resimulates, actuating, tc.wantResim)
			}
			if got := counter.Value() - before; got != uint64(rep.Resimulates) {
				t.Errorf("optimizer_resimulates_total moved %d, Report.Resimulates = %d", got, rep.Resimulates)
			}
			if n := f.DirtyRouters(); n != 0 {
				t.Errorf("%d routers left dirty after Run", n)
			}
			if rep.GuardrailViolations != 0 {
				t.Errorf("guardrail violations = %d, want 0", rep.GuardrailViolations)
			}
			if tc.wantResim == 0 {
				if rep.Actions != 0 || rep.PSUsShed != 0 {
					t.Fatalf("idle run actuated: %d actions, %d PSUs shed", rep.Actions, rep.PSUsShed)
				}
				if f.Dataset() != baseline {
					t.Error("idle run replaced the baseline dataset")
				}
				if rep.FinalJoules != rep.BaselineJoules {
					t.Errorf("idle run: final %v, baseline %v", rep.FinalJoules, rep.BaselineJoules)
				}
			}
		})
	}

	t.Run("pending", func(t *testing.T) {
		f, topo, traffic := rig(t, cfg, nil)
		c, err := optimizer.New(f, topo, traffic, optimizer.Config{
			Start: start, Window: 24 * time.Hour, MaxUtilization: optimizer.DefaultMaxUtilization,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := topo.Links[0]
		if err := f.Perturb(ispnet.FleetEvent{At: start, Router: l.A.Router, Op: ispnet.OpSleep, Iface: l.A.Interface}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err == nil {
			t.Error("Run accepted a fleet with pending perturbations; its baseline would be stale")
		}
	})
}

// TestPSUShedSavesEnergy checks the §9.3.4 provisioning pass: redundant
// PSUs are shed where the peak wall draw fits fewer units, and the
// realized wall power drops (fewer, better-loaded supplies convert more
// efficiently).
func TestPSUShedSavesEnergy(t *testing.T) {
	cfg := quickCfg()
	f, topo, traffic := rig(t, cfg, nil)
	c, err := optimizer.New(f, topo, traffic, optimizer.Config{
		Start: start, Window: 24 * time.Hour, MaxUtilization: optimizer.DefaultMaxUtilization,
		PSUShed: true, PSUMaxLoad: optimizer.DefaultPSUMaxLoad,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PSUsShed == 0 {
		t.Fatal("no PSUs shed on the synthetic fleet")
	}
	if rep.PSUSavedJoules <= 0 {
		t.Errorf("PSU shed saved %v, want > 0", rep.PSUSavedJoules)
	}
	if rep.FinalJoules >= rep.SleepJoules {
		t.Errorf("final %v not below sleep-only %v", rep.FinalJoules, rep.SleepJoules)
	}
}
