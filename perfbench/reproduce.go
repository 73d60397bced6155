package main

import (
	"fmt"
	"math"
	"time"

	"fantasticjoules/internal/datasheet"
	"fantasticjoules/internal/experiments"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/units"
)

// reproduce-107 is what a researcher runs to regenerate the paper: a
// cold suite pays the calibrated 9-week replay (setup), then every
// artifact of `joules run all` is computed in that order (run), minus the
// scale, optscale and ablations studies that other workloads or no user
// path need. Each artifact that computes from data is one operation, and
// its latency is how long after the round's run began it is done: the
// wait a researcher running `joules run all` has for it. (The artifacts'
// own times span 0.1 ms to 3 s, so the median of those falls between two
// millisecond-scale artifacts and moves by half from run to run; the
// experiments.<artifact>_ms layers give them one by one.)
var reproduceWorkload = &workload{
	name: "reproduce-107",
	prepare: func(seed int64) (func(*tracer) (round, error), float64, error) {
		cfg := experiments.New(seed).DatasetConfig()
		newRound := func(tr *tracer) (round, error) {
			s := experiments.New(seed)
			if _, err := s.Dataset(); err != nil {
				return nil, err
			}
			return &reproduceRound{s: s}, nil
		}
		return newRound, studySteps(cfg), nil
	},
}

// studySteps is a config's study size in routers × SNMP steps.
func studySteps(cfg ispnet.Config) float64 {
	routers := cfg.Routers
	if routers == 0 {
		routers = ispnet.NumRouters
	}
	window, step := cfg.Duration, cfg.SNMPStep
	if window == 0 {
		window = 9 * 7 * 24 * time.Hour
	}
	if step == 0 {
		step = 5 * time.Minute
	}
	return float64(routers) * float64(window/step)
}

type reproduceRound struct {
	s *experiments.Suite

	fig1      experiments.Fig1Result
	fig2a     []datasheet.EfficiencyPoint
	fig2b     experiments.Fig2bResult
	table1    []datasheet.AccuracyRow
	table2    []experiments.ModelRow
	table6    []experiments.ModelRow
	fig4      []experiments.Fig4Row
	fig9      []experiments.Fig9Row
	fig5      experiments.Fig5Result
	fig6      experiments.Fig6Result
	table3    experiments.Table3Result
	table4    experiments.Table4Result
	table5    []experiments.Table5Row
	fig8      experiments.Fig8Result
	section7  experiments.Section7Result
	section8  experiments.Section8Result
	online    experiments.Section8OnlineResult
	baselines []experiments.BaselineRow
}

// reproduceArtifacts are the artifacts in `joules run all` order.
var reproduceArtifacts = []string{
	"fig1", "fig2a", "fig2b", "table1", "table2", "table6", "fig4", "fig9",
	"fig5", "fig6", "table3", "table4", "table5", "fig8", "section7",
	"section8", "section8online", "baselines",
}

func (r *reproduceRound) compute(name string) (err error) {
	s := r.s
	switch name {
	case "fig1":
		r.fig1, err = s.Fig1()
	case "fig2a":
		r.fig2a = s.Fig2a()
	case "fig2b":
		r.fig2b, err = s.Fig2b()
	case "table1":
		r.table1, err = s.Table1()
	case "table2":
		r.table2, err = s.Table2()
	case "table6":
		r.table6, err = s.Table6()
	case "fig4":
		r.fig4, err = s.Fig4()
	case "fig9":
		r.fig9, err = s.Fig9()
	case "fig5":
		r.fig5 = s.Fig5()
	case "fig6":
		r.fig6, err = s.Fig6()
	case "table3":
		r.table3, err = s.Table3()
	case "table4":
		r.table4, err = s.Table4()
	case "table5":
		r.table5 = s.Table5()
	case "fig8":
		r.fig8, err = s.Fig8()
	case "section7":
		r.section7, err = s.Section7()
	case "section8":
		r.section8, err = s.Section8()
	case "section8online":
		r.online, err = s.Section8Online()
	case "baselines":
		r.baselines, err = s.Baselines()
	default:
		err = fmt.Errorf("unknown artifact %q", name)
	}
	return err
}

// staticArtifacts return constant tables (the redrawn ASIC trend, the
// PSU curve constants, Table 5); they are computed in the round but are
// not operations, which compute from simulated or lab data.
var staticArtifacts = map[string]bool{"fig2a": true, "fig5": true, "table5": true}

func (r *reproduceRound) run(tr *tracer, ops *[]interval) error {
	start := time.Now()
	for _, name := range reproduceArtifacts {
		t0 := time.Now()
		if err := r.compute(name); err != nil {
			return err
		}
		ms := msSince(t0)
		if !staticArtifacts[name] {
			*ops = append(*ops, interval{start, time.Now()})
		}
		if tr != nil {
			tr.set("experiments."+name+"_ms", ms)
		}
	}
	return nil
}

func (r *reproduceRound) layers(tr *tracer) error {
	return probeFleet(tr, r.s.DatasetConfig())
}

// probeFleet times the calibrated fleet's two construction layers on
// their own: Build (topology and devices) and NewFleet (Build plus the
// first full replay).
func probeFleet(tr *tracer, cfg ispnet.Config) error {
	t0 := time.Now()
	if _, err := ispnet.Build(cfg); err != nil {
		return err
	}
	tr.set("ispnet.build_s", time.Since(t0).Seconds())
	t1 := time.Now()
	if _, err := ispnet.NewFleet(cfg); err != nil {
		return err
	}
	tr.set("ispnet.newfleet_s", time.Since(t1).Seconds())
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (r *reproduceRound) digest(d *digest) {
	d.series(r.fig1.Power)
	d.series(r.fig1.Traffic)
	d.float(r.fig1.PowerTrafficCorrelation)
	for _, p := range r.fig2a {
		d.float(p.Efficiency)
	}
	d.float(r.fig2b.Fit.Slope)
	d.float(r.fig2b.Fit.R2)
	for _, row := range r.table1 {
		d.str(row.Model)
		d.float(row.Overestimate)
	}
	for _, row := range append(append([]experiments.ModelRow(nil), r.table2...), r.table6...) {
		d.str(row.Router)
		d.float(row.PBase.Watts())
		d.float(row.Derived.PPort.Watts())
		d.float(row.Derived.EBit.Picojoules())
	}
	for _, row := range r.fig4 {
		d.float(row.ModelOffset.Watts())
		d.float(row.ModelShapeCorrelation)
		d.series(row.Prediction)
	}
	for _, row := range r.fig9 {
		d.float(row.ResidualRMSE.Watts())
	}
	for _, p := range r.fig6.All {
		d.float(p.Load)
		d.float(p.Efficiency)
	}
	for _, level := range sortedKeys(r.table3.MoreEfficient) {
		d.float(r.table3.MoreEfficient[level].Fraction)
		d.float(r.table3.Combined[level].Fraction)
	}
	d.float(r.table3.SinglePSU.Fraction)
	for i := range r.table4.K1 {
		d.float(r.table4.K1[i].Watts.Watts())
	}
	d.float(r.fig8.Bump.Watts())
	d.float(r.section7.TrafficShare)
	d.float(r.section7.TransceiverShare)
	d.float(r.section8.LowShare)
	d.float(r.section8.HighShare)
	d.int(r.online.Actions)
	d.int(r.online.Vetoes)
	d.int(r.online.Resimulates)
	d.float(r.online.RealizedSavedJoules.Joules())
	d.float(r.online.PSUSavedJoules.Joules())
	for _, row := range r.baselines {
		d.float(row.LabModelMAE.Watts())
		// The datasheet baseline sums a router's interface series in map
		// order, so its MAE varies in the last bits from suite to suite;
		// digest it to 9 significant digits until that order is fixed.
		d.approx(row.BaselineMAE.Watts(), 9)
	}
}

// check asserts the paper's bands, as the experiments tests state them
// for seed 42, except where their seed sweep states a wider band.
func (r *reproduceRound) check(c *checker) error {
	c.within("fig1 mean power (W)", r.fig1.Power.Mean(), 20000, 23000)
	c.within("fig1 mean traffic (bit/s)", r.fig1.Traffic.Mean(), 0.4e12, 1.6e12)
	c.within("fig1 power-traffic correlation", r.fig1.PowerTrafficCorrelation, -0.5, 0.5)

	c.expect(len(r.fig2a) >= 5, "fig2a has %d points, want >= 5", len(r.fig2a))
	c.expect(r.fig2b.Plotted >= 50, "fig2b plots %d points, want >= 50", r.fig2b.Plotted)
	c.expect(r.fig2b.Fit.Slope < 0, "fig2b slope %g, want negative", r.fig2b.Fit.Slope)
	c.within("fig2b R²", r.fig2b.Fit.R2, 0, 0.5)

	under := map[string]bool{}
	for _, row := range r.table1 {
		if row.Overestimate < 0 {
			under[row.Model] = true
		}
	}
	c.expect(len(r.table1) == 8, "table1 has %d rows, want 8", len(r.table1))
	c.expect(len(under) == 2 && under["8201-32FH"] && under["8201-24H8FH"],
		"table1 underestimates %v, want exactly the two 8000-series", sortedKeys(under))

	c.expect(len(r.table2) == 7, "table2 has %d rows, want 7", len(r.table2))
	for _, row := range r.table2 {
		if row.Published == nil {
			c.expect(false, "table2 %s %v has no published reference", row.Router, row.Key)
			continue
		}
		c.within("table2 "+row.Router+" Pbase error", relErr(row.PBase, row.PBasePublished), 0, 0.20)
		if row.Key.Speed >= 10*units.GigabitPerSecond {
			c.within("table2 "+row.Router+" Ebit error",
				relErrF(row.Derived.EBit.Picojoules(), row.Published.EBit.Picojoules()), 0, 0.25)
		}
	}
	c.expect(len(r.table6) == 9, "table6 has %d rows, want 9", len(r.table6))
	for _, row := range r.table6 {
		c.expect(row.PBase > 0, "table6 %s Pbase %v, want positive", row.Router, row.PBase)
	}

	c.expect(len(r.fig4) == 3, "fig4 has %d rows, want 3", len(r.fig4))
	for _, row := range r.fig4 {
		// The cross-seed bands of the experiments tests: the model
		// underestimates (the seed-42 band of 0.5–30 W does not hold on
		// every seed; seed 104 gives 31.8 W on the 8201-32FH), and the
		// N540X's traffic signal is ≈0.1 W against meter noise, so its
		// correlation is fragile on any seed.
		c.expect(row.ModelOffset > 0, "fig4 %s model offset %.1f W, want positive", row.Model, row.ModelOffset.Watts())
		minCorr := 0.5
		if row.Model == "N540X-8Z16G-SYS-A" {
			minCorr = 0.35
		}
		c.within("fig4 "+row.Model+" shape correlation", row.ModelShapeCorrelation, minCorr, 1)
	}
	c.expect(len(r.fig9) == 3, "fig9 has %d rows, want 3", len(r.fig9))
	for _, row := range r.fig9 {
		c.within("fig9 "+row.Model+" residual RMSE (W)", row.ResidualRMSE.Watts(), 0, 3)
	}

	c.expect(len(r.fig5.PFE600) >= 5 && len(r.fig5.SetPoints) == 5,
		"fig5 has %d curve points and %d standards, want >= 5 and 5", len(r.fig5.PFE600), len(r.fig5.SetPoints))
	c.expect(len(r.fig6.All) >= 180, "fig6 has %d points, want >= 180", len(r.fig6.All))
	lo, hi := 1.0, 0.0
	for _, p := range r.fig6.All {
		lo, hi = min(lo, p.Efficiency), max(hi, p.Efficiency)
	}
	c.within("fig6 worst PSU efficiency", lo, 0, 0.70)
	c.within("fig6 best PSU efficiency", hi, 0.93, 1)

	c.within("table3 Titanium saving", r.table3.MoreEfficient["Titanium"].Fraction, 0.03, 0.12)
	c.within("table3 single-PSU saving", r.table3.SinglePSU.Fraction, 0.015, 0.09)
	c.within("table3 Titanium combined saving", r.table3.Combined["Titanium"].Fraction, 0.05, 0.15)
	k := len(r.table4.K1)
	c.expect(k == 6 && r.table4.K1[0].Watts > 0 && r.table4.K1[k-1].Watts < 0,
		"table4 k=1 row must save at 250 W and cost at 2700 W")
	c.expect(len(r.table5) == 4, "table5 has %d rows, want 4", len(r.table5))

	c.within("fig8 bump (W)", r.fig8.Bump.Watts(), 35, 55)
	c.within("fig8 relative bump", r.fig8.RelativeBump, 0.08, 0.16)
	c.within("section7 traffic share", r.section7.TrafficShare, 0, 0.005)
	c.within("section7 transceiver share", r.section7.TransceiverShare, 0.05, 0.15)
	c.within("section8 low share", r.section8.LowShare, 0.001, 0.012)
	c.within("section8 high share", r.section8.HighShare, 0.005, 0.035)
	c.within("section8 external interface share", r.section8.ExternalIfaceShare, 0.40, 0.62)

	c.expect(r.online.GuardrailViolations == 0, "section8online guardrail violations %d, want 0", r.online.GuardrailViolations)
	c.expect(r.online.Actions > 0, "section8online took no actions")
	c.expect(r.online.WithinEnvelope, "section8online realized %.1f W outside [%.1f, %.1f] W",
		r.online.RealizedSavedWatts.Watts(), r.online.EnvelopeLow.Watts(), r.online.EnvelopeHigh.Watts())

	c.expect(len(r.baselines) == 3, "baselines has %d rows, want 3", len(r.baselines))
	for _, row := range r.baselines {
		c.expect(row.LabModelMAE < row.BaselineMAE && row.BaselineMAE.Watts() >= 10,
			"baselines %s: lab MAE %.1f W must beat datasheet MAE %.1f W (>= 10 W)",
			row.Model, row.LabModelMAE.Watts(), row.BaselineMAE.Watts())
	}
	return nil
}

func relErr(got, want units.Power) float64 { return relErrF(got.Watts(), want.Watts()) }

func relErrF(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
