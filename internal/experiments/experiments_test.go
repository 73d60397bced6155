package experiments

import (
	"math"
	"sync"
	"testing"
)

// The suite is expensive (fleet simulation + lab derivations); all tests
// share one instance.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite = New(42) })
	return suite
}

func TestFig1(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if mean := res.Power.Mean(); mean < 20000 || mean > 23000 {
		t.Errorf("fig1 power mean = %.0f W, want ≈21.5–22 kW", mean)
	}
	if tr := res.Traffic.Mean(); tr < 0.4e12 || tr > 1.6e12 {
		t.Errorf("fig1 traffic mean = %.2f Tbps", tr/1e12)
	}
	// §7: the power/traffic correlation is invisible at network scale —
	// the decommissioning steps and noise dominate any traffic effect.
	if c := res.PowerTrafficCorrelation; math.Abs(c) > 0.5 {
		t.Errorf("power–traffic correlation = %.2f, should be weak", c)
	}
}

func TestFig2(t *testing.T) {
	s := sharedSuite(t)
	asic := s.Fig2a()
	if len(asic) < 5 {
		t.Error("fig2a too small")
	}
	res, err := s.Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plotted < 50 {
		t.Errorf("fig2b points = %d", res.Plotted)
	}
	if res.Fit.Slope >= 0 {
		t.Errorf("fig2b slope = %v, want mildly negative", res.Fit.Slope)
	}
	if res.Fit.R2 > 0.5 {
		t.Errorf("fig2b R² = %v — the router trend must be noisy, unlike fig2a", res.Fit.R2)
	}
}

func TestTable1Shape(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table1 rows = %d, want 8", len(rows))
	}
	// The headline finding: most datasheets overestimate, but the two
	// Cisco 8000s underestimate (negative rows at the bottom).
	neg := map[string]bool{}
	for _, r := range rows {
		if r.Overestimate < 0 {
			neg[r.Model] = true
		}
	}
	if !neg["8201-32FH"] || !neg["8201-24H8FH"] || len(neg) != 2 {
		t.Errorf("underestimating models = %v, want exactly the two 8000-series", neg)
	}
	// Sorted descending; the NCS-55A1-24H leads with ≈40 %.
	if rows[0].Model != "NCS-55A1-24H" {
		t.Errorf("top row = %s, want NCS-55A1-24H", rows[0].Model)
	}
	if rows[0].Overestimate < 0.30 || rows[0].Overestimate > 0.50 {
		t.Errorf("top overestimate = %.0f%%, want ≈40%%", rows[0].Overestimate*100)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Overestimate > rows[i-1].Overestimate {
			t.Error("rows not sorted by overestimation")
		}
	}
}

func TestTable2MatchesPublished(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("table2 rows = %d, want 7", len(rows))
	}
	for _, row := range rows {
		if row.Published == nil {
			t.Errorf("%s %s: no published reference", row.Router, row.Key)
			continue
		}
		// Derived Pbase within 20 % of published (our simulated units'
		// PSU quality legitimately differs from the authors' — the 8201's
		// poor supplies raise its wall-referenced base).
		if d := relErr(row.PBase.Watts(), row.PBasePublished.Watts()); d > 0.20 {
			t.Errorf("%s: Pbase %.1f vs published %.1f (%.0f%%)",
				row.Router, row.PBase.Watts(), row.PBasePublished.Watts(), d*100)
		}
		// Ebit within 25 % on high-speed profiles (the paper itself flags
		// the 1G derivation as imprecise).
		if row.Key.Speed >= 10*g {
			if d := relErr(row.Derived.EBit.Picojoules(), row.Published.EBit.Picojoules()); d > 0.25 {
				t.Errorf("%s %s: Ebit %.1f pJ vs published %.1f pJ",
					row.Router, row.Key, row.Derived.EBit.Picojoules(), row.Published.EBit.Picojoules())
			}
		}
	}
}

func TestTable6Derives(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("table6 rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		if row.PBase <= 0 {
			t.Errorf("%s: non-positive Pbase", row.Router)
		}
		// High-speed fits must be clean; low-speed ones (and small port
		// banks) may be noisy — the paper flags exactly this.
		if row.Key.Speed >= 100*g && row.FitQuality < 0.9 {
			t.Errorf("%s %s: fit quality %.3f", row.Router, row.Key, row.FitQuality)
		}
	}
}

func TestFig4Validation(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig4 rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		// The model consistently underestimates: spares and unmodeled
		// factors make Autopower ≥ prediction. Offsets of ≈2–25 W.
		if off := row.ModelOffset.Watts(); off < 0.5 || off > 30 {
			t.Errorf("%s (%s): model offset %.1f W, want a small positive offset",
				row.Router, row.Model, off)
		}
		// Shapes must match.
		if row.ModelShapeCorrelation < 0.6 {
			t.Errorf("%s: model shape correlation %.2f, want high", row.Model, row.ModelShapeCorrelation)
		}
		switch row.Model {
		case "N540X-8Z16G-SYS-A":
			if row.SNMP != nil {
				t.Error("the N540X must have no PSU trace (Fig. 4c)")
			}
		case "8201-32FH":
			if row.SNMP == nil {
				t.Fatal("8201 must report PSU power")
			}
			// Precise but not accurate: strong shape, constant offset.
			if row.SNMPShapeCorrelation < 0.8 {
				t.Errorf("8201 SNMP shape correlation = %.2f", row.SNMPShapeCorrelation)
			}
			if off := row.SNMPOffset.Watts(); off < 10 || off > 25 {
				t.Errorf("8201 SNMP offset = %.1f W, want ≈15–20", off)
			}
		case "NCS-55A1-24H":
			if row.SNMP == nil {
				t.Fatal("NCS must report PSU power")
			}
			// Pseudo-constant: the PSU trace explains much less of the
			// ground truth's shape than the 8201's offset sensor does.
			if row.SNMPShapeCorrelation > 0.7 {
				t.Errorf("NCS SNMP correlation = %.2f, want weak (pseudo-constant sensor)",
					row.SNMPShapeCorrelation)
			}
		}
	}
}

func TestFig9Precision(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Autopower.Len() == 0 || row.ShiftedPrediction.Len() == 0 {
			t.Fatalf("%s: empty zoom window", row.Router)
		}
		// After offset correction the model tracks within ≈2 W RMS.
		if row.ResidualRMSE.Watts() > 3 {
			t.Errorf("%s: residual RMSE %.2f W, want ≤3 (the model is precise)",
				row.Model, row.ResidualRMSE.Watts())
		}
	}
}

func TestFig5(t *testing.T) {
	s := sharedSuite(t)
	res := s.Fig5()
	if len(res.PFE600) < 5 {
		t.Error("fig5 curve too sparse")
	}
	if len(res.SetPoints) != 5 {
		t.Errorf("fig5 standards = %d, want 5", len(res.SetPoints))
	}
}

func TestFig6Spread(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) < 180 {
		t.Fatalf("fig6 points = %d, want ≈2 per router", len(res.All))
	}
	var min, max = 1.0, 0.0
	for _, p := range res.All {
		if p.Efficiency < min {
			min = p.Efficiency
		}
		if p.Efficiency > max {
			max = p.Efficiency
		}
		if p.Load <= 0 || p.Load > 0.5 {
			t.Errorf("PSU load %.2f outside the lightly-loaded regime", p.Load)
		}
	}
	// §9.3.1: efficiencies from very good (>95 %) to very poor (<70 %).
	if min > 0.70 {
		t.Errorf("min efficiency = %.2f, want poor outliers", min)
	}
	if max < 0.93 {
		t.Errorf("max efficiency = %.2f, want very good units", max)
	}
	// Per-model panels: NCS fares well, 8201 poorly, ASR-920 spans wide.
	ncs := efficiencies(res.ByModel["NCS-55A1-24H"])
	cisco8k := efficiencies(res.ByModel["8201-32FH"])
	if mean(ncs) < mean(cisco8k) {
		t.Errorf("NCS mean eff %.2f must beat 8201 %.2f", mean(ncs), mean(cisco8k))
	}
	if mean(cisco8k) > 0.80 {
		t.Errorf("8201 mean efficiency = %.2f, want ≤0.80 (Fig. 6c)", mean(cisco8k))
	}
	asr := efficiencies(res.ByModel["ASR-920-24SZ-M"])
	if spread(asr) < spread(ncs) {
		t.Errorf("ASR-920 spread %.2f must exceed NCS spread %.2f (Fig. 6d)",
			spread(asr), spread(ncs))
	}
}

func TestTable3Shape(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Monotone across standards, Titanium the best; paper: 2–7 %.
	prev := -1.0
	for _, level := range []string{"Bronze", "Silver", "Gold", "Platinum", "Titanium"} {
		sv := res.MoreEfficient[level]
		if sv.Fraction < prev {
			t.Errorf("savings not monotone at %s", level)
		}
		prev = sv.Fraction
	}
	if f := res.MoreEfficient["Titanium"].Fraction; f < 0.03 || f > 0.12 {
		t.Errorf("Titanium savings = %.1f%%, want ≈7%%", f*100)
	}
	if f := res.SinglePSU.Fraction; f < 0.015 || f > 0.09 {
		t.Errorf("single-PSU savings = %.1f%%, want ≈4%%", f*100)
	}
	// Combined beats either measure alone, Titanium combined ≈9 %.
	for _, level := range []string{"Bronze", "Titanium"} {
		both := res.Combined[level]
		if both.Watts < res.MoreEfficient[level].Watts || both.Watts < res.SinglePSU.Watts {
			t.Errorf("%s combined %v below its parts", level, both)
		}
	}
	if f := res.Combined["Titanium"].Fraction; f < 0.05 || f > 0.15 {
		t.Errorf("Titanium combined = %.1f%%, want ≈9%%", f*100)
	}
}

func TestTable4Shape(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.K1) != 6 || len(res.K2) != 6 {
		t.Fatalf("table4 columns = %d/%d", len(res.K1), len(res.K2))
	}
	// Tight sizing saves, forced over-provisioning costs; k=1 first
	// column is the best case; savings decrease along the row.
	if res.K1[0].Watts <= 0 {
		t.Errorf("k=1 @250W = %v, want positive savings", res.K1[0])
	}
	last := len(res.K1) - 1
	if res.K1[last].Watts >= 0 {
		t.Errorf("k=1 @2700W = %v, want a cost (negative)", res.K1[last])
	}
	for i := 1; i < len(res.K1); i++ {
		if res.K1[i].Watts > res.K1[i-1].Watts+1 {
			t.Errorf("k=1 savings rise along the capacity row at %v", res.Capacities[i])
		}
	}
	// Large capacity columns saturate: k no longer matters.
	if math.Abs(res.K1[last].Watts.Watts()-res.K2[last].Watts.Watts()) > 1 {
		t.Errorf("k=1 and k=2 must agree at 2700 W: %v vs %v", res.K1[last], res.K2[last])
	}
}

func TestSection7Numbers(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Section7()
	if err != nil {
		t.Fatal(err)
	}
	// Traffic is a rounding error: tens of watts, far below 1 %.
	if res.TrafficShare > 0.005 {
		t.Errorf("traffic share = %.4f, want ≪1%%", res.TrafficShare)
	}
	if res.TrafficPower.Watts() < 1 || res.TrafficPower.Watts() > 100 {
		t.Errorf("traffic power = %v, want tens of watts", res.TrafficPower)
	}
	// Transceivers: ≈10 % of total power (paper: 2.2 kW of 22 kW).
	if res.TransceiverShare < 0.05 || res.TransceiverShare > 0.15 {
		t.Errorf("transceiver share = %.1f%%, want ≈10%%", res.TransceiverShare*100)
	}
}

func TestSection8Numbers(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Section8()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: savings of 0.4–1.9 % of total power; and clearly below the
	// naive expectation.
	if res.LowShare < 0.001 || res.LowShare > 0.012 {
		t.Errorf("low share = %.2f%%, want sub-1%%", res.LowShare*100)
	}
	if res.HighShare < 0.005 || res.HighShare > 0.035 {
		t.Errorf("high share = %.2f%%, want ≈1–2%%", res.HighShare*100)
	}
	if res.HighShare <= res.LowShare {
		t.Error("high bound must exceed low bound")
	}
	// The Table 5 point estimate lands near the lower end — the paper's
	// conclusion about Ptrx,in dominating.
	point := res.Savings.Table5.Watts()
	low, high := res.Savings.RefinedLow.Watts(), res.Savings.RefinedHigh.Watts()
	if point-low > (high-low)/2 {
		t.Errorf("point estimate %.0f W should sit in the lower half of [%.0f, %.0f]", point, low, high)
	}
	if res.ExternalIfaceShare < 0.40 || res.ExternalIfaceShare > 0.62 {
		t.Errorf("external iface share = %.2f, want ≈0.51", res.ExternalIfaceShare)
	}
	if res.InternalLinks < 100 {
		t.Errorf("internal links = %d", res.InternalLinks)
	}
}

func TestFig8Bump(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if b := res.Bump.Watts(); b < 35 || b > 55 {
		t.Errorf("fig8 bump = %.1f W, want ≈45", b)
	}
	if res.RelativeBump < 0.08 || res.RelativeBump > 0.16 {
		t.Errorf("fig8 relative bump = %.1f%%, want ≈12%%", res.RelativeBump*100)
	}
}

func TestTable5Export(t *testing.T) {
	s := sharedSuite(t)
	rows := s.Table5()
	if len(rows) != 4 {
		t.Fatalf("table5 rows = %d", len(rows))
	}
}

func TestAblationDynamicTerms(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.AblationDynamicTerms()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range res {
		byName[r.Variant] = r.RMSE.Watts()
	}
	if byName["full"] >= byName["static-only"] {
		t.Errorf("full model RMSE %.2f must beat static-only %.2f", byName["full"], byName["static-only"])
	}
	if byName["full"] >= byName["no-ebit"] {
		t.Errorf("full model RMSE %.2f must beat no-ebit %.2f", byName["full"], byName["no-ebit"])
	}
	if byName["full"] >= byName["no-epkt"] {
		t.Errorf("full model RMSE %.2f must beat no-epkt %.2f", byName["full"], byName["no-epkt"])
	}
}

func TestAblationSmoothing(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.AblationSmoothing()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 3 {
		t.Fatalf("smoothing variants = %d", len(res))
	}
	// Smoothing must reduce the residual versus the raw traces.
	raw := res[0].ResidualRMSE.Watts()
	smoothed := res[2].ResidualRMSE.Watts() // 30 min
	if smoothed >= raw {
		t.Errorf("30-min smoothing residual %.2f must beat raw %.2f", smoothed, raw)
	}
}

func TestAblationSweepDensity(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.AblationSweepDensity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("density variants = %d", len(res))
	}
	for _, r := range res {
		// Even the sparse sweep recovers Ebit reasonably; all fits clean.
		if r.EBitErrorPct > 15 {
			t.Errorf("%d rates: Ebit error %.1f%%", r.Rates, r.EBitErrorPct)
		}
		if r.FitQuality < 0.95 {
			t.Errorf("%d rates: fit quality %.3f", r.Rates, r.FitQuality)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func efficiencies(pts []Fig6Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Efficiency
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func spread(xs []float64) float64 {
	min, max := 1.0, 0.0
	for _, v := range xs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

func TestAblationHypnosThreshold(t *testing.T) {
	s := sharedSuite(t)
	res, err := s.AblationHypnosThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("variants = %d", len(res))
	}
	// A looser cap can only sleep at least as many links.
	for i := 1; i < len(res); i++ {
		if res[i].MaxUtilization <= res[i-1].MaxUtilization {
			t.Error("caps must ascend")
		}
		if res[i].SleepingLinks < res[i-1].SleepingLinks-1e-9 {
			t.Errorf("looser cap slept fewer links: %.1f @%.2f vs %.1f @%.2f",
				res[i].SleepingLinks, res[i].MaxUtilization,
				res[i-1].SleepingLinks, res[i-1].MaxUtilization)
		}
	}
}

func TestBaselinesQuantifySection2(t *testing.T) {
	s := sharedSuite(t)
	rows, err := s.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("baseline rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		// The refined lab model must beat the datasheet interpolation
		// clearly on every router — §2's point made quantitative.
		if r.LabModelMAE >= r.BaselineMAE {
			t.Errorf("%s (%s): lab MAE %.1f not below baseline MAE %.1f",
				r.Router, r.Model, r.LabModelMAE.Watts(), r.BaselineMAE.Watts())
		}
		if r.BaselineMAE.Watts() < 10 {
			t.Errorf("%s: baseline MAE %.1f suspiciously good; datasheets are off by tens of watts",
				r.Model, r.BaselineMAE.Watts())
		}
	}
}

// TestBaselinesDeterministic pins Baselines to the bit across fresh
// suites of the same seed: the per-interface traffic sum must not depend
// on map iteration order.
func TestBaselinesDeterministic(t *testing.T) {
	var want []BaselineRow
	for i := 0; i < 5; i++ {
		rows, err := New(42).Baselines()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rows
			continue
		}
		if len(rows) != len(want) {
			t.Fatalf("suite %d: %d rows, want %d", i, len(rows), len(want))
		}
		for j, r := range rows {
			w := want[j]
			if r.Router != w.Router || r.Model != w.Model ||
				math.Float64bits(r.LabModelMAE.Watts()) != math.Float64bits(w.LabModelMAE.Watts()) ||
				math.Float64bits(r.BaselineMAE.Watts()) != math.Float64bits(w.BaselineMAE.Watts()) ||
				math.Float64bits(r.BaselineBias.Watts()) != math.Float64bits(w.BaselineBias.Watts()) {
				t.Fatalf("suite %d row %d: %+v, want %+v", i, j, r, w)
			}
		}
	}
}
