package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/model"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/units"
)

// BaselineRow compares the datasheet-interpolation baseline ([16, 33],
// discussed in §2) against the lab-derived model on one validation router:
// how far each prediction sits from the external ground truth.
type BaselineRow struct {
	Router string
	Model  string
	// LabModelMAE is the mean absolute error of the lab-derived model
	// (including its constant offset — no post-hoc correction).
	LabModelMAE units.Power
	// BaselineMAE is the datasheet-interpolation model's error.
	BaselineMAE units.Power
	// BaselineBias is the baseline's median signed error (its estimate
	// minus the measurement): datasheet "typical" values overshoot or
	// undershoot by whole tens of watts (Table 1), and it shows here.
	BaselineBias units.Power
}

// Baselines quantifies §2's criticism of datasheet-driven power models:
// for each Autopower-instrumented router it predicts the deployment trace
// with (a) the lab-derived model and (b) the datasheet interpolation, and
// reports both errors against the external measurement.
func (s *Suite) Baselines() ([]BaselineRow, error) {
	return s.baselines.get(func() ([]BaselineRow, error) {
		defer observeArtifact("baselines", time.Now())
		return s.baselinesUncached()
	})
}

func (s *Suite) baselinesUncached() ([]BaselineRow, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	var rows []BaselineRow
	for _, r := range ds.Network.AutopowerRouters() {
		spec, err := device.Spec(r.Device.Model())
		if err != nil {
			return nil, err
		}
		idle := spec.DatasheetTypical
		if idle == 0 {
			idle = spec.DatasheetMax / 2 // the N540X states no typical value
		}
		baseline, err := model.NewDatasheetBaseline(spec.Name, idle, spec.DatasheetMax, spec.DatasheetBandwidth)
		if err != nil {
			return nil, fmt.Errorf("baseline for %s: %w", spec.Name, err)
		}

		// Baseline prediction: total traffic per poll from the counter view,
		// summed in interface-name order so the floating-point result does
		// not depend on map iteration order.
		rates := ds.IfaceRates[r.Name]
		ifaces := make([]string, 0, len(rates))
		for iface := range rates {
			ifaces = append(ifaces, iface)
		}
		sort.Strings(ifaces)
		var total *timeseries.Series
		for _, iface := range ifaces {
			series := rates[iface]
			if total == nil {
				total = series
				continue
			}
			sum, err := timeseries.SumAligned("traffic", ds.Network.Config.SNMPStep, total, series)
			if err != nil {
				return nil, err
			}
			total = sum
		}
		if total == nil {
			return nil, fmt.Errorf("baseline: no traffic for %s", r.Name)
		}
		basePred := timeseries.NewWithCap(r.Name+".baseline", total.Len())
		for i := 0; i < total.Len(); i++ {
			basePred.Append(total.At(i).T, baseline.PredictPower(units.BitRate(total.Value(i))).Watts())
		}

		labPred, err := s.prediction(ds, r.Name, r.Device.Model())
		if err != nil {
			return nil, err
		}

		truth, smoothed, diff := s.scratch.get(), s.scratch.get(), s.scratch.get()
		ds.Autopower[r.Name].SmoothInto(SmoothingWindow, truth)
		labMAE, err := s.maeAgainst(truth, labPred.SmoothInto(SmoothingWindow, smoothed))
		if err != nil {
			s.scratch.put(truth, smoothed, diff)
			return nil, err
		}
		baseMAE, err := s.maeAgainst(truth, basePred.SmoothInto(SmoothingWindow, smoothed))
		if err != nil {
			s.scratch.put(truth, smoothed, diff)
			return nil, err
		}
		if _, err := timeseries.SubInto(basePred, ds.Autopower[r.Name], diff); err != nil {
			s.scratch.put(truth, smoothed, diff)
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Router:       r.Name,
			Model:        r.Device.Model(),
			LabModelMAE:  labMAE,
			BaselineMAE:  baseMAE,
			BaselineBias: units.Power(diff.Median()),
		})
		s.scratch.put(truth, smoothed, diff)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Model < rows[j].Model })
	return rows, nil
}

// maeAgainst aligns prediction to truth and returns the mean absolute
// error. The difference series lives in arena scratch.
func (s *Suite) maeAgainst(truth, pred *timeseries.Series) (units.Power, error) {
	diff := s.scratch.get()
	defer s.scratch.put(diff)
	if _, err := timeseries.SubInto(truth, pred, diff); err != nil {
		return 0, err
	}
	var sum float64
	for i := 0; i < diff.Len(); i++ {
		sum += math.Abs(diff.Value(i))
	}
	if diff.Len() == 0 {
		return 0, fmt.Errorf("experiments: no overlapping samples")
	}
	return units.Power(sum / float64(diff.Len())), nil
}
