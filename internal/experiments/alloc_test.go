package experiments

import (
	"testing"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/timeseries"
	"fantasticjoules/internal/trafficgen"
)

// TestPredictTickZeroAlloc pins the §6.2 per-tick predictor at zero
// allocations once its interface buffer is warm: a day of 5-minute
// ticks over one counter trace per published profile, one of which
// stops reporting halfway (the stale-counter branch).
func TestPredictTickZeroAlloc(t *testing.T) {
	m, err := model.Published("NCS-55A1-24H")
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 288
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	var ifaces []counterCursor
	for i, p := range m.Profiles() {
		s := timeseries.NewWithCap(p.Key.String(), ticks)
		n := ticks
		if i == 0 {
			n = ticks / 2
		}
		for k := range n {
			s.Append(start.Add(time.Duration(k)*5*time.Minute), float64((i+1)*(k+1))*1e6)
		}
		ifaces = append(ifaces, counterCursor{key: p.Key, s: s})
	}
	stale := int64(10 * time.Minute)
	meanPkt := trafficgen.IMIXMeanSize()
	buf := make([]model.Interface, 0, len(ifaces))
	allocs := testing.AllocsPerRun(20, func() {
		for ii := range ifaces {
			ifaces[ii].idx = 0
		}
		for k := range ticks {
			tick := start.Add(time.Duration(k) * 5 * time.Minute).UnixNano()
			p, next, err := predictTick(m, ifaces, tick, stale, meanPkt, buf)
			if err != nil {
				t.Fatal(err)
			}
			if p <= 0 {
				t.Fatal("non-positive prediction")
			}
			buf = next
		}
	})
	if allocs != 0 {
		t.Errorf("warm predictTick allocates %v times per day of ticks, want 0", allocs)
	}
}
