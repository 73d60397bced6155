package trafficgen

import (
	"math/rand"
	"testing"
	"time"
)

// TestMultipliersZeroAlloc pins the per-step load multipliers the fleet
// replay evaluates for every router shard at zero allocations: the cohort
// vector, and the diurnal multiplier with its noise draw.
func TestMultipliersZeroAlloc(t *testing.T) {
	d := DefaultDiurnal()
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	var cm [NumCohorts]float64
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for h := range 24 * 7 {
			ts := start.Add(time.Duration(h) * time.Hour)
			CohortMultipliers(ts, &cm)
			sink += cm[0] + d.Multiplier(ts, rng)
		}
	})
	if allocs != 0 {
		t.Errorf("CohortMultipliers + Diurnal.Multiplier allocate %v times per run, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("multipliers summed to a non-positive total")
	}
}
