package experiments

import (
	"testing"
	"time"
)

// TestOptimizeScale1k closes the loop on a generated 1k-router fleet
// over a short window (the 7-day default lives behind the CLI artifact):
// the rig must come up, the controller must act, the
// guardrail must never fire, and the realized wall-side saving must land
// in the advertised estimate envelope — the scale-agnostic twin of
// TestSection8OnlineWindow.
func TestOptimizeScale1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k closed-loop run in -short mode")
	}
	row, err := RunOptimizeScale(OptimizeScaleConfig{
		Seed: 42, Routers: 1000, Window: 24 * time.Hour, Step: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Tiers) != 3 {
		t.Errorf("Tiers = %v, want 3 tiers", row.Tiers)
	}
	if row.Steps != 24 {
		t.Errorf("Steps = %d, want 24 (1 day at 1h)", row.Steps)
	}
	if row.Links == 0 {
		t.Error("derived topology has no links")
	}
	if row.Actions == 0 {
		t.Error("optimizer took no actions on the 1k fleet")
	}
	if row.GuardrailViolations != 0 {
		t.Errorf("GuardrailViolations = %d, want 0", row.GuardrailViolations)
	}
	if row.RealizedSavedJoules <= 0 {
		t.Errorf("RealizedSavedJoules = %v, want > 0", row.RealizedSavedJoules)
	}
	if row.PSUsShed == 0 || row.PSUSavedJoules <= 0 {
		t.Errorf("PSU shed pass: shed=%d saved=%v, want both > 0",
			row.PSUsShed, row.PSUSavedJoules)
	}
	if row.EnvelopeLow <= 0 || row.EnvelopeHigh <= row.EnvelopeLow {
		t.Errorf("degenerate envelope [%v, %v]", row.EnvelopeLow, row.EnvelopeHigh)
	}
	if !row.WithinEnvelope {
		t.Errorf("realized %v W outside envelope [%v, %v] W",
			row.RealizedSavedWatts.Watts(),
			row.EnvelopeLow.Watts(), row.EnvelopeHigh.Watts())
	}
	if row.BaselineMeanPower <= 0 || row.RealizedShare <= 0 {
		t.Errorf("baseline mean %v / share %v not populated",
			row.BaselineMeanPower, row.RealizedShare)
	}
}
