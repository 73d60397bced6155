package device

import (
	"testing"
	"time"
)

// TestStepBatchZeroAlloc pins the §8 batch API at zero allocations: one
// steady-state step of the fleet replay (BeginStep, InterfaceState,
// SetTraffic, Advance, WallPower, End) on a lab router with a sampled
// PSU curve, so WallPower runs the interpolating Curve.Efficiency search.
func TestStepBatchZeroAlloc(t *testing.T) {
	spec, err := Spec("NCS-55A1-24H")
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, spec)
	var handles []Handle
	for _, name := range []string{"eth0", "eth1", "eth2"} {
		upInterface(t, r, name)
		h, err := r.Handle(name)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st := r.BeginStep()
		for _, h := range handles {
			if _, _, oper := st.InterfaceState(h); !oper {
				t.Fatal("interface went down")
			}
			if err := st.SetTraffic(h, 40*g, 5e6); err != nil {
				t.Fatal(err)
			}
		}
		st.Advance(5 * time.Minute)
		if st.WallPower() <= 0 {
			t.Fatal("non-positive wall power")
		}
		st.End()
	})
	if allocs != 0 {
		t.Errorf("steady-state Step batch allocates %v times per run, want 0", allocs)
	}
}
