package optimizer_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"fantasticjoules/internal/hypnos"
	"fantasticjoules/internal/ispnet"
	"fantasticjoules/internal/optimizer"
)

// The scale-agnostic acceptance suite: the same scenario invariants the
// 107-router tests pin — zero guardrail violations, no fresh sleep of a
// faulted carrier, hysteresis-bounded oscillation, same-seed bit-identity
// — must hold when the rig is derived from a generated 1k-router
// hierarchical fleet. A
// structural 100k smoke checks the control plane's topology path alone.

// hier1kCfg is the 1k-router rig config: hierarchical fleet, hourly SNMP
// grid aligned with the hourly control step.
func hier1kCfg() ispnet.Config {
	return ispnet.Config{
		Seed:     42,
		Routers:  1000,
		Start:    start,
		Duration: 48 * time.Hour,
		SNMPStep: time.Hour,
	}
}

// storm1k runs the fault-storm loop on a fresh 1k rig and returns the
// report; TestOptimizer1kFaultStorm calls it twice for the determinism
// half of the acceptance criteria.
func storm1k(t *testing.T) *optimizer.Report {
	t.Helper()
	cfg := hier1kCfg()
	r, err := optimizer.NewRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := optimizer.FaultStorm(r.Topo, 7, start, cfg.Duration)
	if len(sc.Events) == 0 {
		t.Fatal("fault storm generated no outages on the 1k topology")
	}
	if err := r.Apply(&sc); err != nil {
		t.Fatal(err)
	}
	c, err := r.Controller(optimizer.Config{
		Start: start, Window: 24 * time.Hour, Step: time.Hour,
		MinDwellSteps: 4, Down: sc.Down,
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

// TestOptimizer1kFaultStorm is the chaos scenario at 1k: outages land on
// the generated topology while the loop decides, and every 107-router
// invariant must carry over — plus two same-seed runs must produce the
// identical decision trace and bit-identical realized joules through the
// incremental resimulation path.
func TestOptimizer1kFaultStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("1k closed-loop runs in -short mode")
	}
	rep := storm1k(t)

	if rep.GuardrailViolations != 0 {
		t.Errorf("guardrail violations = %d, want 0", rep.GuardrailViolations)
	}
	sc := optimizer.FaultStorm(topoOf(t, hier1kCfg()), 7, start, hier1kCfg().Duration)
	const dwell = 4
	steps := len(rep.Steps)
	maxPerLink := steps/dwell + 1
	perLink := map[int]int{}
	for _, s := range rep.Steps {
		for _, id := range s.Slept {
			if sc.Down(id, s.Time) {
				t.Errorf("step %v sleeps link %d whose carrier is down", s.Time, id)
			}
			perLink[id]++
		}
		for _, id := range s.Woke {
			perLink[id]++
		}
	}
	for id, n := range perLink {
		if n > maxPerLink {
			t.Errorf("link %d transitioned %d times in %d steps (dwell %d allows %d): oscillation",
				id, n, steps, dwell, maxPerLink)
		}
	}
	if rep.Transitions() == 0 {
		t.Error("controller never actuated during the 1k storm")
	}
	if rep.SleepSavedJoules <= 0 {
		t.Errorf("realized savings %v, want > 0 even under faults", rep.SleepSavedJoules)
	}

	// Determinism: a second fresh run of the same seeded storm.
	again := storm1k(t)
	if !reflect.DeepEqual(rep.Steps, again.Steps) {
		t.Fatal("decision traces differ between same-seed 1k runs")
	}
	if !reflect.DeepEqual(rep.Events, again.Events) {
		t.Fatal("committed event schedules differ between same-seed 1k runs")
	}
	if math.Float64bits(rep.SleepSavedJoules.Joules()) != math.Float64bits(again.SleepSavedJoules.Joules()) {
		t.Fatalf("realized joules differ: %v vs %v", rep.SleepSavedJoules, again.SleepSavedJoules)
	}
}

// topoOf rebuilds the pristine topology for a config (for re-deriving a
// scenario's Down view without keeping the first rig alive).
func topoOf(t *testing.T, cfg ispnet.Config) hypnos.Topology {
	t.Helper()
	n, err := ispnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo, _, err := hypnos.FromNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestOptimizer1kFlashCrowd steps the whole 1k fleet's offered load
// mid-run: links slept under the calm load must wake through the
// planner's re-validation before any surviving link trips the SLA cap.
// This is the scenario the OpScaleLoad fix exists for — on hierarchical
// fleets the realized load lives in per-interface subscriber demand, not
// MeanLoad, and the event must scale both.
func TestOptimizer1kFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("1k closed-loop runs in -short mode")
	}
	cfg := hier1kCfg()
	crowdAt := start.Add(24 * time.Hour)
	r, err := optimizer.NewRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := optimizer.FlashCrowd(r.Fleet.Network(), crowdAt, 4)
	if err := r.Apply(&sc); err != nil {
		t.Fatal(err)
	}

	// Unlike the cold 107-router build (median link utilization ~2 %),
	// the generated fleet's internal links run at ~30 % of capacity at
	// the median — the paper's §8 cap is already the contended regime, so
	// no artificially tight cap is needed for the surge to force wakes.
	c, err := r.Controller(optimizer.Config{
		Start: start, Window: cfg.Duration, Step: time.Hour,
		MinDwellSteps: 4, MaxUtilization: optimizer.DefaultMaxUtilization,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rep.GuardrailViolations != 0 {
		t.Errorf("guardrail violations = %d, want 0 across the surge", rep.GuardrailViolations)
	}
	var before, after *optimizer.StepRecord
	for i := range rep.Steps {
		s := &rep.Steps[i]
		if s.Time.Before(crowdAt) {
			before = s
		} else if after == nil {
			after = s
		}
	}
	if before == nil || after == nil {
		t.Fatal("surge not inside the control window")
	}
	if len(before.Sleeping) == 0 {
		t.Fatal("nothing slept before the surge; scenario proves nothing")
	}
	if len(after.Sleeping) >= len(before.Sleeping) {
		t.Errorf("surge did not reduce sleeping links: %d before, %d after",
			len(before.Sleeping), len(after.Sleeping))
	}
	if len(after.Woke) == 0 {
		t.Error("first post-surge step woke nothing")
	}
}

// TestStructural100k is the continental smoke: build a 100k-router
// network, derive the control plane's topology and traffic view, and
// take one guarded planning step — no fleet, no simulation window, just
// proof that nothing structural (tier split, link derivation, planner
// BFS) breaks at two more orders of magnitude.
func TestStructural100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k structural build in -short mode")
	}
	cfg := ispnet.Config{
		Seed:     42,
		Routers:  100000,
		Start:    start,
		Duration: 2 * time.Hour,
		SNMPStep: time.Hour,
	}
	n, err := ispnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Routers) != cfg.Routers {
		t.Fatalf("built %d routers, want %d", len(n.Routers), cfg.Routers)
	}
	topo, traffic, err := hypnos.FromNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Links) == 0 {
		t.Fatal("100k topology has no internal links")
	}
	if c := hypnos.Components(topo, nil); c != 1 {
		t.Fatalf("100k topology has %d components, want 1", c)
	}

	// No hysteresis: a fresh planner's dwell counters gate the first
	// MinDwellSteps steps, and this smoke takes exactly one step.
	planner, err := hypnos.NewPlanner(topo, hypnos.PlannerOptions{
		MaxUtilization: optimizer.DefaultMaxUtilization,
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, len(topo.Links))
	for i, l := range topo.Links {
		loads[i] = traffic(l.ID, start).BitsPerSecond()
	}
	plan := planner.PlanStep(loads, nil)
	if len(plan.Slept) == 0 {
		t.Error("first control step slept nothing on an idle 100k fleet")
	}
	// The one-step audit, re-derived independently of the planner: the
	// slept set must not split the graph.
	asleep := make([]bool, len(topo.Links))
	for _, id := range plan.Sleeping {
		asleep[id] = true
	}
	if got := hypnos.Components(topo, asleep); got != 1 {
		t.Errorf("100k plan splits the network into %d components", got)
	}
	t.Logf("100k: %d links, slept %d in one step, %d vetoes",
		len(topo.Links), len(plan.Slept), len(plan.Vetoed))
}
