// Package optimizer closes the loop that the offline §8–§9 analyses
// leave open: instead of estimating what link sleeping and PSU shedding
// would save, a Controller watches per-link traffic on the simulated
// fleet, decides step by step which internal links to sleep (greedy, the
// exact hypnos.Planner decision procedure, so the static case is
// identical to the §8 schedule) and which PSUs to shed, actuates the
// decisions as declarative ispnet.FleetEvents perturbed into the fleet,
// and measures the *realized* joules saved against the no-op baseline
// dataset — wall-side, through the PSU conversion loss, not the DC-side
// estimate. The fleet is replayed incrementally (Fleet.Resimulate) only
// where its dataset is read: once after the window-end wake-all and once
// after the PSU shed.
//
// Every proposed action passes the SLA guardrail before it commits: the
// awake part of the graph must keep the full topology's connectivity (no
// blackholed demand, checked on hypnos's dense-index reachability graph)
// and no surviving link may exceed the configured utilization cap after
// rerouting. Guardrail rejections are vetoes — counted, recorded per
// step, and exported as telemetry. An independent per-step audit
// (connectivity plus aggregate headroom, the hypnos.VerifySchedule
// invariants) double-checks every committed plan and counts violations;
// a correct run reports zero.
//
// Scenario bundles the stress families the controller must survive:
// FaultStorm (seeded link outages, the fleet-level analogue of the PR 4
// collector chaos profiles) and FlashCrowd (a network-wide load step).
// Both are declarative and seeded, so the decision trace is reproducible
// bit for bit: same seed, same trace — the determinism analyzer enforces
// the absence of wall-clock and global-rand reads in this package.
package optimizer
