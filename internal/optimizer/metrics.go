package optimizer

import "fantasticjoules/internal/telemetry"

// Control-loop instrumentation. Write-only observers on the process-wide
// registry, mirroring the ispnet replay metrics: the controller never
// reads them back, so instrumented runs stay bit-identical.
var (
	metricActions = telemetry.Default().Counter("optimizer_actions_total",
		"actuation events committed to the fleet (sleep/wake/psu per endpoint)")
	metricVetoes = telemetry.Default().Counter("optimizer_vetoes_total",
		"sleep candidates rejected by the SLA guardrail before commit")
	metricResimulates = telemetry.Default().Counter("optimizer_resimulates_total",
		"incremental fleet replays run before the controller reads the fleet dataset (at most two per run)")
	metricSavedJoules = telemetry.Default().Gauge("optimizer_realized_saved_joules",
		"realized energy saved vs the no-op baseline over the last run (wall side)")
	metricSavedWatts = telemetry.Default().Gauge("optimizer_realized_saved_watts",
		"mean realized power saved over the last run's control window")
	metricGuardrailSeconds = telemetry.Default().Histogram("optimizer_guardrail_seconds",
		"wall-clock duration of one control step's decision plus guardrail check", nil)
)
