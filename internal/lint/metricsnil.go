package lint

import "github.com/imcstudy/imcstudy/internal/lint/analysis"

// MetricsNil enforces the internal/metrics acquisition contract: every
// instrument (*Counter, *Gauge, *Histogram, *Series) must come from a
// Registry accessor — reg.Counter(name), reg.SampledGauge(name), ... —
// which is nil-safe and registers the instrument for the deterministic
// JSON/CSV encoders. Constructing an instrument directly (composite
// literal, new, or a value-typed variable/field) produces a phantom:
// it records even when telemetry is disabled, never appears in
// snapshots or digests, and a value-typed field silently breaks the
// "nil instrument = disabled" hot-path convention that staging,
// transport, memprof and the sim links cache against.
var MetricsNil = &analysis.Analyzer{
	Name: "metricsnil",
	Doc:  "requires metrics instruments to be obtained from Registry accessors, not constructed directly",
	Run:  metricsContract.run,
}

// metricsContract guards the instruments and Registry itself: a
// &Registry{} bypasses NewRegistry's map and clock initialization and
// panics on first use.
var metricsContract = &acquisition{
	pkg: "metrics",
	guarded: map[string]bool{
		"Counter": true, "Gauge": true, "Histogram": true, "Series": true,
		"Registry": true,
	},
	accessor: func(t string) string {
		if t == "Registry" {
			return "NewRegistry"
		}
		return t
	},
	composite:  "metrics.%[1]s constructed directly; obtain it from a Registry accessor (nil-safe, registered for encoding) or waive with //imclint:deterministic -- reason",
	newCall:    "new(metrics.%[1]s) bypasses the Registry accessors; use reg.%[2]s(name) or waive with //imclint:deterministic -- reason",
	valueVar:   "value-typed metrics.%[1]s variable; declare *metrics.%[1]s and fill it from a Registry accessor or waive with //imclint:deterministic -- reason",
	valueField: "value-typed metrics.%[1]s field; store *metrics.%[1]s obtained from a Registry accessor or waive with //imclint:deterministic -- reason",
}
