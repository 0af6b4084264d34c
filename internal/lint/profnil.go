package lint

import "github.com/imcstudy/imcstudy/internal/lint/analysis"

// ProfNil enforces the internal/prof acquisition contract, the profiler
// twin of metricsnil: a *prof.Profiler must come from prof.New (nil is
// the disabled profiler the engine hot path checks against) and a
// *prof.Profile from a run (Result.Profile) or prof.Decode, which
// validates the schema. Constructing either directly — composite
// literal, new, or a value-typed variable/field — yields a profiler
// whose interning tables are nil maps (first event panics) or a profile
// that skipped schema validation, and a value type can never be the nil
// "profiling off" sentinel sim.Engine caches against.
var ProfNil = &analysis.Analyzer{
	Name: "profnil",
	Doc:  "requires prof.Profiler/prof.Profile values to come from the nil-guarded prof accessors, not direct construction",
	Run:  profContract.run,
}

// profContract guards the types the package's own accessors (New,
// Decode, Snapshot) mint.
var profContract = &acquisition{
	pkg:     "prof",
	guarded: map[string]bool{"Profiler": true, "Profile": true},
	accessor: func(t string) string {
		if t == "Profiler" {
			return "prof.New"
		}
		return "prof.Decode or a profiled run's Result.Profile"
	},
	composite:  "prof.%[1]s constructed directly; obtain it from %[2]s or waive with //imclint:deterministic -- reason",
	newCall:    "new(prof.%[1]s) bypasses the prof accessors; use %[2]s or waive with //imclint:deterministic -- reason",
	valueVar:   "value-typed prof.%[1]s variable; declare *prof.%[1]s and fill it from %[2]s or waive with //imclint:deterministic -- reason",
	valueField: "value-typed prof.%[1]s field; store *prof.%[1]s obtained from %[2]s or waive with //imclint:deterministic -- reason",
}
