package scenario

// ProbeKind classifies what a load-generator probe exercises — the
// three outcome classes the serve benchmarks have always mixed.
type ProbeKind string

// Probe kinds. Allow probes must succeed, deny probes must fail with
// capability-layer provenance, cancel probes must be interrupted by
// their deadline.
const (
	KindAllow  ProbeKind = "allow"
	KindDeny   ProbeKind = "deny"
	KindCancel ProbeKind = "cancel"
)

// ProbeRequest is one concrete request a probe renders: a script body
// (or the name of a built-in script) plus the shape of a correct
// response.
type ProbeRequest struct {
	// Script is an inline source; ScriptName names a built-in script
	// instead. Exactly one is set.
	Script     string
	ScriptName string
	// Argv runs a native command instead of a script.
	Argv []string
	// WantConsole, when non-empty, is the exact console output of a
	// correct run.
	WantConsole string
}

// Probe is a scenario-contributed load-generator request template. The
// registry replaces the generators' hardcoded script constants:
// shill-load and shill-soak sample probes from registered scenarios, so
// serving benchmarks exercise the same bodies the scenario harness
// verifies three-way.
type Probe struct {
	// Scenario is stamped by Register with the owning scenario's name.
	Scenario string
	// Name distinguishes multiple probes within one scenario.
	Name string
	Kind ProbeKind
	// DeadlineMs, when nonzero, bounds the request server-side — how
	// cancel probes guarantee interruption.
	DeadlineMs int
	// Request renders the i-th request. Implementations must be
	// deterministic in i so runs are reproducible.
	Request func(i int64) ProbeRequest
}

// Probes returns every probe whose owning scenario matches the attr
// expression, sorted by scenario then probe name. It panics on a bad
// expression — callers pass literals.
func Probes(attr string) []Probe {
	scs, err := Select(attr)
	if err != nil {
		panic("scenario: Probes: " + err.Error())
	}
	var out []Probe
	for _, sc := range scs {
		out = append(out, sc.Probes...)
	}
	return out
}
