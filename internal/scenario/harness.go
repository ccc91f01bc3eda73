package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Options tune a harness run.
type Options struct {
	// Attr selects scenarios by attribute expression ("" runs all).
	Attr string
	// Names, when non-empty, selects exactly these scenarios instead of
	// Attr — how a red CI scenario is replayed in isolation. An unknown
	// name is an error.
	Names []string
	// Modes lists the modes to report (default: all three). Requesting
	// oracle always executes both legs; their results are reported only
	// when their modes are also requested.
	Modes []Mode
	// Logf, when set, narrates per-scenario progress.
	Logf func(format string, args ...any)
}

// ModeResult is one scenario × mode verdict.
type ModeResult struct {
	Mode    Mode   `json:"mode"`
	Verdict string `json:"verdict"` // passed | failed | skipped | violation
	// Kind/Step/Provenance are the triage cluster key for non-passed
	// results: the failure class, the step it anchors on, and the deny
	// provenance that explains (or fails to explain) it.
	Kind       string       `json:"kind,omitempty"`
	Step       string       `json:"step,omitempty"`
	Provenance string       `json:"provenance,omitempty"`
	Detail     string       `json:"detail,omitempty"`
	ElapsedMs  float64      `json:"elapsedMs"`
	Steps      []StepResult `json:"steps,omitempty"`
}

// ScenarioResult aggregates one scenario's three-way outcome.
type ScenarioResult struct {
	Name  string       `json:"name"`
	Attrs []string     `json:"attrs"`
	Modes []ModeResult `json:"modes"`
}

// Verdict returns the scenario's worst verdict across modes.
func (r *ScenarioResult) Verdict() string {
	worst := "passed"
	rank := map[string]int{"passed": 0, "skipped": 1, "failed": 2, "violation": 3}
	for _, m := range r.Modes {
		if rank[m.Verdict] > rank[worst] {
			worst = m.Verdict
		}
	}
	return worst
}

// Report is one harness run over the selected scenarios; it doubles as
// the SCENARIOS.json document CI uploads.
type Report struct {
	Attr       string           `json:"attr,omitempty"`
	Scenarios  []ScenarioResult `json:"scenarios"`
	Clusters   []Cluster        `json:"clusters,omitempty"`
	Passed     int              `json:"passed"`
	Failed     int              `json:"failed"`
	Skipped    int              `json:"skipped"`
	Violations int              `json:"violations"`
	ElapsedSec float64          `json:"elapsedSec"`
}

// Ok reports a clean run: no failures and no oracle violations
// (skipped legs are fine — that is what preconditions are for).
func (r *Report) Ok() bool { return r.Failed == 0 && r.Violations == 0 }

// legResult is one executed leg, before verdict mapping.
type legResult struct {
	mode     Mode
	skipped  string // unmet precondition, when non-empty
	steps    []StepResult
	bodyErr  error
	timedOut bool
	escapes  []string
	leaked   []string
	elapsed  time.Duration
}

// Run executes every selected scenario in the requested modes and
// clusters the failures by root cause.
func Run(ctx context.Context, opts Options) (*Report, error) {
	var scs []*Scenario
	var err error
	if len(opts.Names) > 0 {
		for _, name := range opts.Names {
			sc := Lookup(name)
			if sc == nil {
				return nil, fmt.Errorf("scenario: unknown scenario %q", name)
			}
			scs = append(scs, sc)
		}
	} else if scs, err = Select(opts.Attr); err != nil {
		return nil, err
	}
	modes := opts.Modes
	if len(modes) == 0 {
		modes = []Mode{ModeAmbient, ModeSandboxed, ModeOracle}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	start := time.Now()
	rep := &Report{Attr: opts.Attr}
	for _, sc := range scs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res := RunScenario(ctx, sc, modes)
		rep.Scenarios = append(rep.Scenarios, res)
		for _, m := range res.Modes {
			switch m.Verdict {
			case "passed":
				rep.Passed++
			case "failed":
				rep.Failed++
			case "skipped":
				rep.Skipped++
			case "violation":
				rep.Violations++
			}
		}
		logf("scenario %-28s %s", sc.Name, summarizeModes(res.Modes))
	}
	rep.Clusters = Clusterize(rep.Scenarios)
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

func summarizeModes(ms []ModeResult) string {
	parts := make([]string, 0, len(ms))
	for _, m := range ms {
		parts = append(parts, fmt.Sprintf("%s=%s", m.Mode, m.Verdict))
	}
	return strings.Join(parts, " ")
}

// RunScenario executes one scenario in the requested modes. The two
// real legs each run on a private machine booted from the scenario's
// fixture image; the oracle mode is a pure judgment over their recorded
// steps, so "all three ways" costs two machine runs, not three.
func RunScenario(ctx context.Context, sc *Scenario, modes []Mode) ScenarioResult {
	want := make(map[Mode]bool, len(modes))
	for _, m := range modes {
		want[m] = true
	}
	res := ScenarioResult{Name: sc.Name, Attrs: sc.Attrs}

	var amb, sbx *legResult
	if want[ModeAmbient] || want[ModeOracle] {
		amb = runLeg(ctx, sc, ModeAmbient)
	}
	if want[ModeSandboxed] || want[ModeOracle] {
		sbx = runLeg(ctx, sc, ModeSandboxed)
	}
	if want[ModeAmbient] {
		res.Modes = append(res.Modes, legVerdict(sc, amb))
	}
	if want[ModeSandboxed] {
		res.Modes = append(res.Modes, legVerdict(sc, sbx))
	}
	if want[ModeOracle] {
		res.Modes = append(res.Modes, oracleVerdict(amb, sbx))
	}
	return res
}

// runLeg boots, checks preconditions, runs the body under the scenario
// timeout, and measures its effects (touched paths, leaked listeners).
func runLeg(ctx context.Context, sc *Scenario, mode Mode) *legResult {
	leg := &legResult{mode: mode}
	start := time.Now()
	defer func() { leg.elapsed = time.Since(start) }()

	m, err := boot(sc)
	if err != nil {
		leg.bodyErr = fmt.Errorf("boot: %w", err)
		return leg
	}
	defer m.Close()

	for _, pre := range sc.Pre {
		if err := pre.Check(m); err != nil {
			leg.skipped = fmt.Sprintf("%s: %v", pre.Name, err)
			return leg
		}
	}

	env := &Env{M: m, Mode: mode, sc: sc, sess: m.NewSession()}
	defer env.sess.Close()

	win := m.OpenFSWindow()
	netBefore := m.NetListeners()

	lctx, cancel := context.WithTimeout(ctx, sc.timeout())
	leg.bodyErr = sc.Body(lctx, env)
	timedOut := lctx.Err() != nil && ctx.Err() == nil
	cancel()

	leg.steps = env.Steps()
	touched := win.Touched()
	win.Close()
	leg.escapes = escapes(touched, sc.WriteRoots)
	leg.leaked = diffListeners(netBefore, m.NetListeners())
	if leg.bodyErr != nil && timedOut && errors.Is(leg.bodyErr, context.DeadlineExceeded) {
		leg.timedOut = true
	}
	return leg
}

func diffListeners(before, after []string) []string {
	prev := make(map[string]struct{}, len(before))
	for _, l := range before {
		prev[l] = struct{}{}
	}
	var out []string
	for _, l := range after {
		if _, ok := prev[l]; !ok {
			out = append(out, l)
		}
	}
	return out
}

// legVerdict maps one real leg to its mode result.
func legVerdict(sc *Scenario, leg *legResult) ModeResult {
	out := ModeResult{Mode: leg.mode, ElapsedMs: float64(leg.elapsed) / float64(time.Millisecond), Steps: leg.steps}
	switch {
	case leg.skipped != "":
		out.Verdict, out.Kind, out.Detail = "skipped", "precondition", leg.skipped
	case leg.timedOut:
		out.Verdict, out.Kind = "failed", "timeout"
		out.Detail = fmt.Sprintf("body exceeded the %s scenario timeout", sc.timeout())
		out.Step = lastStepName(leg.steps)
	case leg.bodyErr != nil:
		out.Verdict, out.Kind, out.Detail = "failed", "body-error", leg.bodyErr.Error()
		out.Step = lastStepName(leg.steps)
	case len(leg.escapes) > 0:
		out.Verdict, out.Kind = "failed", "escape"
		out.Detail = fmt.Sprintf("touched outside write roots: %s", strings.Join(head(leg.escapes, 6), ", "))
	case len(leg.leaked) > 0:
		out.Verdict, out.Kind = "failed", "listener-leak"
		out.Detail = fmt.Sprintf("listeners still bound after body: %v", leg.leaked)
	default:
		for _, s := range leg.steps {
			if s.Expected != "" && !expectMatches(s.Expected, s.Status) {
				out.Verdict, out.Kind, out.Step = "failed", "expectation", s.Name
				out.Provenance = s.Provenance
				out.Detail = fmt.Sprintf("step %s: expected %s %s, got %s", s.Name, leg.mode, s.Expected, s.Status)
				return out
			}
		}
		out.Verdict = "passed"
	}
	return out
}

// expectMatches compares a recorded status against an Expect assertion.
// Two special values loosen the match: "exit" matches any nonzero exit
// status, and "fail" matches every failure outcome (denied, error, or a
// nonzero exit) — how a scenario asserts "this must not succeed"
// without caring how exactly the sandbox stops it.
func expectMatches(want, got string) bool {
	switch want {
	case "exit":
		return strings.HasPrefix(got, "exit:")
	case "fail":
		return got == "denied" || got == "error" || strings.HasPrefix(got, "exit:")
	}
	return want == got
}

func lastStepName(steps []StepResult) string {
	if len(steps) == 0 {
		return ""
	}
	return steps[len(steps)-1].Name
}

// oracleVerdict judges the differential properties over the two legs:
// no-escape (either leg mutating outside the scenario's write roots or
// leaking listeners), DAC-conjunction (a step succeeding sandboxed but
// failing ambient), and deny-provenance (the first sandbox-only failing
// step must carry a MAC/policy/capability denial). Comparison stops at
// the first divergent step — past it the two filesystems legitimately
// differ.
func oracleVerdict(amb, sbx *legResult) ModeResult {
	out := ModeResult{Mode: ModeOracle, ElapsedMs: float64(amb.elapsed+sbx.elapsed) / float64(time.Millisecond)}
	switch {
	case amb.skipped != "" || sbx.skipped != "":
		out.Verdict, out.Kind = "skipped", "precondition"
		out.Detail = firstNonEmpty(amb.skipped, sbx.skipped)
		return out
	case amb.bodyErr != nil || sbx.bodyErr != nil:
		out.Verdict, out.Kind = "failed", "harness"
		if amb.bodyErr != nil {
			out.Detail = "ambient leg: " + amb.bodyErr.Error()
		} else {
			out.Detail = "sandboxed leg: " + sbx.bodyErr.Error()
		}
		return out
	}

	for _, leg := range []*legResult{sbx, amb} {
		if len(leg.escapes) > 0 {
			out.Verdict, out.Kind = "violation", "no-escape"
			out.Detail = fmt.Sprintf("%s leg touched outside write roots: %s",
				leg.mode, strings.Join(head(leg.escapes, 6), ", "))
			return out
		}
		if len(leg.leaked) > 0 {
			out.Verdict, out.Kind = "violation", "no-escape"
			out.Detail = fmt.Sprintf("%s leg left listeners bound: %v", leg.mode, leg.leaked)
			return out
		}
	}

	n := len(sbx.steps)
	if len(amb.steps) < n {
		n = len(amb.steps)
	}
	for i := 0; i < n; i++ {
		as, ss := amb.steps[i], sbx.steps[i]
		if as.Name != ss.Name {
			out.Verdict, out.Kind, out.Step = "violation", "step-divergence", ss.Name
			out.Detail = fmt.Sprintf("step %d is %q ambient but %q sandboxed — the body's control flow is mode-dependent", i, as.Name, ss.Name)
			return out
		}
		if as.Status == ss.Status {
			if sbxOK(ss) && as.Console != ss.Console && ss.Compared {
				out.Verdict, out.Kind, out.Step = "violation", "console-divergence", ss.Name
				out.Detail = fmt.Sprintf("step %s: console differs between legs before any divergence (%q vs %q)",
					ss.Name, head1(as.Console), head1(ss.Console))
				return out
			}
			continue
		}
		// First divergent op: judge and stop comparing.
		out.Step = ss.Name
		if sbxOK(ss) {
			out.Verdict, out.Kind = "violation", "conjunction"
			out.Detail = fmt.Sprintf("step %s succeeded sandboxed (%s) but failed ambient (%s): the sandbox exceeded ambient authority",
				ss.Name, ss.Status, as.Status)
			return out
		}
		if !qualifiedProvenance(ss) {
			out.Verdict, out.Kind = "violation", "deny-unexplained"
			out.Detail = fmt.Sprintf("step %s failed only under the sandbox (%s vs %s) with no MAC/policy/capability denial explaining it",
				ss.Name, ss.Status, as.Status)
			return out
		}
		out.Provenance = ss.Provenance
		out.Verdict = "passed"
		out.Detail = fmt.Sprintf("diverged at %s, explained by denial: %s", ss.Name, ss.Provenance)
		return out
	}
	if len(amb.steps) != len(sbx.steps) {
		out.Verdict, out.Kind = "violation", "step-divergence"
		out.Detail = fmt.Sprintf("legs recorded different step counts (%d ambient, %d sandboxed) without a status divergence",
			len(amb.steps), len(sbx.steps))
		return out
	}
	out.Verdict = "passed"
	return out
}

// sbxOK treats only a clean "ok" as success; a nonzero exit is a
// failure outcome for conjunction purposes.
func sbxOK(s StepResult) bool { return s.Status == "ok" }

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return append(xs[:n:n], fmt.Sprintf("... (%d more)", len(xs)-n))
	}
	return xs
}

func head1(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
