package scenario

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want one containing %q", r, want)
		}
	}()
	f()
}

func trivialBody(context.Context, *Env) error { return nil }

func TestRegisterDuplicatePanics(t *testing.T) {
	// legacy/allow is registered in package init; re-registering the
	// name must panic (and, because the duplicate check rejects it, the
	// registry is left untouched).
	mustPanic(t, "duplicate scenario legacy/allow", func() {
		Register(Scenario{Name: "legacy/allow", Body: trivialBody})
	})
	if Lookup("legacy/allow") == nil {
		t.Fatal("built-in legacy/allow lost after rejected duplicate registration")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic(t, "empty name", func() {
		Register(Scenario{Body: trivialBody})
	})
	mustPanic(t, "has no body", func() {
		Register(Scenario{Name: "t/nobody"})
	})
	mustPanic(t, `unknown attr "bogus"`, func() {
		Register(Scenario{Name: "t/badattr", Attrs: []string{"bogus"}, Body: trivialBody})
	})
	if Lookup("t/nobody") != nil || Lookup("t/badattr") != nil {
		t.Fatal("rejected registrations leaked into the registry")
	}
}

func TestParseAttr(t *testing.T) {
	cases := []struct {
		expr  string
		attrs []string
		want  bool
	}{
		{"", nil, true},
		{"", []string{"slow"}, true},
		{"sandbox", []string{"sandbox"}, true},
		{"sandbox", []string{"web"}, false},
		{"!slow", []string{"sandbox"}, true},
		{"!slow", []string{"sandbox", "slow"}, false},
		{"sandbox && !slow", []string{"sandbox"}, true},
		{"sandbox && !slow", []string{"sandbox", "slow"}, false},
		{"legacy || llm", []string{"llm"}, true},
		{"legacy || llm", []string{"web"}, false},
		{"(net || web) && !adversarial", []string{"web"}, true},
		{"(net || web) && !adversarial", []string{"web", "adversarial"}, false},
		{"!(net || web)", []string{"files"}, true},
		// && binds tighter than ||.
		{"legacy || sandbox && slow", []string{"legacy"}, true},
		{"legacy || sandbox && slow", []string{"sandbox"}, false},
	}
	for _, c := range cases {
		e, err := ParseAttr(c.expr)
		if err != nil {
			t.Fatalf("ParseAttr(%q): %v", c.expr, err)
		}
		set := make(map[string]bool, len(c.attrs))
		for _, a := range c.attrs {
			set[a] = true
		}
		if got := e.Eval(set); got != c.want {
			t.Errorf("ParseAttr(%q).Eval(%v) = %v, want %v", c.expr, c.attrs, got, c.want)
		}
	}
}

func TestParseAttrErrors(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"bogus", `unknown attr "bogus"`},
		{"sandbox &&", "ends where an attribute was expected"},
		{"(sandbox", "missing ')'"},
		{"sandbox & slow", `unexpected "&"`},
		{"sandbox slow", `unexpected "slow"`},
	}
	for _, c := range cases {
		_, err := ParseAttr(c.expr)
		if err == nil {
			t.Errorf("ParseAttr(%q) succeeded, want error containing %q", c.expr, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseAttr(%q) error = %v, want one containing %q", c.expr, err, c.want)
		}
	}
}

func TestSelect(t *testing.T) {
	legacy, err := Select("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) < 3 {
		t.Fatalf("Select(legacy) = %d scenarios, want the 3 pre-registry bodies", len(legacy))
	}
	for _, sc := range legacy {
		if !sc.attrSet()["legacy"] {
			t.Errorf("Select(legacy) returned %s without the attr", sc.Name)
		}
	}
	if _, err := Select("no-such-attr"); err == nil || !strings.Contains(err.Error(), "unknown attr") {
		t.Fatalf("Select with a typo = %v, want unknown-attr error", err)
	}
	if all, err := Select(""); err != nil || len(all) < 12 {
		t.Fatalf("Select(\"\") = %d scenarios, %v; want the full registry (>= 12)", len(all), err)
	}
}

func TestPreconditionUnmetReportsSkipped(t *testing.T) {
	bodyRan := false
	sc := &Scenario{
		Name: "t/unmet",
		Pre:  []Precondition{RequirePaths("/no/such/staged/path")},
		Body: func(context.Context, *Env) error {
			bodyRan = true
			return nil
		},
	}
	res := RunScenario(context.Background(), sc, []Mode{ModeAmbient, ModeSandboxed, ModeOracle})
	if len(res.Modes) != 3 {
		t.Fatalf("got %d mode results, want 3", len(res.Modes))
	}
	for _, m := range res.Modes {
		if m.Verdict != "skipped" {
			t.Errorf("%s verdict = %q, want skipped (detail: %s)", m.Mode, m.Verdict, m.Detail)
		}
		if m.Kind != "precondition" {
			t.Errorf("%s kind = %q, want precondition", m.Mode, m.Kind)
		}
	}
	if bodyRan {
		t.Fatal("body ran despite an unmet precondition")
	}
	if res.Verdict() == "passed" {
		t.Fatal("scenario verdict is passed; an unmet precondition must not count as a pass")
	}
}

const blockingAccept = `#lang shill/ambient
require shill/sockets;

f = socket_factory("ip");
l = socket_listen(f, "29997");
c = socket_accept(l);
`

func TestTimeoutCancelsLeakFree(t *testing.T) {
	sc := &Scenario{
		Name:    "t/timeout",
		Timeout: 200 * time.Millisecond,
		Ports:   []int{29997},
		Body: func(ctx context.Context, e *Env) error {
			r := e.Step(ctx, StepSpec{Name: "block", Driver: blockingAccept})
			if r.Status != "canceled" {
				return nil
			}
			return ctx.Err()
		},
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	res := RunScenario(context.Background(), sc, []Mode{ModeSandboxed})
	elapsed := time.Since(start)

	m := res.Modes[0]
	if m.Verdict != "failed" || m.Kind != "timeout" {
		t.Fatalf("verdict = %s/%s (%s), want failed/timeout", m.Verdict, m.Kind, m.Detail)
	}
	if len(m.Steps) != 1 || m.Steps[0].Status != "canceled" {
		t.Fatalf("steps = %+v, want one canceled step", m.Steps)
	}
	// PR 3's cancellation contract: the blocked run must come back well
	// within the promptness budget, not hang until some network timeout.
	if elapsed > 2*time.Second {
		t.Fatalf("timeout cancellation took %v, want < 2s", elapsed)
	}
	settleGoroutines(t, before)
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline — the leak assertion the PR 3 cancellation tests established.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by the cancelled scenario: %d before, %d after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
