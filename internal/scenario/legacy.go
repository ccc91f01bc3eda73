package scenario

import (
	"context"
	"fmt"
	"time"
)

// The legacy scenario set: the exact request bodies the serving load
// generator hardcoded before the registry existed. They are registered
// because they are loadgen's default mix, which both smoke scripts
// (scripts/shilld-smoke.sh, scripts/router-smoke.sh) drive through
// `shill-load -check`; loadgen samples these probes from the registry.

// LegacyAllowScript is the minimal allowed run: print "ok" and exit 0.
const LegacyAllowScript = "#lang shill/ambient\n\nappend(stdout, \"ok\\n\");\n"

// LegacyCancelScript renders the blocking run the cancel kind relies
// on: it binds a listener and blocks in accept until the server-side
// deadline kills it. Each request gets its own port so concurrent
// cancels on one machine don't collide.
func LegacyCancelScript(port int) string {
	return fmt.Sprintf(`#lang shill/ambient
require shill/sockets;

append(stdout, "blocking\n");
f = socket_factory("ip");
l = socket_listen(f, "%d");
c = socket_accept(l);
`, port)
}

// legacyTamperCap is the deny body as a capability module: the contract
// attenuates the file to read-only, and the unguarded-then-fatal write
// makes the denial the run's outcome (unlike the built-in
// why_denied.cap, whose guarded write only reports).
const legacyTamperCap = `#lang shill/cap

provide poke : {f : file(+read, +stat)} -> void;

poke = fun(f) {
  r = write(f, "tampered");
  if is_syserror(r) then {
    error("poke: " + to_string(r));
  }
};
`

const legacyTamperDriver = `#lang shill/ambient
require "tamper.cap";

doc = open_file("/home/user/Documents/dog.jpg");
poke(doc);
`

func init() {
	Register(Scenario{
		Name:  "legacy/allow",
		Desc:  "the load generator's allowed run: print ok, exit 0",
		Attrs: []string{"legacy"},
		Body: func(ctx context.Context, e *Env) error {
			e.Step(ctx, StepSpec{Name: "allow", Driver: LegacyAllowScript, CompareConsole: true, Expect: okBoth})
			return nil
		},
		Probes: []Probe{{
			Name: "allow",
			Kind: KindAllow,
			Request: func(int64) ProbeRequest {
				return ProbeRequest{Script: LegacyAllowScript, WantConsole: "ok\n"}
			},
		}},
	})

	Register(Scenario{
		Name:       "legacy/deny",
		Desc:       "the load generator's denied run: a read-only contract rejects a write",
		Attrs:      []string{"legacy", "sandbox"},
		Fixture:    "demo",
		Pre:        []Precondition{RequirePaths("/home/user/Documents/dog.jpg")},
		WriteRoots: []string{"/home/user/Documents"},
		Body: func(ctx context.Context, e *Env) error {
			e.Step(ctx, StepSpec{
				Name: "deny", Driver: legacyTamperDriver, Module: "tamper.cap", Cap: legacyTamperCap,
				Expect: deniedSandboxed,
			})
			return nil
		},
		Probes: []Probe{{
			Name: "deny",
			Kind: KindDeny,
			Request: func(int64) ProbeRequest {
				// The built-in script every shilld tenant machine resolves;
				// its contract denies the write regardless of leg.
				return ProbeRequest{ScriptName: "why_denied.ambient"}
			},
		}},
	})

	Register(Scenario{
		Name:  "legacy/cancel",
		Desc:  "the load generator's cancelled run: block in accept until the deadline kills it",
		Attrs: []string{"legacy", "net"},
		Ports: []int{28090},
		Body: func(ctx context.Context, e *Env) error {
			e.Step(ctx, StepSpec{
				Name:     "block",
				Driver:   LegacyCancelScript(28090),
				Deadline: 150 * time.Millisecond,
				Expect:   map[Mode]string{ModeAmbient: "canceled", ModeSandboxed: "canceled"},
			})
			return nil
		},
		Probes: []Probe{{
			Name:       "cancel",
			Kind:       KindCancel,
			DeadlineMs: 80,
			Request: func(i int64) ProbeRequest {
				// Ports spread over [20000, 52000) so concurrent cancels on
				// one machine don't collide.
				return ProbeRequest{Script: LegacyCancelScript(20000 + int(i%32000))}
			},
		}},
	})
}
