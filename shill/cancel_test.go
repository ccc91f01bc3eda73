package shill

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Cancellation contract (the PR 1 postmortem: a hung eval loop cost a
// 600-second timeout): a deliberately non-terminating script cancelled
// via context deadline must return promptly, leak no goroutines, and
// leave the session reusable.

// spinScript loops effectively forever in the interpreter: ~10^10
// iterations of pure evaluation, no kernel waits.
const spinScript = `#lang shill/cap

provide spin : {} -> void;

spin = fun() {
  for a in range(100000) {
    for b in range(100000) {
      b;
    }
  }
};
`

const spinAmbient = `#lang shill/ambient
require "spin.cap";
spin();
`

// acceptScript parks the interpreter in a blocking kernel wait: the
// listener never receives a connection, so socket_accept blocks until
// cancellation interrupts the session's process.
const acceptAmbient = `#lang shill/ambient
require shill/sockets;

f = socket_factory("ip");
l = socket_listen(f, "9997");
c = socket_accept(l);
`

// assertCanceledPromptly runs src with a short deadline and asserts the
// run came back well within the 2-second promptness budget.
func assertCanceledPromptly(t *testing.T, m *Machine, s *Session, name, src string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Run(ctx, Script{Name: name, Source: src})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("%s: cancelled run reported success", name)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: error does not carry the deadline: %v", name, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("%s: cancellation took %v, want < 2s", name, elapsed)
	}
}

// assertSessionReusable proves the session still runs scripts cleanly.
func assertSessionReusable(t *testing.T, s *Session) {
	t.Helper()
	res, err := s.Run(context.Background(), Script{Name: "alive.ambient",
		Source: "#lang shill/ambient\n\nappend(stdout, \"alive\\n\");\n"})
	if err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
	if res.Console != "alive\n" {
		t.Fatalf("session console after cancellation = %q", res.Console)
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (with a small allowance for runtime background goroutines).
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
			t.Fatalf("goroutines leaked by cancelled runs: %d before, %d after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelInfiniteEvalLoop(t *testing.T) {
	m := newTestMachine(t)
	m.AddScript("spin.cap", spinScript)
	s := m.NewSession()
	defer s.Close()

	before := runtime.NumGoroutine()
	assertCanceledPromptly(t, m, s, "spin.ambient", spinAmbient)
	settleGoroutines(t, before)
	assertSessionReusable(t, s)
}

func TestCancelBlockedSocketAccept(t *testing.T) {
	m := newTestMachine(t)
	s := m.NewSession()
	defer s.Close()

	before := runtime.NumGoroutine()
	assertCanceledPromptly(t, m, s, "accept.ambient", acceptAmbient)
	settleGoroutines(t, before)
	assertSessionReusable(t, s)
}

func TestCancelSandboxedCommand(t *testing.T) {
	// A script blocked waiting on a sandboxed executable (here: httpd,
	// which serves forever) must be cancellable too; the sandboxed
	// process tree is killed and reaped.
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	m.BuildWWW(ApacheWorkload{FileMB: 1, Requests: 1, Concurrency: 1})
	s := m.NewSession()
	defer s.Close()

	before := runtime.NumGoroutine()
	procsBefore := len(m.kernel().Procs())
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Run(ctx, shippedScript("apache.ambient"))
	if err == nil {
		t.Fatal("cancelled server run reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	settleGoroutines(t, before)
	if got := len(m.kernel().Procs()); got > procsBefore {
		t.Fatalf("cancelled run leaked processes: %d before, %d after", procsBefore, got)
	}
	assertSessionReusable(t, s)
}

func TestCancelRunCommand(t *testing.T) {
	// RunCommand on a non-terminating binary: the wait wakes with EINTR,
	// the child is killed and reaped.
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	m.BuildWWW(ApacheWorkload{FileMB: 1, Requests: 1, Concurrency: 1})
	s := m.NewSession()
	defer s.Close()

	procsBefore := len(m.kernel().Procs())
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.RunCommand(ctx, []string{"/usr/local/sbin/httpd", "-f", "/usr/local/etc/apache22/httpd.conf"}, "")
	if err == nil {
		t.Fatal("cancelled command reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if got := len(m.kernel().Procs()); got > procsBefore {
		t.Fatalf("cancelled command leaked processes: %d before, %d after", procsBefore, got)
	}
	assertSessionReusable(t, s)
}

func TestCancelDoesNotDisturbSiblingSessions(t *testing.T) {
	// Cancellation is per-session: while one session's run is cancelled,
	// a sibling session's concurrent run completes normally.
	m := newTestMachine(t)
	m.AddScript("spin.cap", spinScript)
	victim := m.NewSession()
	defer victim.Close()
	bystander := m.NewSession()
	defer bystander.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, err := victim.Run(ctx, Script{Name: "spin.ambient", Source: spinAmbient})
		done <- err
	}()
	res, err := bystander.Run(context.Background(), Script{Name: "ok.ambient",
		Source: "#lang shill/ambient\n\nappend(stdout, \"untouched\\n\");\n"})
	if err != nil {
		t.Fatalf("bystander run failed: %v", err)
	}
	if res.Console != "untouched\n" {
		t.Fatalf("bystander console = %q", res.Console)
	}
	if verr := <-done; verr == nil {
		t.Fatal("victim run was not cancelled")
	}
	assertSessionReusable(t, victim)
}

func TestSessionPoolNoDoubleOwnership(t *testing.T) {
	// A closed session's slot may be reclaimed either by the internal
	// index-keyed pool (drivers) or by NewSession — never by both.
	m := newTestMachine(t)
	first := m.NewSession()
	idx := first.Index()
	first.Close()
	claimed := m.session(idx) // a parallel driver claims the slot back
	fresh := m.NewSession()
	defer fresh.Close()
	if fresh == claimed {
		t.Fatal("NewSession handed out a slot the driver pool had claimed")
	}
}

func TestStreamConsoleTee(t *testing.T) {
	// Streaming: a tee writer sees the run's console output live.
	m := newTestMachine(t)
	s := m.NewSession()
	defer s.Close()
	var sb strings.Builder
	s.StreamConsole(&sb)
	defer s.StreamConsole(nil)
	res, err := s.Run(context.Background(), Script{Name: "tee.ambient",
		Source: "#lang shill/ambient\n\nappend(stdout, \"streamed\\n\");\n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Console != "streamed\n" || sb.String() != "streamed\n" {
		t.Fatalf("capture = %q, stream = %q; want both %q", res.Console, sb.String(), "streamed\n")
	}
}

// panicResolver panics on every lookup: a stand-in for any fault under
// eval that the interpreter does not turn into a script error.
type panicResolver struct{}

func (panicResolver) Load(name string) (string, error) { panic("resolver exploded on " + name) }

// TestRunContainsPanic: a panic under eval comes back from Run as an
// error carrying the stack, and the run's cancel watcher is released as
// for any failed run. Were the watcher left armed, cancelling the run's
// context would interrupt the session, and its next command would die
// with EINTR and exit 137.
func TestRunContainsPanic(t *testing.T) {
	m := newTestMachine(t)
	s := m.NewSession()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic escaped Run: %v", r)
			}
		}()
		_, err = s.Run(ctx, Script{
			Name:     "boom.ambient",
			Source:   "#lang shill/ambient\nrequire \"boom.cap\";\n",
			Resolver: panicResolver{},
		})
		return err
	}()
	cancel()
	if err == nil || !strings.Contains(err.Error(), "shill: run panicked: resolver exploded on boom.cap") {
		t.Errorf("Run = %v, want the contained panic", err)
	}
	time.Sleep(20 * time.Millisecond) // let a leaked watcher fire
	res, err := s.RunCommand(context.Background(), []string{"/bin/true"}, "")
	if err != nil {
		t.Fatalf("next RunCommand: %v", err)
	}
	if res.ExitStatus != 0 {
		t.Fatalf("next RunCommand exited %d, want 0", res.ExitStatus)
	}
}
