package shill

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// These tests exercise the concurrent multi-session path end to end
// (run them under -race): N sessions, each with its own runtime
// process, console device, and course tree, grade simultaneously
// against one shared kernel. They assert both that the runs succeed and
// that isolation holds — no session's output or grades bleed into
// another's.

func parallelWorkload() GradingWorkload {
	return GradingWorkload{Students: 3, Tests: 2, Malicious: true}
}

func TestParallelGradingShill(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	const n = 4
	w := parallelWorkload()
	results, err := m.RunGradingSessions(bg, n, ModeShill, w)
	if err != nil {
		t.Fatalf("parallel grading: %v", err)
	}
	for _, r := range results {
		out := r.Result.Console
		if !strings.Contains(out, "grading-complete") {
			t.Errorf("session %d console = %q, want grading-complete", r.Index, out)
		}
		// Consoles are private: exactly one completion marker each.
		if got := strings.Count(out, "grading-complete"); got != 1 {
			t.Errorf("session %d completion markers = %d, want 1", r.Index, got)
		}
		root := GradingRoot(r.Index)
		g := m.GradeAt(root, "student000")
		if !strings.Contains(g, "compiled") || strings.Contains(g, "fail") {
			t.Errorf("session %d student000 grade = %q, want all passes", r.Index, g)
		}
		if got := strings.Count(g, "pass "); got != w.Tests {
			t.Errorf("session %d student000 passes = %d, want %d", r.Index, got, w.Tests)
		}
		// The SHILL version confines the vandal in every session: no
		// course's test suite is corrupted.
		tests, err := m.ReadFile(root + "/tests/t000")
		if err != nil {
			t.Fatalf("session %d: %v", r.Index, err)
		}
		if tests != "answer000" {
			t.Errorf("session %d vandal corrupted tests: %q", r.Index, tests)
		}
	}
}

// TestParallelGradingWorkloadSwitch: staging is keyed on the workload,
// not just on the course root existing — rerunning with a different
// GradingWorkload must rebuild the trees, not silently grade the old
// course.
func TestParallelGradingWorkloadSwitch(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	fs := m.kernel().FS
	const n = 2
	small := GradingWorkload{Students: 3, Tests: 2}
	big := GradingWorkload{Students: 10, Tests: 5, Malicious: true}
	for _, w := range []GradingWorkload{small, big, small} {
		if _, err := m.RunGradingSessions(bg, n, ModeShill, w); err != nil {
			t.Fatalf("grading %+v: %v", w, err)
		}
		want := w.Students
		if w.Malicious {
			want += 2 // zz_cheater and zz_vandal
		}
		for i := 0; i < n; i++ {
			root := GradingRoot(i)
			dir, err := fs.Resolve(root + "/submissions")
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			names, _ := fs.ReadDir(dir)
			if len(names) != want {
				t.Errorf("session %d with %+v: %d submissions, want %d", i, w, len(names), want)
			}
			grades, err := fs.Resolve(root + "/grades")
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			graded, _ := fs.ReadDir(grades)
			if len(graded) != want {
				t.Errorf("session %d with %+v: %d grades, want %d", i, w, len(graded), want)
			}
		}
	}
}

func TestParallelGradingSandboxed(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	const n = 3
	results, err := m.RunGradingSessions(bg, n, ModeSandboxed, parallelWorkload())
	if err != nil {
		t.Fatalf("parallel sandboxed grading: %v", err)
	}
	for _, r := range results {
		if !strings.Contains(r.Result.Console, "grading-complete") {
			t.Errorf("session %d console = %q, want grading-complete", r.Index, r.Result.Console)
		}
	}
}

func TestParallelGradingRepeatable(t *testing.T) {
	// Back-to-back runs over the same sessions must reuse pooled
	// sessions (no process-table growth) and still produce clean
	// results.
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	const n = 2
	w := parallelWorkload()
	if _, err := m.RunGradingSessions(bg, n, ModeShill, w); err != nil {
		t.Fatal(err)
	}
	procsAfterFirst := len(m.kernel().Procs())
	for round := 0; round < 2; round++ {
		results, err := m.RunGradingSessions(bg, n, ModeShill, w)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, r := range results {
			if !strings.Contains(r.Result.Console, "grading-complete") {
				t.Errorf("round %d session %d console = %q", round, r.Index, r.Result.Console)
			}
		}
	}
	if got := len(m.kernel().Procs()); got > procsAfterFirst {
		t.Errorf("process table grew across runs: %d -> %d", procsAfterFirst, got)
	}
}

func TestRunSessionsIsolatedConsoles(t *testing.T) {
	// The generic runner: each session writes a distinct marker through
	// its own console device; captures must not interleave.
	m := newTestMachine(t)
	const n = 8
	results, err := m.RunSessions(bg, n, func(ctx context.Context, s *Session) (*Result, error) {
		marker := fmt.Sprintf("session-%d-marker", s.Index())
		res, err := s.RunCommand(ctx, []string{"/bin/echo", marker}, "")
		if err != nil {
			return res, err
		}
		if res.ExitStatus != 0 {
			return res, fmt.Errorf("echo exited %d", res.ExitStatus)
		}
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want := fmt.Sprintf("session-%d-marker\n", r.Index)
		if r.Result.Console != want {
			t.Errorf("session %d console = %q, want %q", r.Index, r.Result.Console, want)
		}
		if r.Elapsed < 0 || r.Elapsed > time.Minute {
			t.Errorf("session %d implausible elapsed %v", r.Index, r.Elapsed)
		}
	}
}

func TestRunSessionsStdoutBuiltinIsolated(t *testing.T) {
	// The ambient stdout/stderr builtins must bind each session's
	// private console, not the shared /dev/console.
	m := newTestMachine(t)
	const n = 4
	results, err := m.RunSessions(bg, n, func(ctx context.Context, s *Session) (*Result, error) {
		src := fmt.Sprintf("#lang shill/ambient\n\nappend(stdout, \"builtin-%d\\n\");\n", s.Index())
		return s.Run(ctx, Script{Name: "stdout.ambient", Source: src})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want := fmt.Sprintf("builtin-%d\n", r.Index)
		if r.Result.Console != want {
			t.Errorf("session %d console = %q, want %q", r.Index, r.Result.Console, want)
		}
	}
	if shared := m.ConsoleText(); shared != "" {
		t.Errorf("shared /dev/console captured session output: %q", shared)
	}
}

func TestStreamSessionsDeliversAsFinished(t *testing.T) {
	// The streaming runner must deliver results as sessions complete:
	// with one deliberately slow session, every fast session's result
	// arrives before the slow one's.
	m := newTestMachine(t)
	const n = 4
	var order []int
	for r := range m.StreamSessions(bg, n, func(ctx context.Context, s *Session) (*Result, error) {
		if s.Index() == 0 {
			time.Sleep(300 * time.Millisecond)
		}
		return s.RunCommand(ctx, []string{"/bin/echo", "hi"}, "")
	}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		order = append(order, r.Index)
	}
	if len(order) != n {
		t.Fatalf("got %d results, want %d", len(order), n)
	}
	if order[len(order)-1] != 0 {
		t.Errorf("slow session finished at position %v, want last (order %v)", order, order)
	}
}

func TestParallelGradingThroughputScales(t *testing.T) {
	// The qualitative version of `benchfig -fig parallel`: with
	// simulated spawn latency (standing in for the real testbed's
	// fork/exec cost) concurrent sessions must finish much faster than
	// the same work run back to back.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	m := newTestMachine(t, WithConsoleLimit(1<<20), WithSpawnLatency(2*time.Millisecond))
	const n = 8
	w := GradingWorkload{Students: 2, Tests: 1}
	m.PrepareGradingSessions(n, w) // stage outside the timed region

	serial := time.Duration(0)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := m.RunGradingSessions(bg, 1, ModeShill, w); err != nil {
			t.Fatal(err)
		}
		serial += time.Since(start)
	}
	start := time.Now()
	if _, err := m.RunGradingSessions(bg, n, ModeShill, w); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)
	// Require a clear win, not statistical noise: 8 concurrent sessions
	// should beat 8 serial runs by at least 2x when latency dominates.
	if parallel > serial/2 {
		t.Errorf("parallel %v vs serial %v: expected at least 2x speedup", parallel, serial)
	}
}
