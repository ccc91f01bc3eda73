package shill

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netstack"
	"repro/internal/prof"
)

// --- Grading ---

func gradingMachine(t *testing.T, install bool) *Machine {
	t.Helper()
	m := newTestMachine(t, WithModule(install))
	m.BuildGradingCourse(DefaultGrading)
	return m
}

func checkHonestGrades(t *testing.T, m *Machine, mode Mode) {
	t.Helper()
	// student000 is correct: all tests pass.
	g := m.GradeFor("student000")
	if !strings.Contains(g, "compiled") || strings.Contains(g, "fail") {
		t.Errorf("[%v] student000 grade = %q, want all passes", mode, g)
	}
	if got := strings.Count(g, "pass "); got != DefaultGrading.Tests {
		t.Errorf("[%v] student000 passes = %d, want %d", mode, got, DefaultGrading.Tests)
	}
	// student003 (i%7==3) prints the wrong answer: compiled, all fails.
	g = m.GradeFor("student003")
	if !strings.Contains(g, "compiled") || strings.Contains(g, "pass ") {
		t.Errorf("[%v] student003 grade = %q, want all fails", mode, g)
	}
	// student005 (i%7==5) does not compile.
	g = m.GradeFor("student005")
	if !strings.Contains(g, "compile-failed") {
		t.Errorf("[%v] student005 grade = %q, want compile-failed", mode, g)
	}
}

func TestGradingBaseline(t *testing.T) {
	m := gradingMachine(t, false)
	if err := m.RunGrading(bg, ModeAmbient); err != nil {
		t.Fatalf("baseline grading: %v\nconsole: %s", err, m.ConsoleText())
	}
	checkHonestGrades(t, m, ModeAmbient)
	// With ambient authority the cheater reads student000's submission
	// and passes; the vandal corrupts the test suite.
	if g := m.GradeFor("zz_cheater"); !strings.Contains(g, "pass t000") {
		t.Errorf("baseline cheater unexpectedly failed: %q", g)
	}
	if got, err := m.ReadFile("/course/tests/t000"); err != nil || got != "pwned" {
		t.Errorf("baseline vandal did not corrupt the test suite: %v %q", err, got)
	}
}

func TestGradingSandboxed(t *testing.T) {
	m := gradingMachine(t, true)
	if err := m.RunGrading(bg, ModeSandboxed); err != nil {
		t.Fatalf("sandboxed grading: %v\nconsole: %s", err, m.ConsoleText())
	}
	checkHonestGrades(t, m, ModeSandboxed)
	// The coarse sandbox protects the test suite...
	if got, err := m.ReadFile("/course/tests/t000"); err != nil || got == "pwned" {
		t.Error("sandboxed vandal corrupted the test suite")
	}
	// ...but cannot isolate students from each other: the cheater's
	// program runs with read access to all submissions (§4.1 motivates
	// the SHILL version with exactly this gap).
	if g := m.GradeFor("zz_cheater"); !strings.Contains(g, "pass t000") {
		t.Errorf("sandboxed cheater was blocked, which the coarse sandbox cannot do: %q", g)
	}
}

func TestGradingShillVersion(t *testing.T) {
	m := gradingMachine(t, true)
	if err := m.RunGrading(bg, ModeShill); err != nil {
		t.Fatalf("SHILL grading: %v\nconsole: %s", err, m.ConsoleText())
	}
	checkHonestGrades(t, m, ModeShill)
	// Fine-grained isolation: the cheater's read of another submission
	// fails inside its sandbox, so it passes no tests.
	if g := m.GradeFor("zz_cheater"); strings.Contains(g, "pass ") {
		t.Errorf("SHILL version let the cheater read another submission: %q", g)
	}
	// And the vandal cannot touch the test suite.
	if got, err := m.ReadFile("/course/tests/t000"); err != nil || got == "pwned" {
		t.Error("SHILL version let the vandal corrupt the test suite")
	}
}

// --- Emacs package management ---

func TestEmacsStepsSandboxed(t *testing.T) {
	m := newTestMachine(t)
	m.BuildEmacsOrigin(DefaultEmacs)
	stop, err := m.StartOrigin()
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer stop()
	for _, step := range AllEmacsSteps {
		if err := m.RunEmacsStep(bg, step, ModeSandboxed); err != nil {
			t.Fatalf("step %s: %v\nconsole: %s", step, err, m.ConsoleText())
		}
	}
	if _, err := m.ReadFile("/home/user/.local/bin/emacs"); err == nil {
		t.Fatal("uninstall left /home/user/.local/bin/emacs behind")
	}
}

func TestEmacsStepsBaseline(t *testing.T) {
	m := newTestMachine(t, WithModule(false))
	m.BuildEmacsOrigin(DefaultEmacs)
	stop, err := m.StartOrigin()
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer stop()
	for _, step := range AllEmacsSteps[:5] { // through install
		if err := m.RunEmacsStep(bg, step, ModeAmbient); err != nil {
			t.Fatalf("step %s: %v\nconsole: %s", step, err, m.ConsoleText())
		}
	}
	got, err := m.ReadFile("/home/user/.local/bin/emacs")
	if err != nil {
		t.Fatalf("install did not produce emacs: %v\nconsole: %s", err, m.ConsoleText())
	}
	if !strings.HasPrefix(got, "#!bin:") {
		t.Fatal("installed emacs is not an executable image")
	}
}

func TestEmacsShillVersion(t *testing.T) {
	m := newTestMachine(t)
	m.BuildEmacsOrigin(DefaultEmacs)
	stop, err := m.StartOrigin()
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer stop()
	if err := m.RunEmacsShill(bg); err != nil {
		t.Fatalf("pkg_emacs: %v\nconsole: %s", err, m.ConsoleText())
	}
	// The script installs and then uninstalls; the DOC and binary must
	// be gone, but the share directory (not in the manifest) remains.
	if _, err := m.ReadFile("/home/user/.local/bin/emacs"); err == nil {
		t.Fatal("uninstall left the emacs binary behind")
	}
	if _, err := m.ReadFile("/home/user/.local/share/emacs"); err != nil {
		t.Fatal("uninstall removed more than its manifest")
	}
}

// --- Apache ---

func TestApacheSandboxed(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	w := ApacheWorkload{FileMB: 1, Requests: 8, Concurrency: 4}
	m.BuildWWW(w)
	res, err := m.RunApache(bg, ModeSandboxed, w)
	if err != nil {
		t.Fatalf("apache: %v\nconsole: %s", err, m.ConsoleText())
	}
	if !strings.Contains(res.Console, "Failed requests: 0") {
		t.Fatalf("ab reported failures: %s", res.Console)
	}
	// The access log was written through the write-only log capability.
	logData, err := m.ReadFile("/var/log/httpd-access.log")
	if err != nil {
		t.Fatal("no access log written")
	}
	if got := strings.Count(logData, "GET /big.bin 200"); got != w.Requests {
		t.Fatalf("access log has %d entries, want %d", got, w.Requests)
	}
}

// TestApacheNotIsolatedFromSystem reproduces the §5 claim that SHILL
// sandboxes, unlike container-style isolation, leave the rest of the
// system live: while the sandboxed server runs, an ambient process adds
// new web content and reads the growing log.
func TestApacheNotIsolatedFromSystem(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	w := ApacheWorkload{FileMB: 1, Requests: 2, Concurrency: 1}
	m.BuildWWW(w)

	serverDone := make(chan error, 1)
	go func() {
		_, err := m.DefaultSession().Run(bg, shippedScript("apache.ambient"))
		serverDone <- err
	}()
	if err := m.kernel().Net.WaitListener(netstack.DomainIP, "8080", 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}

	// Concurrently add new content with ambient authority...
	if err := m.WriteFile("/usr/local/www/new.html", []byte("<p>fresh</p>"), 0o644, 0); err != nil {
		t.Fatal(err)
	}
	// ...and fetch it through the running sandboxed server, from a
	// private session (the default session is busy serving).
	client := m.NewSession()
	defer client.Close()
	res, err := client.RunCommand(bg, []string{"/usr/bin/curl", "http://localhost:8080/new.html"}, "")
	if err != nil || res.ExitStatus != 0 {
		t.Fatalf("curl new content = %v, %v", res, err)
	}
	if !strings.Contains(res.Console, "fresh") {
		t.Fatalf("new content not served: %q", res.Console)
	}
	// The log is readable ambiently while the server holds its
	// write-only capability. httpd appends the line after sending the
	// response, so it may land just after curl returns.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		logData, err := m.ReadFile("/var/log/httpd-access.log")
		if err == nil && strings.Contains(logData, "GET /new.html 200") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("log not visible to concurrent readers")
		}
	}
	m.shutdownListener("8080")
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestApacheBaseline(t *testing.T) {
	m := newTestMachine(t, WithModule(false), WithConsoleLimit(1<<20))
	w := ApacheWorkload{FileMB: 1, Requests: 4, Concurrency: 2}
	m.BuildWWW(w)
	res, err := m.RunApache(bg, ModeAmbient, w)
	if err != nil {
		t.Fatalf("apache: %v\nconsole: %s", err, m.ConsoleText())
	}
	if !strings.Contains(res.Console, "Failed requests: 0") {
		t.Fatalf("ab reported failures: %s", res.Console)
	}
}

// --- Find ---

func TestFindAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeAmbient, ModeSandboxed, ModeShill} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m := newTestMachine(t, WithModule(mode != ModeAmbient), WithConsoleLimit(1<<20))
			_, _, matches := m.BuildSrcTree(DefaultFind)
			if err := m.RunFind(bg, mode); err != nil {
				t.Fatalf("find: %v\nconsole: %s", err, m.ConsoleText())
			}
			got := m.Matches()
			lines := 0
			for _, l := range strings.Split(got, "\n") {
				if strings.Contains(l, "mac_") && strings.Contains(l, ".c:") {
					lines++
				}
			}
			if lines != matches {
				t.Fatalf("matched %d lines, want %d\noutput: %s\nconsole: %s",
					lines, matches, got, m.ConsoleText())
			}
		})
	}
}

// TestFindShillSandboxCount verifies the fine-grained version creates a
// sandbox per .c file (plus the pkg_native ldd sandbox), the behaviour
// behind the paper's 15,292-sandbox figure.
func TestFindShillSandboxCount(t *testing.T) {
	m := newTestMachine(t, WithConsoleLimit(1<<20))
	_, cFiles, _ := m.BuildSrcTree(DefaultFind)
	m.Prof().Reset()
	if err := m.RunFind(bg, ModeShill); err != nil {
		t.Fatalf("find: %v", err)
	}
	got := m.Prof().Count(prof.SandboxSetup)
	want := int64(cFiles + 1)
	if got != want {
		t.Fatalf("sandboxes = %d, want %d (one per .c file + ldd)", got, want)
	}
}
