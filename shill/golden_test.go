package shill_test

// Golden transcripts of the interpreter's observable behaviour at the
// machine level: every case-study script and a fixed set of generated
// programs run on fresh machines, and each run's outcome — run error,
// exit status, console bytes, resolved denial keys and the full
// filesystem snapshot — is rendered into a transcript whose digest must
// match testdata/golden.txt. The goldens were recorded while a second,
// compiled engine still existed and agreed with tree-walk on every
// case, so they pin the language's semantics rather than one
// implementation's accidents.
//
// After an intended behaviour change, rewrite the file with
//
//	go test ./shill -run 'TestEngineDiff' -golden.update

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/shill"
)

var goldenUpdate = flag.Bool("golden.update", false,
	"rewrite shill/testdata/golden.txt from this run's transcripts")

const goldenPath = "testdata/golden.txt"

// goldenSeeds is the generated half of the corpus: gen.New(seed) for
// every seed in [1, goldenSeeds].
const goldenSeeds = 200

// goldenBlob bounds how much of one file a transcript quotes; larger
// files are recorded by length and digest, so a failing case prints
// in full without megabytes of payload.
const goldenBlob = 1 << 10

// outcome is everything one run exposes to an observer.
type outcome struct {
	err     string
	console string
	denials []string
	fs      map[string]string
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// denialKeys renders a denial sequence order-preservingly. Seq and
// CapID are identifiers, not semantics, and are excluded; everything a
// user sees in a why-denied report is included.
func denialKeys(ds []*shill.DenyReason) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		r := d.Resolve()
		out[i] = fmt.Sprintf("[%v] %s %s missing=%v blame=%v",
			r.Layer, r.Op, r.Object, r.Missing, r.Blame)
	}
	return out
}

// transcript renders an outcome deterministically.
func (o outcome) transcript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "err: %q\n--console--\n%s\n--denials--\n", o.err, o.console)
	for _, d := range o.denials {
		b.WriteString(d + "\n")
	}
	b.WriteString("--fs--\n")
	paths := make([]string, 0, len(o.fs))
	for p := range o.fs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		v := o.fs[p]
		if len(v) > goldenBlob {
			sum := sha256.Sum256([]byte(v))
			v = fmt.Sprintf("%d bytes sha256=%x", len(v), sum[:8])
		} else {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, "%s %s\n", p, v)
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// observed collects this run's digests under -golden.update.
var observed = map[string]string{}

// readGoldens loads the committed digest table.
func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if errors.Is(err, fs.ErrNotExist) && *goldenUpdate {
		return want
	}
	if err != nil {
		t.Fatalf("loading goldens: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = sum
	}
	return want
}

// checkGolden compares one case's transcript with its golden digest,
// printing the transcript (and any extra context, such as the
// generated sources) in full on a mismatch.
func checkGolden(t *testing.T, want map[string]string, name, transcript, context string) {
	t.Helper()
	got := digest(transcript)
	if *goldenUpdate {
		observed[name] = got
		return
	}
	switch w, ok := want[name]; {
	case !ok:
		t.Errorf("%s: no golden digest recorded (run with -golden.update)\n--- transcript ---\n%s%s", name, transcript, context)
	case w != got:
		t.Errorf("%s: transcript digest %s, golden %s\n--- transcript ---\n%s%s", name, got, w, transcript, context)
	}
}

// writeGoldens merges this run's digests into the golden file, keeping
// entries for cases that did not run.
func writeGoldens(t *testing.T) {
	t.Helper()
	if !*goldenUpdate {
		return
	}
	all := readGoldens(t)
	for name, sum := range observed {
		all[name] = sum
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Transcript digests for shill/golden_test.go; regenerate with\n")
	b.WriteString("#   go test ./shill -run 'TestEngineDiff' -golden.update\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, all[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ===========================================================================
// Case studies
// ===========================================================================

// goldenCase runs one case-study configuration on a fresh machine. The
// run callback returns the console text it vouches for; the harness
// additionally records the machine console, the full FS snapshot, and
// the machine-wide denial sequence.
type goldenCase struct {
	name     string
	workload shill.Workload
	opts     []shill.Option
	setup    func(t *testing.T, m *shill.Machine)
	run      func(ctx context.Context, m *shill.Machine) (console string, err error)
}

func runGoldenCase(t *testing.T, c goldenCase) outcome {
	t.Helper()
	m, err := shill.NewMachine(append([]shill.Option{shill.WithWorkload(c.workload)}, c.opts...)...)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	t.Cleanup(m.Close)
	if c.setup != nil {
		c.setup(t, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	console, runErr := c.run(ctx, m)
	return outcome{
		err:     errString(runErr),
		console: console + "\n--machine console--\n" + m.ConsoleText(),
		denials: denialKeys(m.AuditDenialsSince(0)),
		fs:      m.SnapshotFS(nil),
	}
}

// runNamed runs one of the machine's embedded scripts by name on the
// default session.
func runNamed(ctx context.Context, m *shill.Machine, name string) (string, error) {
	res, err := m.DefaultSession().Run(ctx, shill.Script{Name: name})
	if res == nil {
		return "", err
	}
	return fmt.Sprintf("exit=%d\n%s", res.ExitStatus, res.Console), err
}

// runInline runs an inline ambient driver on the default session.
func runInline(ctx context.Context, m *shill.Machine, src string) (string, error) {
	res, err := m.DefaultSession().Run(ctx, shill.Script{Name: "main.ambient", Source: src})
	if res == nil {
		return "", err
	}
	return fmt.Sprintf("exit=%d\n%s", res.ExitStatus, res.Console), err
}

func goldenCaseStudies() []goldenCase {
	return []goldenCase{
		{
			// why_denied.ambient + why_denied.cap: the canonical denied
			// run, so the deny path (and its lazy provenance) is pinned
			// end to end.
			name:     "why_denied",
			workload: shill.WorkloadDemo,
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return runNamed(ctx, m, "why_denied.ambient")
			},
		},
		{
			// jpeginfo.ambient + jpeginfo.cap (Figures 4 and 6).
			name:     "jpeginfo",
			workload: shill.WorkloadDemo,
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return runNamed(ctx, m, "jpeginfo.ambient")
			},
		},
		{
			// find_jpg.cap (Figure 3) via an inline ambient driver.
			name:     "find_jpg",
			workload: shill.WorkloadNone,
			setup: func(t *testing.T, m *shill.Machine) {
				stageFiles(t, m, map[string]string{
					"/home/user/pics/a.jpg":     "JFIFa",
					"/home/user/pics/sub/b.jpg": "JFIFb",
					"/home/user/pics/notes.txt": "x",
					"/home/user/out.txt":        "",
				})
			},
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return runInline(ctx, m, `#lang shill/ambient
require "find_jpg.cap";

pics = open_dir("/home/user/pics");
out = open_file("/home/user/out.txt");
find_jpg(pics, out);
`)
			},
		},
		{
			// find.cap (Figure 5): the polymorphic find with a client
			// module, exercising cross-module closures under contract.
			name:     "find_poly",
			workload: shill.WorkloadNone,
			setup: func(t *testing.T, m *shill.Machine) {
				stageFiles(t, m, map[string]string{
					"/home/user/tree/x.c":     "int main(){}",
					"/home/user/tree/sub/y.c": "void f(){}",
					"/home/user/tree/z.txt":   "no",
					"/home/user/found.txt":    "",
				})
				m.AddScript("driver.cap", `#lang shill/cap
require "find.cap";

provide run_find :
  {tree : dir(+contents, +lookup, +path, +stat, +read),
   out : file(+append)} -> void;

run_find = fun(tree, out) {
  find(tree,
       fun(f) { has_ext(f, "c"); },
       fun(f) { append(out, path(f) + "\n"); });
};
`)
			},
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return runInline(ctx, m, `#lang shill/ambient
require "find.cap";
require "driver.cap";

tree = open_dir("/home/user/tree");
out = open_file("/home/user/found.txt");
run_find(tree, out);
`)
			},
		},
		{
			// grade.ambient + grade.cap: the fine-grained SHILL grader.
			name:     "grade_shill",
			workload: shill.WorkloadGrading,
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return "", m.RunGrading(ctx, shill.ModeShill)
			},
		},
		{
			// grade_sandbox.ambient + grade_sandbox.cap + run_cmd.cap +
			// grade.sh: the single-sandbox grader.
			name:     "grade_sandbox",
			workload: shill.WorkloadGrading,
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return "", m.RunGrading(ctx, shill.ModeSandboxed)
			},
		},
		{
			// pkg_emacs.ambient + pkg_emacs.cap: download through
			// uninstall, each step under its own contract.
			name:     "pkg_emacs",
			workload: shill.WorkloadEmacs,
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return "", m.RunEmacsShill(ctx)
			},
		},
		{
			// apache.ambient + apache.cap: sandboxed httpd driven by ab
			// (single-connection so the access log is deterministic).
			name:     "apache",
			workload: shill.WorkloadApache,
			opts:     []shill.Option{shill.WithConsoleLimit(1 << 20)},
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				w := shill.ApacheWorkload{FileMB: 1, Requests: 4, Concurrency: 1}
				res, err := m.RunApache(ctx, shill.ModeShill, w)
				if res == nil {
					return "", err
				}
				return res.Console, err
			},
		},
		{
			// findgrep.ambient + findgrep.cap + run_cmd.cap.
			name:     "findgrep",
			workload: shill.WorkloadFind,
			opts:     []shill.Option{shill.WithConsoleLimit(1 << 20)},
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return "", m.RunFind(ctx, shill.ModeSandboxed)
			},
		},
		{
			// findgrep_fine.ambient + findgrep_fine.cap: the
			// sandbox-per-file version.
			name:     "findgrep_fine",
			workload: shill.WorkloadFind,
			opts:     []shill.Option{shill.WithConsoleLimit(1 << 20)},
			run: func(ctx context.Context, m *shill.Machine) (string, error) {
				return "", m.RunFind(ctx, shill.ModeShill)
			},
		},
	}
}

func stageFiles(t *testing.T, m *shill.Machine, files map[string]string) {
	t.Helper()
	names := make([]string, 0, len(files))
	for p := range files {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		if err := m.WriteFile(p, []byte(files[p]), 0o644, shill.UserUID); err != nil {
			t.Fatalf("stage %s: %v", p, err)
		}
	}
}

// TestEngineDiffCaseStudies runs every embedded case-study script —
// the full contents of the machine script table — on a fresh machine
// and diffs its transcript against the golden.
func TestEngineDiffCaseStudies(t *testing.T) {
	want := readGoldens(t)
	t.Cleanup(func() { writeGoldens(t) })
	for _, c := range goldenCaseStudies() {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, want, "case/"+c.name, runGoldenCase(t, c).transcript(), "")
		})
	}
}

// ===========================================================================
// Generated corpus
// ===========================================================================

// genRunTimeout bounds one generated variant; a program blocking past
// it is recorded as a cancelled run.
const genRunTimeout = 30 * time.Second

// runGenProgram runs both rendered variants of a generated program —
// capability-sandboxed and ambient — on one fresh machine and returns
// the combined outcome. Harness failures (machine construction,
// staging) are returned as errors and are not verdicts.
func runGenProgram(p *gen.Program) (outcome, error) {
	var out outcome
	m, err := shill.NewMachine()
	if err != nil {
		return out, err
	}
	defer m.Close()

	variants := []struct {
		root     string
		portBase int
		ambient  bool
	}{
		{"/gen/p0/sbx", 21000, false},
		{"/gen/p0/amb", 22000, true},
	}
	var consoles []string
	for _, v := range variants {
		if err := stageGenWorkspace(m, v.root, &p.Manifest); err != nil {
			return out, fmt.Errorf("staging %s: %w", v.root, err)
		}
		s := m.DefaultSession()
		driver, module := p.Render(gen.RenderConfig{
			Root: v.root, Console: s.ConsolePath(),
			PortBase: v.portBase, Ambient: v.ambient,
		})
		ctx, cancel := context.WithTimeout(context.Background(), genRunTimeout)
		res, rerr := s.Run(ctx, shill.Script{
			Name:     "gen_driver.ambient",
			Source:   driver,
			Resolver: shill.MapResolver{"gen.cap": module},
		})
		cancel()
		status, console := -1, ""
		if res != nil {
			status, console = res.ExitStatus, res.Console
			out.denials = append(out.denials, denialKeys(res.Denials)...)
		}
		consoles = append(consoles, fmt.Sprintf("variant=%s err=%q exit=%d\n%s",
			v.root, errString(rerr), status, console))
	}
	out.console = strings.Join(consoles, "\n")
	out.fs = m.SnapshotFS(nil)
	return out, nil
}

func stageGenWorkspace(m *shill.Machine, root string, man *gen.Manifest) error {
	if err := m.MkdirAll(root, 0o755, shill.UserUID); err != nil {
		return err
	}
	for _, e := range man.Stage {
		uid := shill.UserUID
		if e.Root {
			uid = 0
		}
		path := root + "/" + e.Rel
		if e.Dir {
			if err := m.MkdirAll(path, e.Mode, uid); err != nil {
				return err
			}
			continue
		}
		if err := m.WriteFile(path, []byte(e.Data), e.Mode, uid); err != nil {
			return err
		}
	}
	return nil
}

// TestEngineDiffGenerated runs gen.New(seed) for every seed in
// [1, goldenSeeds] and diffs each program's transcript against the
// golden; a mismatch prints the transcript and the generated sources.
func TestEngineDiffGenerated(t *testing.T) {
	want := readGoldens(t)
	t.Cleanup(func() { writeGoldens(t) })
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		name := fmt.Sprintf("gen/%d", seed)
		p := gen.New(seed).Program()
		out, err := runGenProgram(p)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		driver, module := p.Render(gen.RenderConfig{
			Root: "/gen/p0/sbx", Console: "/dev/console", PortBase: 21000,
		})
		checkGolden(t, want, name, out.transcript(),
			"--- driver ---\n"+driver+"\n--- module ---\n"+module)
		if t.Failed() && seed >= 10 {
			t.Fatalf("stopping after %d programs with mismatches", seed)
		}
	}
}
