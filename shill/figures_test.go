package shill

import (
	"context"
	"strings"
	"testing"

	"repro/internal/prof"
)

// Ports of the paper-figure tests onto the public embedding API: the
// machine is built with NewMachine, scripts run through sessions, and
// results are read back through Result and the staging helpers.

var bg = context.Background()

// newTestMachine builds a machine with the SHILL module installed and
// the paper's figure scripts loaded.
func newTestMachine(t *testing.T, opts ...Option) *Machine {
	t.Helper()
	m, err := NewMachine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// runAmbient runs an ambient script on the default session.
func runAmbient(m *Machine, name, src string) (*Result, error) {
	return m.DefaultSession().Run(bg, Script{Name: name, Source: src})
}

func mustReadFile(t *testing.T, m *Machine, path string) string {
	t.Helper()
	out, err := m.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return out
}

func TestFigure4And6Jpeginfo(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/Documents/dog.jpg", []byte("JFIFdogdata"), 0o644, UserUID)
	res, err := runAmbient(m, "jpeginfo.ambient", "")
	if err != nil {
		t.Fatalf("ambient script: %v", err)
	}
	if !strings.Contains(res.Console, "640x480") {
		t.Fatalf("jpeginfo output missing info line: %q", res.Console)
	}
	if !strings.Contains(res.Console, "dog.jpg") {
		t.Fatalf("jpeginfo output missing file path: %q", res.Console)
	}
}

func TestFigure3FindJpg(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/pics/a.jpg", []byte("JFIFa"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/pics/sub/b.jpg", []byte("JFIFb"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/pics/notes.txt", []byte("x"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/out.txt", nil, 0o644, UserUID)

	ambient := `#lang shill/ambient
require "find_jpg.cap";

pics = open_dir("/home/user/pics");
out = open_file("/home/user/out.txt");
find_jpg(pics, out);
`
	if _, err := runAmbient(m, "main.ambient", ambient); err != nil {
		t.Fatalf("ambient: %v", err)
	}
	got := mustReadFile(t, m, "/home/user/out.txt")
	if !strings.Contains(got, "/home/user/pics/a.jpg") ||
		!strings.Contains(got, "/home/user/pics/sub/b.jpg") {
		t.Fatalf("find_jpg output = %q", got)
	}
	if strings.Contains(got, "notes.txt") {
		t.Fatalf("find_jpg matched a non-jpg: %q", got)
	}
}

// TestFigure5PolymorphicFind checks both halves of the §2.4.2 guarantee:
// the filter may use privileges beyond the bound (here +path via
// has_ext), while find's own body cannot.
func TestFigure5PolymorphicFind(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/tree/x.c", []byte("int main(){}"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/tree/sub/y.c", []byte("void f(){}"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/tree/z.txt", []byte("no"), 0o644, UserUID)
	m.sys.MustWrite("/home/user/found.txt", nil, 0o644, UserUID)

	ambient := `#lang shill/ambient
require "find.cap";
require "driver.cap";

tree = open_dir("/home/user/tree");
out = open_file("/home/user/found.txt");
run_find(tree, out);
`
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
	if _, err := runAmbient(m, "main.ambient", ambient); err != nil {
		t.Fatalf("ambient: %v", err)
	}
	got := mustReadFile(t, m, "/home/user/found.txt")
	if !strings.Contains(got, "x.c") || !strings.Contains(got, "y.c") {
		t.Fatalf("find output = %q", got)
	}
	if strings.Contains(got, "z.txt") {
		t.Fatalf("filter failed: %q", got)
	}
}

// TestPolymorphicBoundEnforced verifies that the body of a function with
// a forall contract cannot exceed the bound even though the supplied
// capability has more privileges.
func TestPolymorphicBoundEnforced(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/tree/x.c", []byte("x"), 0o644, UserUID)

	// sneaky_find tries to read file contents inside the body, which the
	// bound {+lookup, +contents} does not allow.
	m.AddScript("sneaky.cap", `#lang shill/cap

provide sneaky :
  forall X with {+lookup, +contents} .
  {cur : X} -> void;

sneaky = fun(cur) {
  for name in contents(cur) {
    child = lookup(cur, name);
    if is_file(child) then
      read(child);
  }
};
`)
	ambient := `#lang shill/ambient
require "sneaky.cap";

tree = open_dir("/home/user/tree");
sneaky(tree);
`
	_, err := runAmbient(m, "main.ambient", ambient)
	if err == nil {
		t.Fatal("sneaky body read beyond the polymorphic bound without a violation")
	}
	if !strings.Contains(err.Error(), "contract violation") {
		t.Fatalf("expected a contract violation, got: %v", err)
	}
}

// TestContractDeniesUndeclaredOperation is the core §2.2 guarantee: a
// script whose contract grants only +append on out cannot read it.
func TestContractDeniesUndeclaredOperation(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/secret.txt", []byte("secret"), 0o644, UserUID)

	m.AddScript("leaky.cap", `#lang shill/cap

provide leaky : {out : file(+append)} -> void;

leaky = fun(out) {
  read(out);
};
`)
	ambient := `#lang shill/ambient
require "leaky.cap";

out = open_file("/home/user/secret.txt");
leaky(out);
`
	_, err := runAmbient(m, "main.ambient", ambient)
	// read on an append-only capability yields a syserror value, which
	// the script ignores; reading must NOT have succeeded. To observe,
	// run a variant that appends the read result.
	if err != nil {
		t.Fatalf("leaky run failed unexpectedly: %v", err)
	}

	m.AddScript("leaky2.cap", `#lang shill/cap

provide leaky2 : {out : file(+append), sink : file(+append)} -> void;

leaky2 = fun(out, sink) {
  data = read(out);
  if !is_syserror(data) then
    append(sink, data);
};
`)
	m.sys.MustWrite("/home/user/sink.txt", nil, 0o644, UserUID)
	ambient2 := `#lang shill/ambient
require "leaky2.cap";

out = open_file("/home/user/secret.txt");
sink = open_file("/home/user/sink.txt");
leaky2(out, sink);
`
	if _, err := runAmbient(m, "main2.ambient", ambient2); err != nil {
		t.Fatalf("leaky2: %v", err)
	}
	if got := mustReadFile(t, m, "/home/user/sink.txt"); got != "" {
		t.Fatalf("append-only capability leaked data: %q", got)
	}
}

func TestAmbientRestrictions(t *testing.T) {
	m := newTestMachine(t)
	cases := []struct{ name, src string }{
		{"function definition", "#lang shill/ambient\nf = fun(x) { x; };\n"},
		{"if statement", "#lang shill/ambient\nif true then open_dir(\"/\");\n"},
		{"for statement", "#lang shill/ambient\nfor x in [1] { x; }\n"},
	}
	for _, c := range cases {
		if _, err := runAmbient(m, c.name, c.src); err == nil {
			t.Errorf("%s allowed in ambient script", c.name)
		}
	}
}

func TestCapScriptHasNoAmbientAuthority(t *testing.T) {
	m := newTestMachine(t)
	m.AddScript("grab.cap", `#lang shill/cap

provide grab : {} -> void;

grab = fun() {
	open_dir("/");
};
`)
	_, err := runAmbient(m, "main.ambient", `#lang shill/ambient
require "grab.cap";
grab();
`)
	if err == nil || !strings.Contains(err.Error(), "unbound identifier") {
		t.Fatalf("capability-safe script reached open_dir: %v", err)
	}
}

func TestCapScriptCannotRequireAmbient(t *testing.T) {
	m := newTestMachine(t)
	m.AddScript("evil.cap", `#lang shill/cap
require "helper.ambient";

provide f : {} -> void;
f = fun() { };
`)
	m.AddScript("helper.ambient", "#lang shill/ambient\n")
	_, err := runAmbient(m, "main.ambient", `#lang shill/ambient
require "evil.cap";
f();
`)
	if err == nil || !strings.Contains(err.Error(), "ambient") {
		t.Fatalf("cap script required an ambient script: %v", err)
	}
}

func TestSandboxCountsForJpeginfo(t *testing.T) {
	m := newTestMachine(t)
	m.sys.MustWrite("/home/user/Documents/dog.jpg", []byte("JFIFdogdata"), 0o644, UserUID)
	m.Prof().Reset()
	res, err := runAmbient(m, "jpeginfo.ambient", "")
	if err != nil {
		t.Fatalf("ambient: %v", err)
	}
	// pkg_native runs ldd in one sandbox; the wrapper runs jpeginfo in a
	// second (§4.2 counts sandboxes exactly this way for Download).
	if got := m.Prof().Count(prof.SandboxExec); got != 2 {
		t.Fatalf("sandbox count = %d, want 2", got)
	}
	// The same counts ride on the per-run profile samples.
	var perRun int64
	for _, s := range res.Prof {
		if s.Category == prof.SandboxExec {
			perRun = s.Count
		}
	}
	if perRun != 2 {
		t.Fatalf("per-run sandbox count = %d, want 2", perRun)
	}
}
