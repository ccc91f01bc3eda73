package shill

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

// TestAllShippedScriptsParse parses every shipped SHILL script.
func TestAllShippedScriptsParse(t *testing.T) {
	for name, src := range ScriptFiles() {
		if name == "grade.sh" {
			continue // the Bash script is interpreted by /bin/sh
		}
		if _, err := lang.Parse(src); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

// TestSnapshotCarriesNoShippedScripts: every machine resolves the
// shipped set without holding a copy, so the image of a machine that
// never added a script carries none.
func TestSnapshotCarriesNoShippedScripts(t *testing.T) {
	m := newTestMachine(t, WithWorkload(WorkloadDemo))
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Meta().Scripts; len(got) != 0 {
		t.Fatalf("image carries %d scripts, want 0", len(got))
	}
	// Yet every shipped file resolves by name.
	for name := range ScriptFiles() {
		if _, err := m.Resolver().Load(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := m.Resolver().Load("nope.cap"); err == nil || err.Error() != `lang: no script "nope.cap"` {
		t.Errorf("miss: %v", err)
	}
}

// TestAddedScriptShadowsShippedAcrossRestore: a tenant's why_denied.cap
// is captured, survives restore, and wins over the shipped copy when
// the shipped why_denied.ambient requires it. The shipped peek writes
// through a read-only capability and fails; the tenant's only reads.
func TestAddedScriptShadowsShippedAcrossRestore(t *testing.T) {
	m := newTestMachine(t, WithWorkload(WorkloadDemo))
	whyDenied := Script{Name: "why_denied.ambient"}
	if _, err := m.DefaultSession().Run(bg, whyDenied); err == nil || !strings.Contains(err.Error(), "{+write}") {
		t.Fatalf("shipped why_denied.ambient: %v, want the contract's {+write} denial", err)
	}
	const tenantCap = `#lang shill/cap

provide peek : {f : file(+read, +stat)} -> void;

peek = fun(f) { read(f); };
`
	m.AddScript("why_denied.cap", tenantCap)
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Meta().Scripts; len(got) != 1 || got["why_denied.cap"] != tenantCap {
		t.Fatalf("image scripts = %v, want only the added why_denied.cap", got)
	}

	r, err := RestoreMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if res, err := r.DefaultSession().Run(bg, whyDenied); err != nil {
		t.Fatalf("restored run used the shipped peek: %v (%+v)", err, res)
	}
}

// TestGradeScriptsRebind: the parameterised graders render the shipped
// ambient scripts. At the defaults they are the files; elsewhere they
// equal the text the earlier hand-written renderers produced.
func TestGradeScriptsRebind(t *testing.T) {
	files := ScriptFiles()
	if got := GradeAmbientShillAt("/course", "/dev/console"); got != files["grade.ambient"] {
		t.Errorf("default shill script differs from grade.ambient:\n%s", got)
	}
	if got := GradeAmbientSandboxAt("/course", "/dev/console"); got != files["grade_sandbox.ambient"] {
		t.Errorf("default sandbox script differs from grade_sandbox.ambient:\n%s", got)
	}

	wantShill := `#lang shill/ambient

require shill/native;
require "grade.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
  "/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory());

subs = open_dir("/courses/s07/submissions");
tests = open_dir("/courses/s07/tests");
work = open_dir("/courses/s07/work");
grades = open_dir("/courses/s07/grades");
out = open_file("/dev/pts/3");
grade(wallet, subs, tests, work, grades, out);
`
	wantSandbox := `#lang shill/ambient

require shill/native;
require "grade_sandbox.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
  "/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory());

script = open_file("/courses/s07/grade.sh");
subs = open_dir("/courses/s07/submissions");
tests = open_dir("/courses/s07/tests");
work = open_dir("/courses/s07/work");
grades = open_dir("/courses/s07/grades");
tmp = open_dir("/tmp");
out = open_file("/dev/pts/3");
grade_sandbox(wallet, script, subs, tests, work, grades, tmp, out);
`
	if got := GradeAmbientShillAt("/courses/s07", "/dev/pts/3"); got != wantShill {
		t.Errorf("shill script:\n%s\nwant:\n%s", got, wantShill)
	}
	if got := GradeAmbientSandboxAt("/courses/s07", "/dev/pts/3"); got != wantSandbox {
		t.Errorf("sandbox script:\n%s\nwant:\n%s", got, wantSandbox)
	}
}
