package lang_test

// Go-native fuzz targets for the SHILL interpreter, in the spirit of
// ShellFuzzer's grammar-based fuzzing of shell implementations: the
// parser must never panic on arbitrary input, and evaluating an
// arbitrary capability-safe script inside a sandbox must never reach
// state outside the capabilities it was granted. Run the engines with
//
//	go test ./internal/lang -fuzz=FuzzParse -fuzztime=30s
//	go test ./internal/lang -fuzz=FuzzEval  -fuzztime=30s
//
// Plain `go test` replays only the seed corpus, which keeps CI fast.

import (
	"strings"
	"testing"

	"repro/examples/scripts"
	"repro/internal/cap"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/priv"
	"repro/internal/prof"
	"repro/internal/vfs"
)

// addGenSeeds seeds a fuzz target with grammar-generated structured
// scripts (the ShellFuzzer lesson: byte-level mutation finds far more
// when it starts from grammatically rich inputs). Committed corpus
// files under testdata/fuzz mirror a selection of these so `go test`
// replays them even without this helper.
func addGenSeeds(f *testing.F, modulesOnly bool, n int) {
	for i := 0; i < n; i++ {
		p := gen.New(int64(1000 + i)).Program()
		driver, module := p.Render(gen.RenderConfig{
			Root: "/gen/fuzz", Console: "/dev/console", PortBase: 23000,
		})
		f.Add(module)
		if !modulesOnly {
			f.Add(driver)
		}
	}
}

// FuzzParse: the parser may reject anything but must always return.
func FuzzParse(f *testing.F) {
	for _, src := range scripts.All() {
		f.Add(src)
	}
	f.Add("")
	f.Add("#lang shill/cap\n")
	f.Add("#lang shill/ambient\nx = 1;\n")
	f.Add("#lang shill/cap\nf = fun(x) { f(x); };\n")
	f.Add("#lang shill/cap\nx = " + strings.Repeat("(", 512) + "1" + strings.Repeat(")", 512) + ";\n")
	f.Add("#lang shill/cap\nprovide p : {d : dir(+lookup)} -> any;\np = fun(d) { lookup(d, \"..\"); };\n")
	addGenSeeds(f, false, 12)
	f.Fuzz(func(t *testing.T, src string) {
		// A panic (or a hang) fails the fuzz run; any error is fine.
		_, _ = lang.Parse(src)
	})
}

// TestParseDeepNestingNoOverflow: inputs nested past maxParseDepth must
// come back as a syntax error, not an unrecoverable stack overflow.
func TestParseDeepNestingNoOverflow(t *testing.T) {
	for name, src := range map[string]string{
		"parens":   "#lang shill/cap\nx = " + strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000) + ";\n",
		"lists":    "#lang shill/cap\nx = " + strings.Repeat("[", 100_000) + "1" + strings.Repeat("]", 100_000) + ";\n",
		"unary":    "#lang shill/cap\nx = " + strings.Repeat("!", 100_000) + "true;\n",
		"blocks":   "#lang shill/cap\n" + strings.Repeat("if true { ", 100_000) + "1;" + strings.Repeat(" }", 100_000) + "\n",
		"contract": "#lang shill/cap\nprovide p : " + strings.Repeat("listof ", 100_000) + "any -> any;\n",
	} {
		if _, err := lang.Parse(src); err == nil {
			t.Errorf("%s: deeply nested input parsed without error", name)
		}
	}
}

// fuzzWorld builds a minimal machine for one eval attempt: a kernel
// with the SHILL module, a secret tree the sandbox is NOT granted, and
// a scratch directory it is. Returns the sandboxed process and the
// scratch directory vnode.
func fuzzWorld(t *testing.T) (*kernel.Kernel, *kernel.Proc, *vfs.Vnode) {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	if _, err := k.FS.WriteFile("/secret/secret.txt", []byte("TOP-SECRET"), 0o600, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.FS.MkdirAll("/sandbox", 0o777, 1001, 1001); err != nil {
		t.Fatal(err)
	}
	launcher := k.NewProc(1001, 1001)
	child, err := launcher.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.ShillInit(kernel.SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	scratch := k.FS.MustResolve("/sandbox")
	if err := child.ShillGrant(scratch, priv.FullGrant()); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	return k, child, scratch
}

// snapshotOutside captures every path outside /sandbox with its
// observable content, so escapes show up as a diff.
func snapshotOutside(k *kernel.Kernel) map[string]string {
	snap := make(map[string]string)
	k.FS.Walk(k.FS.Root(), func(path string, v *vfs.Vnode) {
		if path == "/sandbox" || strings.HasPrefix(path, "/sandbox/") {
			return
		}
		switch {
		case v.IsDir():
			snap[path] = "dir"
		case v.Type() == vfs.TypeSymlink:
			target, _ := v.Readlink()
			snap[path] = "link:" + target
		default:
			snap[path] = "file:" + string(v.Bytes())
		}
	})
	return snap
}

func diffSnapshots(t *testing.T, before, after map[string]string, src string) {
	t.Helper()
	for path, was := range before {
		now, ok := after[path]
		if !ok {
			t.Fatalf("script removed %s\nscript:\n%s", path, src)
		}
		if now != was {
			t.Fatalf("script altered %s: %q -> %q\nscript:\n%s", path, was, now, src)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			t.Fatalf("script created %s outside the sandbox\nscript:\n%s", path, src)
		}
	}
}

// FuzzEval: load arbitrary source as a capability-safe module inside a
// sandbox granted only /sandbox, call its exports with a /sandbox
// capability, and verify nothing outside the sandbox changed. Panics
// and hangs fail the run; script-level errors are expected and fine.
func FuzzEval(f *testing.F) {
	f.Add("#lang shill/cap\nx = 1 + 2;\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { create_file(d, \"out.txt\"); };\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { lookup(d, \"..\"); };\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { up = lookup(d, \"..\"); lookup(up, \"secret\"); };\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { w = create_file(d, \"a\"); write(w, \"data\"); read(w); };\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { for n in contents(d) { unlink(lookup(d, n)); } };\n")
	f.Add("#lang shill/cap\nf = fun(x) { f(x); };\nprovide p : {d : any} -> any;\np = fun(d) { f(d); };\n")
	// Generated cap modules: loading evaluates their top level and the
	// provide contract machinery; the export calls below then exercise
	// whatever arity happens to match.
	addGenSeeds(f, true, 8)
	f.Fuzz(func(t *testing.T, src string) {
		k, proc, scratch := fuzzWorld(t)
		before := snapshotOutside(k)
		it := lang.NewInterp(proc, lang.MapLoader{"fuzz.cap": src}, prof.New())
		m, err := it.LoadModule("fuzz.cap", true)
		if err == nil {
			dcap := cap.NewForVnode(proc, scratch, priv.FullGrant())
			for _, v := range m.Exports {
				fn, ok := v.(interface {
					Call([]lang.Value, map[string]lang.Value) (lang.Value, error)
				})
				if !ok {
					continue
				}
				if _, cerr := fn.Call([]lang.Value{dcap}, nil); cerr != nil {
					_, _ = fn.Call(nil, nil) // wrong arity: retry nullary
				}
			}
		}
		diffSnapshots(t, before, snapshotOutside(k), src)
	})
}
