package lang_test

// Expected outcomes of the interpreter on snippets chosen for the
// places an implementation is most likely to drift: scope
// materialization, flow-sensitive shadowing, closure capture in loops,
// constant folding, the ambient dialect restrictions, and every
// interpreter error message. Each want was recorded while a second,
// compiled engine still existed and agreed with tree-walk byte for
// byte. The machine-level goldens (shill/golden_test.go) cover the
// case-study scripts and generated programs with denials and
// filesystem state included.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/priv"
	"repro/internal/prof"
)

// snippetWorld builds a fresh world for one snippet: a console device,
// a small home tree, and a scratch directory for cap-module probes.
func snippetWorld(t *testing.T) (*kernel.Kernel, *kernel.Proc) {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	for path, data := range map[string]string{
		"/dev/console":         "",
		"/home/user/a.txt":     "alpha\n",
		"/home/user/b.txt":     "beta\n",
		"/home/user/sub/c.txt": "gamma\n",
	} {
		if _, err := k.FS.WriteFile(path, []byte(data), 0o666, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.FS.MkdirAll("/sandbox", 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k, k.NewProc(0, 0)
}

// runSnippet executes src on a fresh world and renders what it
// observably produced. Ambient sources run through RunAmbient; cap
// sources load as a module and every export is called once with a
// /sandbox capability (falling back to a nullary call on arity errors,
// like FuzzEval). The console's bytes close the rendering.
func runSnippet(t *testing.T, src string) string {
	t.Helper()
	k, proc := snippetWorld(t)
	it := lang.NewInterp(proc, lang.MapLoader{"m.cap": src, "self.cap": src}, prof.New())

	script, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("runSnippet on unparseable source: %v", err)
	}
	var out strings.Builder
	if script.Dialect == lang.DialectAmbient {
		if err := it.RunAmbient("script", src); err != nil {
			fmt.Fprintf(&out, "run error: %v\n", err)
		}
	} else {
		m, err := it.LoadModule("m.cap", true)
		if err != nil {
			fmt.Fprintf(&out, "load error: %v\n", err)
		} else {
			scratch := k.FS.MustResolve("/sandbox")
			names := make([]string, 0, len(m.Exports))
			for name := range m.Exports {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fn, ok := m.Exports[name].(interface {
					Call([]lang.Value, map[string]lang.Value) (lang.Value, error)
				})
				if !ok {
					fmt.Fprintf(&out, "%s = %s\n", name, lang.FormatValue(m.Exports[name]))
					continue
				}
				dcap := cap.NewForVnode(proc, scratch, priv.FullGrant())
				v, cerr := fn.Call([]lang.Value{dcap}, nil)
				if cerr != nil {
					fmt.Fprintf(&out, "%s(d) error: %v\n", name, cerr)
					v, cerr = fn.Call(nil, nil)
					if cerr != nil {
						fmt.Fprintf(&out, "%s() error: %v\n", name, cerr)
						continue
					}
				}
				fmt.Fprintf(&out, "%s -> %s\n", name, lang.FormatValue(v))
			}
		}
	}
	it.CloseLeftoverSockets()
	fmt.Fprintf(&out, "console: %q\n", k.FS.MustResolve("/dev/console").Bytes())
	return out.String()
}

// paritySnippets pairs each snippet with its recorded outcome.
var paritySnippets = []struct {
	name, src, want string
}{
	{
		name: "ambient-basic",
		src: `#lang shill/ambient
h = open_dir("~");
msg = "files: " + length(contents(h));
write(stdout, msg);
`,
		want: "console: \"files: 3\"\n",
	},
	{
		name: "ambient-control-flow",
		src: `#lang shill/ambient
write(stdout, "pre");
if true then { 1; }
`,
		want: "run error: script: line 2: statement not allowed in an ambient script\n" +
			"console: \"pre\"\n",
	},
	{
		name: "ambient-dup",
		src: `#lang shill/ambient
x = 1;
x = 2;
`,
		want: "run error: script: line 2: duplicate definition of \"x\" (SHILL bindings are immutable)\n" +
			"console: \"\"\n",
	},
	{
		name: "ambient-fun-def",
		src: `#lang shill/ambient
write(stdout, "before");
f = fun() { 1; };
`,
		want: "run error: script: line 2: ambient scripts cannot define functions\n" +
			"console: \"before\"\n",
	},
	{
		name: "ambient-shadow-builtin",
		src: `#lang shill/ambient
open_file = 3;
`,
		want: "run error: script: line 1: duplicate definition of \"open_file\" (SHILL bindings are immutable)\n" +
			"console: \"\"\n",
	},
	{
		name: "and-or",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { a = true && false; b = false || true; c = 1 < 2 && 2 < 3; a == false && b && c; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> true\n" +
			"console: \"\"\n",
	},
	{
		name: "anon-closure-name",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { g = fun(x) { x(); }; g(3); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: line 2: 3 is not a function\n" +
			"console: \"\"\n",
	},
	{
		name: "arith-and-strings",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { x = 1 + 2 * 3; s = "n=" + x; s ++ "!"; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> n=7!\n" +
			"console: \"\"\n",
	},
	{
		name: "arity-error",
		src: `#lang shill/cap
f = fun(a, b) { a; };
provide probe : {} -> any;
probe = fun() { f(1); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 3: f expects 2 arguments, got 1\n" +
			"console: \"\"\n",
	},
	{
		name: "cap-deny",
		src: `#lang shill/cap
provide probe : {d : dir(+lookup)} -> any;
probe = fun(d) { create_file(d, "nope.txt"); };
`,
		want: "probe -> syserror: capability: operation \"create-file\" requires privileges {+create-file} (restricted by: dir(+lookup))\n" +
			"console: \"\"\n",
	},
	{
		name: "cap-fs-writes",
		src: `#lang shill/cap
provide probe : {d : any} -> any;
probe = fun(d) {
  w = create_file(d, "out.txt");
  write(w, "hello");
  read(w);
};
`,
		want: "probe -> hello\n" +
			"console: \"\"\n",
	},
	{
		name: "const-fold-divzero",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1 / 0; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: division by zero\n" +
			"console: \"\"\n",
	},
	{
		name: "deep-recursion-limit",
		src: `#lang shill/cap
spin = fun(n) { spin(n + 1); };
provide probe : {} -> any;
probe = fun() { spin(0); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 3: " + strings.Repeat("line 1: ", 4095) +
			"spin: call depth exceeds 4096\n" +
			"console: \"\"\n",
	},
	{
		name: "dup-binding",
		src: `#lang shill/cap
x = 1;
x = 2;
`,
		want: "load error: m.cap: line 2: duplicate definition of \"x\" (SHILL bindings are immutable)\n" +
			"console: \"\"\n",
	},
	{
		name: "dup-in-function",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { a = 1; a = 2; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: duplicate definition of \"a\" (SHILL bindings are immutable)\n" +
			"console: \"\"\n",
	},
	{
		name: "dup-param",
		src: `#lang shill/cap
f = fun(a, a) { a; };
provide probe : {} -> any;
probe = fun() { f(1, 2); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 3: duplicate definition of \"a\" (SHILL bindings are immutable)\n" +
			"console: \"\"\n",
	},
	{
		name: "flow-sensitive-visibility",
		src: `#lang shill/cap
x = 1;
provide probe : {} -> any;
probe = fun() { y = x + 1; x = 99; y; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> 2\n" +
			"console: \"\"\n",
	},
	{
		name: "for-closure-capture",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  fns = [];
  for i in range(3) { g = fun() { i; }; fns = fns ++ [g]; }
};
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> void\n" +
			"console: \"\"\n",
	},
	{
		name: "for-frame-reuse",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  acc = [];
  for i in range(4) { d = i * 2; e = d + 1; append_to = e; }
  acc;
};
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> []\n" +
			"console: \"\"\n",
	},
	{
		name: "for-non-list",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { for x in 42 { x; } };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: for expects a list, got 42\n" +
			"console: \"\"\n",
	},
	{
		name: "if-scopes",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  x = 1;
  if x < 2 then { y = x + 1; y * 10; } else { z = 0; z; }
};
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> 20\n" +
			"console: \"\"\n",
	},
	{
		name: "list-fresh-alloc",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  mk = fun() { [1, 2]; };
  a = mk();
  b = mk() ++ [3];
  length(a) + length(b);
};
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> 5\n" +
			"console: \"\"\n",
	},
	{
		name: "named-args-on-closure",
		src: `#lang shill/cap
f = fun(a) { a; };
provide probe : {} -> any;
probe = fun() { f(a=1); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 3: f does not accept named arguments\n" +
			"console: \"\"\n",
	},
	{
		name: "nested-provide",
		src: `#lang shill/cap
x = 1;
if x < 2 then { provide x : any; }
`,
		want: "load error: m.cap: line 2: provide is only allowed at the top level of a capability-safe script\n" +
			"console: \"\"\n",
	},
	{
		name: "nested-require",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1; };
f = fun() { require std/list; };
q = f();
`,
		want: "load error: m.cap: line 4: line 3: require is only allowed at the top of a script\n" +
			"console: \"\"\n",
	},
	{
		name: "not-a-function",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { x = 3; x(1); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: 3 is not a function\n" +
			"console: \"\"\n",
	},
	{
		name: "plusplus-numbers",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1 ++ 2; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: unknown operator \"++\"\n" +
			"console: \"\"\n",
	},
	{
		name: "provide-no-binding",
		src: `#lang shill/cap
provide ghost : any;
`,
		want: "load error: m.cap: provide ghost: no such binding\n" +
			"console: \"\"\n",
	},
	{
		name: "recursion",
		src: `#lang shill/cap
fact = fun(n) { if n <= 1 then { 1; } else { n * fact(n - 1); } };
provide probe : {} -> any;
probe = fun() { fact(10); };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> 3628800\n" +
			"console: \"\"\n",
	},
	{
		name: "require-cycle",
		src: `#lang shill/cap
require "self.cap";
probe = fun() { 1; };
provide probe : {} -> any;
`,
		want: "load error: m.cap: line 1: self.cap: line 1: self.cap: require cycle\n" +
			"console: \"\"\n",
	},
	{
		name: "shadow-later-bind",
		src: `#lang shill/cap
n = 10;
f = fun() { n; };
provide probe : {} -> any;
probe = fun() { a = f(); n2 = a + 1; n2; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe -> 11\n" +
			"console: \"\"\n",
	},
	{
		name: "stdlib-require",
		src: `#lang shill/cap
require std/list;
provide probe : {} -> any;
probe = fun() { 1; };
`,
		want: "load error: m.cap: line 1: lang: unknown standard library module \"std/list\"\n" +
			"console: \"\"\n",
	},
	{
		name: "truthy-errors",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { if 3 then { 1; } };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: if condition requires a boolean, got 3\n" +
			"console: \"\"\n",
	},
	{
		name: "truthy-non-bool-and",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { "x" && true; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: operator && requires a boolean, got x\n" +
			"console: \"\"\n",
	},
	{
		name: "unary-minus-string",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { -"x"; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: unary - expects a number\n" +
			"console: \"\"\n",
	},
	{
		name: "unbound",
		src: `#lang shill/cap
provide probe : {} -> any;
probe = fun() { nope; };
`,
		want: "probe(d) error: contract violation: probe expects 0 arguments, got 1\n" +
			"  contract: {} -> any\n" +
			"  blaming: client of m.cap\n" +
			"probe() error: line 2: unbound identifier \"nope\"\n" +
			"console: \"\"\n",
	},
}

// TestEngineParity holds the interpreter to every snippet's recorded
// outcome.
func TestEngineParity(t *testing.T) {
	for _, c := range paritySnippets {
		t.Run(c.name, func(t *testing.T) {
			if got := runSnippet(t, c.src); got != c.want {
				t.Fatalf("outcome diverged from the recorded one:\ngot:\n%s\nwant:\n%s\nscript:\n%s", got, c.want, c.src)
			}
		})
	}
}
