package lang_test

import (
	"strings"
	"testing"

	"repro/examples/scripts"
	"repro/internal/lang"
	"repro/internal/priv"
)

// TestRenderFixpoint: rendering is a fixpoint under parsing. For every
// embedded case-study script (the richest corpus of real SHILL syntax in
// the tree) and a set of syntax-stress samples, Render(Parse(src))
// must itself parse, and re-rendering the reparse must reproduce it
// byte for byte. This is the property the generator relies on: a
// program can be rendered, reparsed, shrunk, and re-rendered without
// semantic drift.
func TestRenderFixpoint(t *testing.T) {
	sources := map[string]string{}
	for name, src := range scripts.All() {
		// Only SHILL sources round-trip; the shipped set also holds
		// shell scripts like grade.sh.
		if strings.HasSuffix(name, ".cap") || strings.HasSuffix(name, ".ambient") {
			sources[name] = src
		}
	}
	sources["samples"] = `#lang shill/cap
require shill/io;
require "other.cap";
provide p : {d : dir(+lookup with {+read, +stat}, +create_file with full_privileges), out : file(+append)} -> any;
provide q : forall X with {+read} . {d : X} -> is_bool;
provide r : listof (is_num \/ is_string) -> void;
provide s : readonly && is_dir -> any;
p = fun(d, out) {
  x = (1 + 2) * -3;
  y = !true || (x < 4 && x >= 0);
  l = [1, "two\n", [true, false]];
  if y then { fprintf(out, "ok %s\n", "t\"quoted\""); } else {
    for n in l { fprintf(out, "%v;", n); }
  }
  f = fun(a) { a + 1; };
  f(x);
};
`
	sources["ambient"] = `#lang shill/ambient
require "p.cap";
d = open_dir("/tmp");
p(d, open_file("/dev/console"));
`
	for name, src := range sources {
		s1, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse original: %v", name, err)
		}
		r1 := lang.Render(s1)
		s2, err := lang.Parse(r1)
		if err != nil {
			t.Fatalf("%s: rendered output does not parse: %v\n%s", name, err, r1)
		}
		r2 := lang.Render(s2)
		if r1 != r2 {
			t.Errorf("%s: Render is not a fixpoint under Parse:\n--- first ---\n%s\n--- second ---\n%s", name, r1, r2)
		}
	}
}

// TestBuildersRenderParseable: a script assembled from the exported AST
// builders renders to source the parser accepts and evaluates.
func TestBuildersRenderParseable(t *testing.T) {
	grant := priv.NewSet(priv.RLookup, priv.RContents, priv.RCreateFile, priv.RStat)
	script := lang.NewScript(lang.DialectCap,
		lang.NewRequire("shill/io", false),
		lang.NewProvide("run", lang.NewCFunc(
			[]lang.CParam{
				{Name: "d", C: lang.NewCCap("dir", lang.PrivsOf(grant))},
				{Name: "out", C: lang.NewCCap("file", lang.PrivsOf(priv.NewSet(priv.RAppend)))},
			},
			lang.NewCIdent("any"),
		)),
		lang.NewBind("run", lang.NewFun([]string{"d", "out"},
			lang.NewBind("r0", lang.NewCall(lang.NewIdent("contents"), lang.NewIdent("d"))),
			lang.NewIf(
				lang.NewCall(lang.NewIdent("is_syserror"), lang.NewIdent("r0")),
				[]lang.Stmt{lang.NewExprStmt(lang.NewCall(lang.NewIdent("fprintf"),
					lang.NewIdent("out"), lang.NewString("op0=err\n")))},
				[]lang.Stmt{
					lang.NewExprStmt(lang.NewCall(lang.NewIdent("fprintf"),
						lang.NewIdent("out"), lang.NewString("op0=ok\n"))),
					lang.NewFor("n", lang.NewIdent("r0"), []lang.Stmt{
						lang.NewExprStmt(lang.NewCall(lang.NewIdent("fprintf"),
							lang.NewIdent("out"), lang.NewString("log0=%s\n"), lang.NewIdent("n"))),
					}),
				},
			),
			lang.NewExprStmt(lang.NewBinary("+", lang.NewNumber(1),
				lang.NewUnary("-", lang.NewNumber(2)))),
		)),
	)
	src := lang.Render(script)
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("built script does not parse: %v\n%s", err, src)
	}
	if parsed.Dialect != lang.DialectCap {
		t.Fatalf("dialect lost in round trip")
	}
	if again := lang.Render(parsed); again != src {
		t.Errorf("builder render not a fixpoint:\n%s\nvs\n%s", src, again)
	}
	if !strings.Contains(src, "+create_file") {
		t.Errorf("privilege spelling should use underscores: %s", src)
	}
}
