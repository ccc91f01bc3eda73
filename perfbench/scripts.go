package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/server"
)

// scanCap is the heavy scan's capability module, installed into the
// golden image: native find runs sandboxed with read-only access to the
// tree and execs grep on every .c file.
const scanCap = `#lang shill/cap
require shill/native;
require shill/contracts;

provide scan :
  {wallet : native_wallet,
   src    : readonly,
   pat    : is_string,
   out    : file(+write, +append)} -> is_num;

scan = fun(wallet, src, pat, out) {
  fnd = pkg_native("find", wallet);
  fnd([src, "-name", "*.c", "-exec", "grep", "-H", pat, "{}", ";"],
      stdout = out,
      extras = wallet_get(wallet, "PATH")
            ++ wallet_get(wallet, "LD_LIBRARY_PATH"));
};
`

// scanAmbient renders the heavy scan's ambient driver, which runs the
// scan times times over; pat is a SHILL expression for the pattern.
func scanAmbient(pat string, times int) string {
	return `#lang shill/ambient
require shill/native;
require "scan.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
  "/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory());
` + strings.Repeat(`scan(wallet, open_dir("`+treeRoot+`"), `+pat+", stdout);\n", times)
}

var (
	heavyScript     = scanAmbient(fmt.Sprintf("%q", fixedPattern), 1)
	heavyPScript    = scanAmbient("nth(args, 0)", 1)
	churnScanScript = scanAmbient("nth(args, 0)", churnScanRepeat)
)

func lightScript(path string) string {
	return "#lang shill/ambient\nappend(stdout, read(open_file(\"" + path + "\")));\n"
}

// churnLog is the file every churn request appends to.
const churnLog = "/home/user/log.txt"

const appendScript = `#lang shill/ambient
f = open_file("` + churnLog + `");
append(f, "line\n");
append(stdout, to_string(length(split(read(f), "\n")) - 1) + "\n");
`

// rendered is a request ready to send: its wire body and the console a
// correct allowed answer prints (deny requests check provenance instead).
type rendered struct {
	request
	body []byte
	want string
}

// render builds the wire body of r. count is the tenant's expected log
// line count after r (append requests only).
func render(t tree, r request, count int) rendered {
	rq := server.RunRequest{Tenant: r.tenant}
	out := rendered{request: r}
	switch r.kind {
	case kindLight:
		f := t.files[r.file]
		rq.Script, out.want = lightScript(f.path), f.data
	case kindHeavy:
		rq.Script, out.want = heavyScript, t.scanOutput(fixedPattern)
	case kindHeavyP:
		rq.Script, rq.Args, out.want = heavyPScript, []string{r.pat}, t.scanOutput(r.pat)
	case kindDeny:
		rq.ScriptName = "why_denied.ambient"
	case kindArgv:
		f := t.files[r.file]
		rq.Argv, out.want = []string{"cat", f.path}, f.data
	case kindAppend:
		rq.Script, out.want = appendScript, fmt.Sprintf("%d\n", count)
	case kindChurnScan:
		rq.Script, rq.Args = churnScanScript, []string{r.pat}
		out.want = strings.Repeat(t.scanOutput(r.pat), churnScanRepeat)
	}
	body, err := json.Marshal(rq)
	if err != nil {
		panic("perfbench: marshal run request: " + err.Error())
	}
	out.body = body
	return out
}
