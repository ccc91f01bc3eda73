// Command shill runs SHILL ambient scripts against a freshly built
// simulated machine (see repro/shill): the interpreter plays the role
// of the paper's Racket front end, and the machine stands in for
// FreeBSD 9.2 with the SHILL kernel module loaded.
//
// Usage:
//
//	shill [-no-module] [-workload name] [-timeout d] script.ambient [more.ambient ...]
//
// Scripts are read from the host filesystem; require "x.cap" resolves
// first against the host directory of the requiring script, then against
// the built-in case-study scripts (grade.cap, pkg_emacs.cap, apache.cap,
// find.cap, findgrep.cap, findgrep_fine.cap, jpeginfo.cap, run_cmd.cap).
//
// The -workload flag stages one of the paper's case-study images before
// running: grading, emacs, apache, find, or demo (a home directory with
// a few JPEGs). The -timeout flag bounds each script's wall time via
// context cancellation; a runaway script is stopped and reported, and
// the run continues with the next script.
//
// Every script runs to a per-script exit status; the command's own exit
// status is the first non-zero script status (scripts after a failure
// still run, and the machine always shuts down cleanly).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/shill"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("shill", flag.ExitOnError)
	noModule := fs.Bool("no-module", false, "do not install the SHILL kernel module (Baseline configuration)")
	workload := fs.String("workload", "demo", "image to stage: demo, grading, emacs, apache, find, none")
	quiet := fs.Bool("quiet", false, "suppress the console dump after each script")
	auditDump := fs.Bool("audit", false, "print each script's denial provenance to stderr")
	timeout := fs.Duration("timeout", 0, "per-script wall-time limit (0 = none); a script over the limit is cancelled")
	fs.Parse(argv)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: shill [flags] script.ambient ...")
		fs.Usage()
		return 2
	}

	m, err := shill.NewMachine(
		shill.WithModule(!*noModule),
		shill.WithWorkload(shill.Workload(*workload)),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill: %v\n", err)
		return 1
	}
	defer m.Close()
	// The CLI runs on the default (shared-console) session so scripts
	// that open /dev/console by name land in the captured output.
	session := m.DefaultSession()

	status := 0
	for _, script := range fs.Args() {
		code := runScript(m, session, script, *quiet, *auditDump, *timeout)
		if code != 0 && status == 0 {
			status = code
		}
	}
	return status
}

// runScript runs one script file to a per-script exit status.
func runScript(m *shill.Machine, session *shill.Session, script string, quiet, auditDump bool, timeout time.Duration) int {
	src, err := os.ReadFile(script)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill: %v\n", err)
		return 1
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := session.Run(ctx, shill.Script{
		Name:   filepath.Base(script),
		Source: string(src),
		// Required scripts resolve against the script's host directory
		// first, then the machine's built-in case-study scripts.
		Resolver: shill.ChainResolver{
			shill.HostDirResolver{Dir: filepath.Dir(script)},
			m.Resolver(),
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill: %s: %v\n", script, err)
		// Name the missing privilege explicitly when the error chain
		// carries structured provenance.
		if d := shill.DenyReasonFor(err); d != nil {
			fmt.Fprintf(os.Stderr, "shill: denied: %v\n", d)
		}
		if res != nil && res.Console != "" {
			fmt.Fprintf(os.Stderr, "--- console ---\n%s", res.Console)
		}
		dumpDenials(res, auditDump)
		if res != nil && res.ExitStatus != 0 {
			return res.ExitStatus
		}
		return 1
	}
	if !quiet {
		fmt.Print(res.Console)
	}
	dumpDenials(res, auditDump)
	return res.ExitStatus
}

// dumpDenials prints the denials the run's audit window recorded —
// including ones that never surfaced as script errors because a
// sandboxed binary swallowed the errno — so a failing run always names
// the privilege it was missing.
func dumpDenials(res *shill.Result, enabled bool) {
	if !enabled || res == nil {
		return
	}
	if len(res.Denials) == 0 {
		fmt.Fprintln(os.Stderr, "--- audit: no denials recorded ---")
		return
	}
	fmt.Fprintf(os.Stderr, "--- audit: %d denial(s); shill-audit why-denied explains lineage ---\n", len(res.Denials))
	for _, d := range res.Denials {
		fmt.Fprintln(os.Stderr, d)
	}
}
