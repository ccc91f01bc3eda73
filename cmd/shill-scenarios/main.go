// Command shill-scenarios lists and runs the declared workload bundles
// in internal/scenario. Every selected scenario runs three ways —
// ambient, sandboxed, and under the differential oracle — and failures
// are reported in root-cause clusters.
//
// Usage:
//
//	shill-scenarios -list [-attr expr]
//	shill-scenarios [-attr expr] [-mode all|ambient|sandboxed|oracle]
//	                [-json file] [-v]
//	shill-scenarios [flags] name...        # run exactly these scenarios
//
// Positional arguments select scenarios by exact name (replaying one
// red CI scenario in isolation); otherwise -attr selects by attribute
// expression. Exit status 0 on a clean run, 1 on any failure or oracle
// violation, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list selected scenarios and exit")
		attr     = flag.String("attr", "", "attribute selection expression, e.g. 'sandbox && !slow'")
		mode     = flag.String("mode", "all", "modes to run: all, ambient, sandboxed, oracle")
		jsonPath = flag.String("json", "", "write the report as JSON to this file ('-' for stdout)")
		verbose  = flag.Bool("v", false, "narrate per-scenario progress")
	)
	flag.Parse()

	if *list {
		scs, err := scenario.Select(*attr)
		if err != nil {
			fatal(2, "%v", err)
		}
		for _, sc := range scs {
			fmt.Printf("%-28s [%s] %s\n", sc.Name, strings.Join(sc.Attrs, ","), sc.Desc)
		}
		fmt.Printf("%d scenarios\n", len(scs))
		return
	}

	opts := scenario.Options{Attr: *attr, Names: flag.Args()}
	if len(opts.Names) > 0 && *attr != "" {
		fatal(2, "positional scenario names and -attr are mutually exclusive")
	}
	switch *mode {
	case "all", "":
	case "ambient":
		opts.Modes = []scenario.Mode{scenario.ModeAmbient}
	case "sandboxed":
		opts.Modes = []scenario.Mode{scenario.ModeSandboxed}
	case "oracle":
		opts.Modes = []scenario.Mode{scenario.ModeOracle}
	default:
		fatal(2, "unknown -mode %q (want all, ambient, sandboxed, or oracle)", *mode)
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := scenario.Run(context.Background(), opts)
	if err != nil {
		fatal(2, "%v", err)
	}

	for _, sc := range rep.Scenarios {
		fmt.Printf("%-28s %s\n", sc.Name, verdictLine(sc))
	}
	fmt.Printf("\n%d passed, %d failed, %d skipped, %d violations in %.1fs\n",
		rep.Passed, rep.Failed, rep.Skipped, rep.Violations, rep.ElapsedSec)
	if s := scenario.FormatClusters(rep.Clusters); s != "" {
		fmt.Printf("\n%s", s)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(2, "marshal report: %v", err)
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(2, "write %s: %v", *jsonPath, err)
		}
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

func verdictLine(sc scenario.ScenarioResult) string {
	parts := make([]string, 0, len(sc.Modes))
	for _, m := range sc.Modes {
		s := fmt.Sprintf("%s=%s", m.Mode, m.Verdict)
		if m.Verdict != "passed" && m.Detail != "" {
			s += fmt.Sprintf(" (%s)", m.Detail)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "  ")
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shill-scenarios: "+format+"\n", args...)
	os.Exit(code)
}
