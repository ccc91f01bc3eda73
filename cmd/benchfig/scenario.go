package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/scenario"
)

// --- scenario benchmark ---
//
// figureScenario times every non-slow registry scenario's sandboxed leg
// and publishes per-scenario throughput: runs/sec (a run is one full
// bundle — boot from the fixture image, body, teardown) and scripts/sec
// (runs/sec × the scripts the body executes per run). BENCH_scenario.json
// is the machine-readable artifact CI archives.

type scenarioRow struct {
	Name          string  `json:"name"`
	Reps          int     `json:"reps"`
	StepsPerRun   int     `json:"stepsPerRun"`
	MeanMs        float64 `json:"meanMs"`
	RunsPerSec    float64 `json:"runsPerSec"`
	ScriptsPerSec float64 `json:"scriptsPerSec"`
}

type scenarioDoc struct {
	Benchmark string        `json:"benchmark"`
	Attr      string        `json:"attr"`
	Mode      string        `json:"mode"`
	Rows      []scenarioRow `json:"rows"`
}

func figureScenario(reps int, jsonPath string) bool {
	const attr = "!slow"
	fmt.Printf("Scenario benchmark: sandboxed leg of every %q registry scenario, %d reps\n", attr, reps)

	scs, err := scenario.Select(attr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: scenario: %v\n", err)
		return false
	}
	modes := []scenario.Mode{scenario.ModeSandboxed}

	ok := true
	doc := scenarioDoc{Benchmark: "scenario", Attr: attr, Mode: "sandboxed"}
	fmt.Printf("%-26s %8s %10s %10s %12s\n", "scenario", "steps", "mean", "runs/s", "scripts/s")
	for _, sc := range scs {
		// One untimed warmup builds the fixture's golden image, so the
		// timed reps measure restore+body, not one-time staging.
		warm := scenario.RunScenario(ctx, sc, modes)
		if v := warm.Verdict(); v != "passed" {
			fmt.Fprintf(os.Stderr, "benchfig: scenario %s: %s (%s)\n", sc.Name, v, warm.Modes[0].Detail)
			ok = false
			continue
		}
		steps := len(warm.Modes[0].Steps)

		start := time.Now()
		bad := false
		for r := 0; r < reps; r++ {
			res := scenario.RunScenario(ctx, sc, modes)
			if res.Verdict() != "passed" {
				fmt.Fprintf(os.Stderr, "benchfig: scenario %s rep %d: %s (%s)\n",
					sc.Name, r, res.Verdict(), res.Modes[0].Detail)
				ok, bad = false, true
				break
			}
		}
		if bad {
			continue
		}
		elapsed := time.Since(start)

		row := scenarioRow{
			Name:        sc.Name,
			Reps:        reps,
			StepsPerRun: steps,
			MeanMs:      float64(elapsed) / float64(reps) / float64(time.Millisecond),
		}
		if elapsed > 0 {
			row.RunsPerSec = float64(reps) / elapsed.Seconds()
			row.ScriptsPerSec = row.RunsPerSec * float64(steps)
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Printf("%-26s %8d %8.2fms %10.1f %12.1f\n",
			row.Name, row.StepsPerRun, row.MeanMs, row.RunsPerSec, row.ScriptsPerSec)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: scenario: writing %s: %v\n", jsonPath, err)
			return false
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return ok
}
