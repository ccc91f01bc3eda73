// Command shill-load is the closed-loop load generator for shilld: N
// concurrent clients drive a daemon with a mix of allowed, denied, and
// cancelled runs, verify every response's shape (denials must carry
// structured provenance; cancelled runs must report cancellation), and
// print throughput plus a latency histogram — the serving benchmark of
// this reproduction.
//
// Usage:
//
//	shill-load -url http://127.0.0.1:8377 [-c 16] [-n 256 | -duration 30s]
//	           [-mix 60/30/10] [-scenarios legacy] [-tenants 4]
//	           [-json REPORT.json] [-check] [-server-stats=false]
//
// -mix is allow/deny/cancel percentages. Request bodies are sampled
// from the scenario registry's load probes: -scenarios is an attr
// expression selecting which scenarios contribute (default "legacy",
// the pre-registry hardcoded blend, so reports stay comparable; try
// "legacy || llm"). -check exits 1 if any response had the wrong shape
// (a denied run without provenance, a cancel that did not cancel) or
// any transport error occurred — the smoke-test mode CI uses.
//
// By default the tool also scrapes the daemon's /metrics latency
// histograms before and after the run and reports the server-side
// percentiles for the run's delta next to its own: the client times the
// whole wire round trip, the server times admission to response, and a
// gap over 10% at p50 or p99 is flagged as DISAGREE — latency is going
// somewhere neither side accounts for. -server-stats=false skips the
// scrape.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/server/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("url", "http://127.0.0.1:8377", "shilld base URL")
	clients := flag.Int("c", 16, "concurrent closed-loop clients")
	requests := flag.Int("n", 256, "total requests (0: run for -duration)")
	duration := flag.Duration("duration", 0, "run for this long instead of -n requests")
	mixFlag := flag.String("mix", "60/30/10", "allow/deny/cancel percentages")
	scenariosFlag := flag.String("scenarios", "legacy", "attr expression selecting the scenarios whose load probes feed the mix")
	tenants := flag.Int("tenants", 4, "tenants to spread requests over")
	deadlineMs := flag.Int("deadline-ms", 10_000, "allow/deny request deadline")
	cancelMs := flag.Int("cancel-ms", 80, "cancel-kind request deadline")
	jsonPath := flag.String("json", "", "also write the report as JSON to this file")
	check := flag.Bool("check", false, "exit 1 on any malformed response or transport error")
	serverStats := flag.Bool("server-stats", true, "scrape the daemon's /metrics latency histograms around the run and compare percentiles")
	flag.Parse()

	var ratio loadgen.Ratio
	if _, err := fmt.Sscanf(*mixFlag, "%d/%d/%d", &ratio.AllowPct, &ratio.DenyPct, &ratio.CancelPct); err != nil {
		fmt.Fprintf(os.Stderr, "shill-load: bad -mix %q: %v\n", *mixFlag, err)
		return 2
	}
	mix, err := loadgen.NewRegistryMix(*scenariosFlag, ratio)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill-load: %v\n", err)
		return 2
	}
	cfg := loadgen.Config{
		URL:              *url,
		Clients:          *clients,
		Requests:         *requests,
		Duration:         *duration,
		Mix:              mix,
		Tenants:          *tenants,
		DeadlineMs:       *deadlineMs,
		CancelDeadlineMs: *cancelMs,
	}
	if *duration > 0 {
		cfg.Requests = 0
	}

	// Snapshot the server's cumulative latency histograms before the run
	// so the post-run scrape can be narrowed to this run's delta. A
	// failed scrape degrades to client-only reporting, not a failed run.
	var before map[string]loadgen.HistSnapshot
	if *serverStats {
		b, err := loadgen.ScrapeRunSeconds(context.Background(), nil, *url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shill-load: pre-run /metrics scrape: %v\n", err)
			*serverStats = false
		}
		before = b
	}

	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill-load: %v\n", err)
		return 1
	}
	if *serverStats {
		after, err := loadgen.ScrapeRunSeconds(context.Background(), nil, *url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shill-load: post-run /metrics scrape: %v\n", err)
		} else {
			rep.Server = loadgen.CompareServer(rep, before, after)
		}
	}

	fmt.Printf("shill-load: %d clients, %d requests in %.2fs = %.1f req/s\n",
		rep.Clients, rep.Requests, rep.ElapsedSec, rep.ReqPerSec)
	fmt.Printf("  outcomes: %d allowed, %d denied, %d canceled, %d rejected (429), %d http errors\n",
		rep.Allowed, rep.Denied, rep.Canceled, rep.Rejected, rep.HTTPErrors)
	fmt.Printf("  malformed: %d (allow %d, deny %d, cancel %d)\n",
		rep.Bad(), rep.BadAllow, rep.BadDeny, rep.BadCancel)
	row := func(name string, l loadgen.LatencySummary) {
		fmt.Printf("  %-8s n=%-5d p50=%8.2fms p90=%8.2fms p99=%8.2fms max=%8.2fms\n",
			name, l.Count, l.P50Ms, l.P90Ms, l.P99Ms, l.MaxMs)
	}
	row("overall", rep.Latency)
	row("allow", rep.AllowLatency)
	row("deny", rep.DenyLatency)
	row("cancel", rep.CancelLatency)
	fmt.Printf("  deny-path overhead: %+.1f%% (p50 vs allow)\n", rep.DenyOverheadPct)
	if len(rep.Server) > 0 {
		fmt.Println("  server-side view (shilld_run_seconds delta from /metrics):")
		for _, c := range rep.Server {
			flag := ""
			if c.Disagree {
				flag = fmt.Sprintf("  DISAGREE >%g%%", loadgen.DisagreeBarPct)
			}
			fmt.Printf("  %-8s n=%-5d p50=%8.2fms (client %+.1f%%) p99=%8.2fms (client %+.1f%%)%s\n",
				c.Outcome, c.ServerCount, c.ServerP50Ms, c.DeltaP50Pct, c.ServerP99Ms, c.DeltaP99Pct, flag)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "shill-load: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "shill-load: %v\n", err)
			return 1
		}
		fmt.Printf("  wrote %s\n", *jsonPath)
	}

	if *check && (rep.Bad() > 0 || rep.HTTPErrors > 0) {
		fmt.Fprintln(os.Stderr, "shill-load: -check failed: malformed responses or transport errors")
		return 1
	}
	return 0
}
