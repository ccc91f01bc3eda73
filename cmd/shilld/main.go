// Command shilld is the SHILL script-execution daemon: a multi-tenant
// HTTP/JSON service over the repro/shill embedding API. Clients POST
// scripts (inline source, a shipped script name, or a native argv)
// with a tenant name and a deadline, and receive the exit status, the
// console output, and the structured provenance of every denial — a
// rejected request is explainable over the wire the same way
// `shill-audit why-denied` explains it locally.
//
// Usage:
//
//	shilld [-addr :8377] [-workload demo] [-max-machines 8]
//	       [-max-concurrent 16] [-tenant-concurrent 4] [-max-queue 64]
//	       [-default-deadline 10s] [-max-deadline 60s]
//	       [-drain-timeout 30s] [-handoff-grace 0] [-debug-addr :6060]
//	       [-trace-disable] [-golden image.shillimg]
//
// Endpoints:
//
//	POST /v1/run              {tenant, script|scriptName|argv, args, deadlineMs, stream}
//	GET  /v1/audit/why-denied ?tenant=NAME&since=SEQ
//	GET  /v1/trace            ?tenant=NAME&since=SEQ — span stream + slowest traces
//	GET  /healthz             200 ok | 503 draining
//	GET  /metrics             Prometheus text format (incl. latency histograms)
//	GET  /v1/admin/snapshot   ?tenant=NAME[&evict=1] — export machine image
//	POST /v1/admin/restore    ?tenant=NAME — seed a tenant from an image
//	POST /v1/admin/denials    ?tenant=NAME — import migrated denial history
//	GET  /v1/admin/tenants    list live tenants and retained images
//
// The admin endpoints are the migration surface cmd/shill-router uses
// to move tenants between replicas during a rolling restart;
// -handoff-grace keeps a draining replica's listener serving snapshot
// exports until the router has pulled every tenant's state (or the
// grace expires).
//
// -debug-addr starts a second listener exposing net/http/pprof
// (/debug/pprof/) so a live daemon can be profiled without wiring pprof
// into the public surface. -trace-disable turns request tracing off on
// every tenant machine (the escape hatch; tracing is on by default).
//
// Each tenant runs on its own simulated machine (own kernel, image,
// network stack, audit log), pooled with LRU eviction. Admission is a
// bounded queue with per-tenant quotas; overload answers 429 +
// Retry-After. SIGTERM drains gracefully: in-flight runs finish, new
// runs are refused, every machine is closed, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/shill"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8377", "listen address")
	workload := flag.String("workload", "demo", "workload staged on each tenant machine: demo, grading, apache, find, none")
	maxMachines := flag.Int("max-machines", 8, "max tenant machines (LRU-evicted when idle)")
	maxConcurrent := flag.Int("max-concurrent", 16, "max globally concurrent runs")
	tenantConcurrent := flag.Int("tenant-concurrent", 4, "max concurrent runs per tenant")
	maxQueue := flag.Int("max-queue", 64, "max runs queued for a slot before 429")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Second, "deadline for runs that specify none")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "clamp for client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight runs")
	handoffGrace := flag.Duration("handoff-grace", 0, "how long a drain keeps serving admin snapshot exports so a router can pull tenant state off this replica (0 disables)")
	debugAddr := flag.String("debug-addr", "", "optional debug listener exposing net/http/pprof (e.g. localhost:6060)")
	traceDisable := flag.Bool("trace-disable", false, "disable request tracing on every tenant machine")
	golden := flag.String("golden", "", "path to a golden machine image; built from the configured workload and written there on first start if absent, then every new tenant boots from it")
	flag.Parse()

	machineOptions := func(string) []shill.Option {
		opts := []shill.Option{
			shill.WithWorkload(shill.Workload(*workload)),
		}
		if *traceDisable {
			opts = append(opts, shill.WithTraceDisabled())
		}
		return opts
	}

	var goldenImg *shill.Image
	if *golden != "" {
		var err error
		goldenImg, err = loadOrBuildGolden(*golden, machineOptions(""))
		if err != nil {
			fmt.Fprintf(os.Stderr, "shilld: golden image: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "shilld: golden image %s (%s)\n", shortID(goldenImg.ID()), *golden)
	}

	srv := server.New(server.Config{
		MaxMachines:      *maxMachines,
		MaxConcurrent:    *maxConcurrent,
		TenantConcurrent: *tenantConcurrent,
		MaxQueue:         *maxQueue,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		MachineOptions:   machineOptions,
		GoldenImage:      goldenImg,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *debugAddr != "" {
		// The pprof mux is the http.DefaultServeMux net/http/pprof
		// registers against; it gets its own listener so profiling
		// endpoints are never reachable through the public address.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "shilld: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "shilld: pprof on http://%s/debug/pprof/\n", *debugAddr)
	}
	fmt.Fprintf(os.Stderr, "shilld: listening on %s (workload=%s machines<=%d concurrent<=%d)\n",
		*addr, *workload, *maxMachines, *maxConcurrent)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "shilld: %v\n", err)
		srv.Close()
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "shilld: %v: draining (timeout %v)\n", s, *drainTimeout)
	}

	// Graceful drain: flip health to 503 and refuse new runs first, then
	// stop accepting connections once in-flight handlers return, then
	// close every tenant machine. With -handoff-grace, the listener stays
	// up between those steps so a router that saw the 503 can pull every
	// tenant's state through /v1/admin/snapshot before it disappears —
	// that window is what makes a rolling restart lose no tenant files.
	srv.StartDrain()
	if *handoffGrace > 0 {
		hctx, hcancel := context.WithTimeout(context.Background(), *handoffGrace)
		left := srv.AwaitHandoff(hctx)
		hcancel()
		if left > 0 {
			fmt.Fprintf(os.Stderr, "shilld: handoff grace expired with %d tenant(s) unexported\n", left)
		} else {
			fmt.Fprintln(os.Stderr, "shilld: tenant state handed off")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	drainErr := srv.Drain(ctx)
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shilld: shutdown: %v\n", shutdownErr)
		return 1
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "shilld: drain: %v\n", drainErr)
		return 1
	}
	if !srv.MachinesClosed() {
		fmt.Fprintln(os.Stderr, "shilld: drain left machines open")
		return 1
	}
	fmt.Fprintln(os.Stderr, "shilld: drained cleanly")
	return 0
}

// loadOrBuildGolden returns the golden image stored at path, building
// one from the configured machine options and persisting it there when
// the file does not exist yet.
func loadOrBuildGolden(path string, opts []shill.Option) (*shill.Image, error) {
	if data, err := os.ReadFile(path); err == nil {
		return shill.DeserializeImage(data)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	m, err := shill.NewMachine(opts...)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	img, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, img.Serialize(), 0o644); err != nil {
		return nil, err
	}
	return img, nil
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
