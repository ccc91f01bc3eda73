package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

//go:embed layers.json
var layersJSON []byte

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is what a run reports and is held to: the metrics BENCHMARK.json
// declares, and from layers.json the tolerances of the traced run and
// the per-layer metrics that are windowed.
type spec struct {
	EndToEnd   []metricSpec       `json:"end_to_end"`
	PerLayer   []metricSpec       `json:"per_layer"`
	Tolerances map[string]float64 `json:"tolerances"`
	Windowed   []string           `json:"windowed"`
}

// loadSpec reads the benchmark file at path and the embedded layers.json.
func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(layersJSON, &s); err != nil {
		return s, fmt.Errorf("layers.json: %w", err)
	}
	return s, nil
}

// zeroLayers is every per-layer metric at 0: what a workload reads for
// the layers it bypasses.
func (s spec) zeroLayers() map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.PerLayer {
		out[m.Name] = 0
	}
	return out
}

// spanLayers folds the spans of a traced phase into per-layer numbers.
// top names the span a request's client time should fall inside: the
// router span behind a router, the replica handler span otherwise, the
// shill run span on grade-batch.
func spanLayers(spans []span, top string) map[string]float64 {
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var (
		routerSelf, hop, handler, wire, acquire, queue, run []float64
		jobs, forwards, routers, compiles, hits             float64
		compileMs, evalSelf, clientMs, unattributedMs       float64
		sum                                                 = map[string]float64{}
	)
	for _, ss := range byReq {
		named := map[string][]span{}
		for _, s := range ss {
			if s.Count == 0 {
				named[s.Name] = append(named[s.Name], s)
			} else {
				// Aggregated spans: counts and total time, no interval.
				sum[s.Name+".count"] += float64(s.Count)
				sum[s.Name+".ms"] += ms(s.dur())
			}
		}
		client := named["client"]
		if len(client) != 1 {
			continue
		}
		jobs++
		c := client[0]
		clientMs += ms(c.dur())
		unattributedMs += ms(c.dur() - covered(c.Start, c.End, named[top]))
		for _, r := range named["router"] {
			routers++
			routerSelf = append(routerSelf, ms(selfTime(r, named["forward"])))
		}
		for _, f := range named["forward"] {
			forwards++
			hop = append(hop, ms(selfTime(f, named["replica"])))
		}
		inner := append(append(append([]span(nil), named["shill.acquire"]...), named["shill.queue"]...), named["shill.run"]...)
		for _, p := range named["replica"] {
			handler = append(handler, ms(p.dur()))
			wire = append(wire, ms(selfTime(p, inner)))
		}
		for _, s := range named["shill.acquire"] {
			acquire = append(acquire, ms(s.dur()))
		}
		for _, s := range named["shill.queue"] {
			queue = append(queue, ms(s.dur()))
		}
		for _, s := range named["shill.run"] {
			run = append(run, ms(s.dur()))
		}
		for _, s := range named["shill.compile"] {
			compiles++
			compileMs += ms(s.dur())
			if strings.Contains(s.Detail, "cache=hit") {
				hits++
			}
		}
		var work []span
		for _, k := range []string{"shill.sandbox-setup", "shill.sandbox-exec", "shill.contract-check", "shill.audit-emit"} {
			work = append(work, named[k]...)
		}
		for _, s := range named["shill.eval"] {
			evalSelf += ms(selfTime(s, work))
		}
	}
	per := func(x float64) float64 {
		if jobs == 0 {
			return 0
		}
		return x / jobs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"router.self_ms_p50":           percentile(routerSelf, 50),
		"router.hop_ms_p50":            percentile(hop, 50),
		"router.attempts_per_req":      ratio(forwards, routers),
		"server.handler_ms_p50":        percentile(handler, 50),
		"server.wire_ms_p50":           percentile(wire, 50),
		"server.acquire_ms_p50":        percentile(acquire, 50),
		"server.acquire_ms_p99":        percentile(acquire, tailPercentile(len(acquire))),
		"server.queue_ms_p99":          percentile(queue, tailPercentile(len(queue))),
		"shill.run_ms_p50":             percentile(run, 50),
		"lang.compile_ms_per_job":      per(compileMs),
		"lang.eval_self_ms_per_job":    per(evalSelf),
		"lang.compile_hit_share":       ratio(hits, compiles),
		"contract.checks_per_job":      per(sum["shill.contract-check.count"]),
		"contract.ms_per_job":          per(sum["shill.contract-check.ms"]),
		"sandbox.per_job":              per(sum["shill.sandbox-setup.count"]),
		"sandbox.setup_ms_per_sandbox": ratio(sum["shill.sandbox-setup.ms"], sum["shill.sandbox-setup.count"]),
		"sandbox.exec_ms_per_job":      per(sum["shill.sandbox-exec.ms"]),
		"kernel.policy_ops_per_job":    per(sum["shill.op-policy.count"]),
		"kernel.policy_ms_per_job":     per(sum["shill.op-policy.ms"]),
		"vfs.ops_per_job":              per(sum["shill.op-vfs.count"]),
		"vfs.ms_per_job":               per(sum["shill.op-vfs.ms"]),
		"audit.emit_ms_per_job":        per(sum["shill.audit-emit.ms"]),
		"trace.unattributed_frac":      ratio(unattributedMs, clientMs),
	}
}

// goSnap is a point reading of the Go runtime's own counters.
type goSnap struct {
	cpu                   time.Duration // process user+system CPU
	allocs                uint64        // cumulative heap bytes allocated
	gcCPU, totalCPU, idle float64       // runtime/metrics CPU classes, seconds
}

var goSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goSamples))
	for i, n := range goSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return goSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idle:     s[3].Value.Float64(),
	}
}

// goLayers is the Go runtime's share of a phase of jobs.
func goLayers(a, b goSnap, jobs int) map[string]float64 {
	out := map[string]float64{}
	if jobs > 0 {
		out["go.cpu_ms_per_job"] = ms(b.cpu-a.cpu) / float64(jobs)
		out["go.alloc_kb_per_job"] = float64(b.allocs-a.allocs) / 1024 / float64(jobs)
	}
	if busy := (b.totalCPU - a.totalCPU) - (b.idle - a.idle); busy > 0 {
		out["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / busy
	}
	return out
}

// liveHeapMiB forces a collection and reads the live heap.
func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
