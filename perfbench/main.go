// Command perfbench is the repository's benchmark: it drives shilld (in
// process, over loopback HTTP, behind shill-router where the workload
// says so) and the paper's grading case study, checks every answer, and
// prints the end-to-end metrics, or with -trace 1 the per-layer metrics
// of a traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it with perfbench/run.sh from the repository root; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// serveParams fixes a serving workload's offered load: its nominal
// rate, the p99 latency limit, and how many untimed requests fill the
// deployment before timing.
type serveParams struct {
	nominal float64 // requests per second
	limitMs float64
	fill    int
}

// These are frozen with the benchmark: changing them changes what every
// later measurement means. serve-mix is filled with about the number of
// requests over which its p99 drifts up before levelling off;
// serve-churn's state, a copy-on-write layer per eviction, grows without
// bound, so it is measured at a fixed point of that growth.
var serveWorkloads = map[string]serveParams{
	"serve-mix":   {nominal: 300, limitMs: 100, fill: 6000},
	"serve-churn": {nominal: 200, limitMs: 100},
}

// Phase shares of --seconds. The nominal-rate phase, the saturation
// phase and grade-batch run in segments whose samples are pooled; a
// segment the hypervisor disturbed is run again (see cleanest).
const (
	segments          = 6
	segmentShare      = 0.12
	minSegment        = 400 // requests
	satSegments       = 8
	satShare          = 0.07
	minSatSegment     = 200 // requests
	gradeSegments     = 4
	gradeSegmentShare = 0.2
	minJobs           = 1000 // pooled, so p99 has at least ten samples beyond it
	setupRepeats      = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's verdict and numbers.
type result struct {
	attempted, failed int
	problems          []string // first failures and broken invariants
	e2e               map[string]float64
	layers            map[string]float64
	notes             map[string]any // facts of the run for the host stamp
}

func (r *result) fail(n int, err error) {
	r.failed += n
	if len(r.problems) < 5 && err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

func main() {
	workload := flag.String("workload", "", "serve-mix, serve-churn or grade-batch")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	traced := *traceFlag == 1
	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(1)
	}
	var res *result
	busy0, steal0 := cpuTimes()
	switch *workload {
	case "serve-mix", "serve-churn":
		res, err = runServe(ctx, sp, *workload, *seed, d, traced)
	case "grade-batch":
		// The grading batch is the paper's default course on every seed.
		res, err = runGrade(ctx, sp, d, traced)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host := hostFacts(*workload, *seed, traced)
	if busy1, steal1 := cpuTimes(); busy1 > busy0 {
		host["steal_frac"] = float64(steal1-steal0) / float64(busy1-busy0)
	}
	for k, v := range res.notes {
		host[k] = v
	}
	if err := report(os.Stdout, sp, res, host, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report holds a traced run to its tolerances, then prints the host
// stamp, the failures, a table of every metric and the result line.
func report(w *os.File, sp spec, res *result, host map[string]any, traced bool) error {
	out := map[string]metric{}
	list, values := sp.EndToEnd, res.e2e
	if traced {
		list, values = sp.PerLayer, res.layers
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metric{v, m.Unit}
	}
	var checks []string
	if traced {
		for _, name := range sortedKeys(sp.Tolerances) {
			v, tol := out[name].Value, sp.Tolerances[name]
			checks = append(checks, fmt.Sprintf("tolerance %-28s %10.4f <= %g: %v", name, v, tol, v <= tol))
			if v > tol {
				res.fail(0, fmt.Errorf("%s = %.4f exceeds its tolerance %g", name, v, tol))
			}
		}
		checks = append(checks, "windowed (approximate under concurrent sessions): "+strings.Join(sp.Windowed, ", "))
	}
	stamp, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", stamp)
	for _, p := range res.problems {
		fmt.Fprintf(w, "failure: %s\n", p)
	}
	for _, c := range checks {
		fmt.Fprintln(w, c)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.6f %s\n", "fail_frac", frac, "ratio")
	for _, n := range sortedKeys(out) {
		fmt.Fprintf(w, "%-30s %14.6f %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupTimes runs setup repeatedly, keeping the last environment, and
// returns the median set-up time.
func setupTimes[E any](repeats int, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var e E
	var times []float64
	for i := range repeats {
		if i > 0 {
			teardown(e)
		}
		start := time.Now()
		var err error
		e, err = setup()
		if err != nil {
			return e, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

func runServe(ctx context.Context, sp spec, workload string, seed uint64, d time.Duration, traced bool) (*result, error) {
	p := serveWorkloads[workload]
	t := genTree(seed)
	var rec *recorder
	repeats := setupRepeats
	if traced {
		rec, repeats = &recorder{}, 1
	}
	e, setupS, err := setupTimes(repeats,
		func() (*serveEnv, error) { return setupServe(ctx, workload, t, seed, rec) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()

	res := &result{e2e: map[string]float64{"setup_s": setupS}, layers: map[string]float64{}, notes: map[string]any{}}
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6164))
	// The fill: untimed, so that state the program bounds (per-tenant
	// audit rings, the heap they hold) has grown to its steady size
	// before timing starts.
	if p.fill > 0 {
		e.closedLoop(ctx, rng, p.fill, res)
	}
	n := max(minSegment, int(p.nominal*d.Seconds()*segmentShare))
	if traced {
		return res, e.tracedPhases(ctx, rng, p, max(minJobs, 3*n), res, workload)
	}

	// The nominal-rate phase: its latencies are pooled over the clean
	// segments; the live heap is read at the same point of every run.
	runtime.GC()
	g0 := readGo()
	ran := 0
	segs, err := cleanest(segments, func(i int) (segment, error) {
		s := e.segment(ctx, rng, n, p.nominal, res)
		ran += s.jobs
		if i == segments-1 {
			res.e2e["live_heap_mb"] = liveHeapMiB()
		}
		fmt.Fprintf(os.Stderr, "nominal segment %d: p50 %.3f p99 %.3f ms, generator late p99 %.3f ms, steal %.3f\n",
			i, percentile(s.lat, 50), percentile(s.lat, 99), percentile(s.late, 99), s.steal)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	cpuPerReq := (readGo().cpu - g0.cpu) / time.Duration(ran)
	all := pool(segs)
	res.e2e["p50_ms"] = percentile(all.lat, 50)
	res.e2e["p99_ms"] = percentile(all.lat, tailPercentile(len(all.lat)))
	res.e2e["deny_p50_ms"] = percentile(all.deny, 50)
	res.notes["nominal_samples"] = len(all.lat)
	res.notes["nominal_steal_max"] = all.steal
	late, tol := percentile(all.late, 99), sp.Tolerances["gen.late_p99_ms"]
	res.notes["gen_late_p99_ms"] = late
	if late > tol {
		res.fail(0, fmt.Errorf("generator late p99 %.2f ms at the nominal rate exceeds %g ms: the run measured the load generator", late, tol))
	}

	// Saturation: both connections send back to back, so the deployment
	// serves as fast as it can. While a request's service time there
	// (sat_p99_ms) is within the limit, that rate is the highest one that
	// meets the limit without a growing backlog: the limit an open-loop
	// rate ladder's highest passing rung approaches from below. It is
	// measured directly, because near it a rung's pass or fail is a coin
	// toss.
	capacity := p.nominal
	if cpuPerReq > 0 {
		capacity = float64(runtime.GOMAXPROCS(0)) / cpuPerReq.Seconds()
	}
	nSat := max(minSatSegment, int(capacity*d.Seconds()*satShare))
	sats, err := cleanest(satSegments, func(i int) (segment, error) {
		s := e.closedLoop(ctx, rng, nSat, res)
		fmt.Fprintf(os.Stderr, "saturation segment %d: %.1f req/s, steal %.3f\n",
			i, float64(s.jobs)/s.elapsed.Seconds(), s.steal)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	// The median segment: the CPU time a request costs at saturation
	// moves by a tenth from one segment to the next, with no steal.
	var rps, goodput []float64
	for _, s := range sats {
		rps = append(rps, float64(s.jobs)/s.elapsed.Seconds())
		// Goodput: only the requests answered correctly.
		goodput = append(goodput, float64(len(s.lat))/s.elapsed.Seconds())
	}
	res.e2e["max_rps"] = median(rps)
	res.e2e["jobs_per_s"] = median(goodput)
	sat := pool(sats)
	res.notes["sat_p99_ms"] = percentile(sat.lat, tailPercentile(len(sat.lat)))

	dropped, err := e.counterSum(ctx, "shilld_tenant_images_dropped_total")
	if err != nil {
		return nil, err
	}
	if dropped != 0 {
		res.fail(0, fmt.Errorf("%v retained tenant images were dropped", dropped))
	}
	return res, nil
}

// tally adds a phase's outcomes to the result and returns the latencies
// (due to done, ms) of its requests, and of its denials.
func tally(ph phaseResult, res *result) (lat, deny []float64) {
	for _, o := range ph.outs {
		res.attempted++
		if o.err != nil {
			res.fail(1, o.err)
			continue
		}
		l := ms(o.done - o.due)
		lat = append(lat, l)
		if o.kind == kindDeny {
			deny = append(deny, l)
		}
	}
	return lat, deny
}

// tracedPhases runs one nominal-rate segment traced between two
// untraced ones, and fills the per-layer metrics from the traced one.
func (e *serveEnv) tracedPhases(ctx context.Context, rng *rand.Rand, p serveParams, n int, res *result, workload string) error {
	runtime.GC()
	plain := e.segment(ctx, rng, n, p.nominal, res)

	imgsBefore, err := e.tenantImages(ctx)
	if err != nil {
		return err
	}
	restoresBefore, err := e.counterSum(ctx, `shilld_restores_total{kind="warm"}`, `shilld_restores_total{kind="cold"}`)
	if err != nil {
		return err
	}
	runtime.GC()
	reqs := e.plan(rng, n)
	due := arrivals(rng, n, p.nominal)
	g0 := readGo()
	e.rec.on.Store(true)
	ph := e.runOpen(ctx, reqs, due, 1)
	e.rec.on.Store(false)
	g1 := readGo()
	lat, _ := tally(ph, res)

	top := "replica"
	if workload == "serve-mix" {
		top = "router"
	}
	spans := e.rec.take()
	for k, v := range spanLayers(spans, top) {
		res.layers[k] = v
	}
	for k, v := range goLayers(g0, g1, len(ph.outs)) {
		res.layers[k] = v
	}

	var foreign int
	sent := make([]time.Duration, n)
	for i, o := range ph.outs {
		foreign += o.foreignDenials
		sent[i] = o.sent
	}
	res.layers["audit.foreign_denials_per_req"] = float64(foreign) / float64(n)
	res.layers["gen.late_p99_ms"] = percentile(ph.late, 99)
	res.layers["gen.backlog_max"] = float64(peakBacklog(due, sent))

	restoresAfter, err := e.counterSum(ctx, `shilld_restores_total{kind="warm"}`, `shilld_restores_total{kind="cold"}`)
	if err != nil {
		return err
	}
	res.layers["server.restores_per_req"] = (restoresAfter - restoresBefore) / float64(n)
	retained, err := e.counterSum(ctx, "shilld_tenant_images")
	if err != nil {
		return err
	}
	res.layers["image.retained"] = retained
	imgs, err := e.tenantImages(ctx)
	if err != nil {
		return err
	}
	var layersMax int
	var events float64
	for name, img := range imgs {
		layersMax = max(layersMax, len(img.Layers()))
		if before := imgsBefore[name]; before != nil {
			events += float64(img.Meta().AuditSeq - before.Meta().AuditSeq)
		}
	}
	res.layers["image.layers_max"] = float64(layersMax)
	res.layers["audit.events_per_job"] = events / float64(n)
	var hits, boots uint64
	for _, r := range e.replicas {
		for _, st := range r.srv.MachineStats() {
			hits += st.ImageCacheHits
			boots += st.ImageCacheHits + st.ImageCacheMisses
		}
	}
	res.layers["image.flatten_hit_share"] = 0
	if boots > 0 {
		res.layers["image.flatten_hit_share"] = float64(hits) / float64(boots)
	}
	after := e.segment(ctx, rng, n, p.nominal, res)
	res.layers["trace.overhead_frac"] = overhead(lat, plain.lat, after.lat)
	return writeSpanFile(workload, spans)
}

// overhead is the traced segment's median latency over that of the
// untraced segments before and after it, minus 1: the sandwich cancels
// the drift of a run whose state grows as it serves.
func overhead(traced, before, after []float64) float64 {
	return percentile(traced, 50)/((percentile(before, 50)+percentile(after, 50))/2) - 1
}

func runGrade(ctx context.Context, sp spec, d time.Duration, traced bool) (*result, error) {
	var rec *recorder
	repeats := setupRepeats
	if traced {
		rec, repeats = &recorder{}, 1
	}
	e, setupS, err := setupTimes(repeats,
		func() (*gradeEnv, error) { return setupGrade(ctx, rec) },
		func(e *gradeEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	// grade-batch bypasses the serving layers: they read 0.
	res := &result{e2e: map[string]float64{"setup_s": setupS}, layers: sp.zeroLayers(), notes: map[string]any{}}

	segDur := time.Duration(float64(d) * gradeSegmentShare)
	closed := func(minJobs int, idBase int64) (segment, error) {
		var jobs []gradeJob
		var elapsed time.Duration
		var err error
		steal := stolen(func() { jobs, elapsed, err = e.runClosed(ctx, segDur, minJobs, idBase) })
		return segment{lat: gradeTally(jobs, res), jobs: len(jobs), elapsed: elapsed, steal: steal}, err
	}
	if traced {
		plain, err := closed(minJobs/4, 0)
		if err != nil {
			return nil, err
		}
		st0, p0 := e.m.Stats(), e.profSamples()
		g0 := readGo()
		e.rec.on.Store(true)
		jobs, _, err := e.runClosed(ctx, segDur, minJobs, 1)
		e.rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		g1 := readGo()
		st1, p1 := e.m.Stats(), e.profSamples()
		lat := gradeTally(jobs, res)
		spans := e.rec.take()
		for k, v := range spanLayers(spans, "shill.run") {
			res.layers[k] = v
		}
		for k, v := range goLayers(g0, g1, len(jobs)) {
			res.layers[k] = v
		}
		nj := float64(len(jobs))
		var foreign int
		for _, j := range jobs {
			foreign += j.foreignDenials
		}
		res.layers["audit.foreign_denials_per_req"] = float64(foreign) / nj
		res.layers["audit.events_per_job"] = float64(st1.AuditSeq-st0.AuditSeq) / nj
		res.layers["audit.emit_ms_per_job"] = ms(p1.audit.total-p0.audit.total) / nj
		res.layers["contract.checks_per_job"] = float64(p1.contract.count-p0.contract.count) / nj
		res.layers["contract.ms_per_job"] = ms(p1.contract.total-p0.contract.total) / nj
		sandboxes := float64(p1.setup.count - p0.setup.count)
		res.layers["sandbox.per_job"] = sandboxes / nj
		res.layers["sandbox.setup_ms_per_sandbox"] = ms(p1.setup.total-p0.setup.total) / sandboxes
		res.layers["sandbox.exec_ms_per_job"] = ms(p1.exec.total-p0.exec.total) / nj
		after, err := closed(minJobs/4, 0)
		if err != nil {
			return nil, err
		}
		res.layers["trace.overhead_frac"] = overhead(lat, plain.lat, after.lat)
		return res, writeSpanFile("grade-batch", spans)
	}

	// Clean segments of the closed loop, their samples pooled, as in the
	// serving workloads.
	runtime.GC()
	segs, err := cleanest(gradeSegments, func(i int) (segment, error) {
		s, err := closed(minJobs/gradeSegments, 0)
		if i == gradeSegments-1 {
			res.e2e["live_heap_mb"] = liveHeapMiB()
		}
		fmt.Fprintf(os.Stderr, "grading segment %d: %d courses, p50 %.3f p99 %.3f ms, steal %.3f\n",
			i, s.jobs, percentile(s.lat, 50), percentile(s.lat, 99), s.steal)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	all := pool(segs)
	res.e2e["p50_ms"] = percentile(all.lat, 50)
	res.e2e["p99_ms"] = percentile(all.lat, tailPercentile(len(all.lat)))
	res.notes["nominal_samples"] = len(all.lat)
	res.notes["nominal_steal_max"] = all.steal
	// Every graded course's correct outcome includes two capability
	// denials (the cheater's read, the vandal's write).
	res.e2e["deny_p50_ms"] = res.e2e["p50_ms"]
	// A closed loop of the sessions runs the machine at its capacity:
	// its throughput is both the batch rate and its highest rate.
	res.e2e["jobs_per_s"] = float64(all.jobs) / all.elapsed.Seconds()
	res.e2e["max_rps"] = res.e2e["jobs_per_s"]
	return res, nil
}

func gradeTally(jobs []gradeJob, res *result) []float64 {
	lat := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		res.attempted++
		if j.err != nil {
			res.fail(1, j.err)
			continue
		}
		lat = append(lat, ms(j.lat))
	}
	return lat
}

// writeSpanFile writes a traced run's spans, parents linked, under the
// build directory.
func writeSpanFile(workload string, spans []span) error {
	linkParents(spans)
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostFacts stamps a result with what it was measured on and with the
// program's effective defaults, so a default flip is attributable.
func hostFacts(workload string, seed uint64, traced bool) map[string]any {
	facts := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"source":     sourceDigest("."),
		"conns":      conns,
	}
	for k, v := range programDefaults() {
		facts[k] = v
	}
	if p, ok := serveWorkloads[workload]; ok {
		facts["nominal_rps"] = p.nominal
		facts["limit_ms"] = p.limitMs
	}
	return facts
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
