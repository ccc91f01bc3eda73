package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/router"
	"repro/internal/server"
	"repro/shill"
)

// conns is how many keep-alive connections (and sender goroutines) the
// load generator uses: the core count of the reference host, fixed so
// that runs on any host offer the same load.
const conns = 2

// serveEnv is one serving deployment: in-process shilld replicas on
// loopback listeners, optionally behind shill-router, and the load
// client that drives it.
type serveEnv struct {
	workload string
	tree     tree
	rec      *recorder // nil unless the run is traced

	replicas []*replica
	rt       *router.Router
	rtSrv    *http.Server
	url      string // where load is sent: the router, or the single replica
	client   *http.Client

	// Churn state: the tenant rotation and each tenant's log line count,
	// advanced as requests are planned.
	order  []string
	pos    int
	counts map[string]int
}

type replica struct {
	srv  *server.Server
	http *http.Server
	url  string
}

// buildGolden boots a demo machine, stages the seeded tree, the churn
// log and the scan module, and snapshots it: every tenant boots from it.
func buildGolden(t tree) (*shill.Image, error) {
	m, err := shill.NewMachine(shill.WithWorkload(shill.WorkloadDemo))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	for _, f := range t.files {
		dir := f.path[:strings.LastIndexByte(f.path, '/')]
		if err := m.MkdirAll(dir, 0o755, shill.UserUID); err != nil {
			return nil, err
		}
		if err := m.WriteFile(f.path, []byte(f.data), 0o644, shill.UserUID); err != nil {
			return nil, err
		}
	}
	if err := m.WriteFile(churnLog, nil, 0o644, shill.UserUID); err != nil {
		return nil, err
	}
	m.AddScript("scan.cap", scanCap)
	return m.Snapshot()
}

func listen(h http.Handler) (*http.Server, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(lis)
	return hs, "http://" + lis.Addr().String(), nil
}

// setupServe brings a serving workload up to its first timed request:
// golden image, replicas, router, and warm tenants. rec, when non-nil,
// installs the benchmark's span wrappers (they record only while the
// recorder is on).
func setupServe(ctx context.Context, workload string, t tree, seed uint64, rec *recorder) (*serveEnv, error) {
	e := &serveEnv{workload: workload, tree: t, rec: rec, counts: map[string]int{}}
	golden, err := buildGolden(t)
	if err != nil {
		return nil, fmt.Errorf("golden image: %w", err)
	}
	nrep := 2
	cfg := server.Config{GoldenImage: golden}
	if workload == "serve-churn" {
		nrep = 1
		cfg.MaxMachines = 4
		cfg.MaxImages = 2 * churnTenants
		e.order = churnOrder(rand.New(rand.NewPCG(seed, 0x6f72646572)))
	}
	for range nrep {
		srv := server.New(cfg)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = wrapHandler(rec, "replica", h)
		}
		hs, url, err := listen(h)
		if err != nil {
			srv.Close()
			e.close()
			return nil, err
		}
		e.replicas = append(e.replicas, &replica{srv: srv, http: hs, url: url})
	}
	e.url = e.replicas[0].url
	if workload == "serve-mix" {
		rcfg := router.Config{}
		for _, r := range e.replicas {
			rcfg.Replicas = append(rcfg.Replicas, r.url)
		}
		if rec != nil {
			// The router's default replica client, wrapped.
			rcfg.Client = &http.Client{Transport: &tracingTransport{rec: rec, name: "forward",
				next: &http.Transport{MaxIdleConnsPerHost: 64}}}
		}
		rt, err := router.New(rcfg)
		if err != nil {
			e.close()
			return nil, err
		}
		var h http.Handler = rt.Handler()
		if rec != nil {
			h = wrapHandler(rec, "router", h)
		}
		hs, url, err := listen(h)
		if err != nil {
			e.close()
			return nil, err
		}
		e.rt, e.rtSrv, e.url = rt, hs, url
		rt.Start()
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := rt.WaitHealthy(wctx, nrep); err != nil {
			e.close()
			return nil, err
		}
	}
	e.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	if err := e.warm(ctx, seed); err != nil {
		e.close()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	return e, nil
}

// warm boots every tenant and runs each request kind on it, so the first
// timed request finds caches filled and lazy set-up done. Churn tenants
// get two rounds, so each holds a retained image of its own.
func (e *serveEnv) warm(ctx context.Context, seed uint64) error {
	var reqs []rendered
	if e.workload == "serve-mix" {
		for i := range mixTenants {
			tenant := fmt.Sprintf("m%d", i)
			for k := kindLight; k <= kindArgv; k++ {
				reqs = append(reqs, render(e.tree, request{kind: k, tenant: tenant, pat: scanPatterns[i%len(scanPatterns)], file: i}, 0))
			}
		}
	} else {
		reqs = e.planChurn(rand.New(rand.NewPCG(seed, 0x7761726d)), 2*churnTenants, false)
	}
	for i, r := range reqs {
		if o := e.do(ctx, int64(-1-i), r); o.err != nil {
			return fmt.Errorf("%s request for %s: %w", r.kind, r.tenant, o.err)
		}
	}
	return nil
}

// planMix draws and renders n serve-mix requests.
func (e *serveEnv) planMix(rng *rand.Rand, n int) []rendered {
	out := make([]rendered, n)
	for i, r := range planMix(rng, e.tree, n) {
		out[i] = render(e.tree, r, 0)
	}
	return out
}

// planChurn renders the next n requests of the churn rotation; denials
// and scans are drawn only when mixed is set (the warmup is appends
// alone).
func (e *serveEnv) planChurn(rng *rand.Rand, n int, mixed bool) []rendered {
	reqs := planChurn(rng, e.order, e.pos, n)
	e.pos += n
	out := make([]rendered, n)
	for i, r := range reqs {
		if !mixed {
			r.kind = kindAppend
		}
		if r.kind == kindAppend {
			e.counts[r.tenant]++
		}
		out[i] = render(e.tree, r, e.counts[r.tenant])
	}
	return out
}

func (e *serveEnv) plan(rng *rand.Rand, n int) []rendered {
	if e.workload == "serve-mix" {
		return e.planMix(rng, n)
	}
	return e.planChurn(rng, n, true)
}

func (e *serveEnv) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	if e.rtSrv != nil {
		e.rtSrv.Close()
	}
	for _, r := range e.replicas {
		r.http.Close()
		r.srv.Close()
	}
}

// outcome is one request's fate. Times are offsets from the phase start.
type outcome struct {
	kind            kind
	due, sent, done time.Duration
	err             error
	foreignDenials  int
}

// do sends one request and checks its answer. A failure is a transport
// error, any non-200 status, or an answer that is not the correct one.
func (e *serveEnv) do(ctx context.Context, id int64, r rendered) outcome {
	o := outcome{kind: r.kind}
	hreq, err := http.NewRequestWithContext(ctx, "POST", e.url+"/v1/run", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	traced := e.rec.enabled()
	if traced {
		hreq.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := e.client.Do(hreq)
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		e.rec.add(span{Req: id, Name: "client", Start: start, End: end})
	}
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var rr answer
	if err := json.Unmarshal(data, &rr); err != nil {
		o.err = fmt.Errorf("decoding response: %w", err)
		return o
	}
	o.err = checkRun(r, &rr)
	for _, d := range rr.Denials {
		if d.TraceID != rr.TraceID {
			o.foreignDenials++
		}
	}
	if traced {
		var spans []shill.Span
		if err := json.Unmarshal(rr.Trace, &spans); err != nil {
			o.err = fmt.Errorf("decoding response trace: %w", err)
			return o
		}
		importTrace(e.rec, id, spans)
	}
	return o
}

// answer is the part of a server.RunResponse the checks read. The span
// tree stays undecoded unless the run is traced, so an untraced load
// generator allocates little beside the program it measures.
type answer struct {
	ExitStatus int                 `json:"exitStatus"`
	Console    string              `json:"console"`
	Error      string              `json:"error"`
	Denials    []*shill.DenyReason `json:"denials"`
	TraceID    uint64              `json:"traceId"`
	Trace      json.RawMessage     `json:"trace"`
}

// checkRun checks one answer: allowed runs exit 0 with the exact
// console; denials exit nonzero with capability-layer provenance, in the
// run's own trace, that names the missing privileges and the contract to
// blame.
func checkRun(r rendered, rr *answer) error {
	if r.kind == kindDeny {
		if rr.ExitStatus == 0 {
			return errors.New("denial run exited 0")
		}
		// The run's own denial: the answer may also carry a concurrent
		// run's denials of the same tenant.
		for _, d := range rr.Denials {
			if d.TraceID == rr.TraceID && d.Layer == audit.LayerCapability && !d.Missing.Empty() && len(d.Blame) > 0 {
				return nil
			}
		}
		return fmt.Errorf("denial without capability provenance of its own: %s", rr.Error)
	}
	if rr.ExitStatus != 0 || rr.Error != "" {
		return fmt.Errorf("%s run failed: exit %d: %s", r.kind, rr.ExitStatus, rr.Error)
	}
	if rr.Console != r.want {
		return fmt.Errorf("%s run printed %q, want %q", r.kind, clip(rr.Console), clip(r.want))
	}
	return nil
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// importTrace adds the span tree shilld returned in a response to the
// recorder under the request's ID, named "shill.<kind>", keeping its
// parent links; its roots are linked to the enclosing benchmark span by
// linkParents.
func importTrace(rec *recorder, id int64, spans []shill.Span) {
	ids := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ids[s.ID] = rec.ids.Add(1)
	}
	for _, s := range spans {
		rec.addWithID(span{Req: id, ID: ids[s.ID], Parent: ids[s.Parent], Name: "shill." + s.Kind.String(),
			Start: s.Start, End: s.Start.Add(s.Dur), Count: s.Count, Detail: s.Detail})
	}
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	outs    []outcome
	late    []float64 // generator lateness per request, ms
	elapsed time.Duration
}

// appendChain returns, for each request, the index of the previous
// append of its tenant among reqs, or -1 (also for every request that is
// not an append).
func appendChain(reqs []rendered) []int {
	after := make([]int, len(reqs))
	last := map[string]int{}
	for i, r := range reqs {
		after[i] = -1
		if r.kind != kindAppend {
			continue
		}
		if j, ok := last[r.tenant]; ok {
			after[i] = j
		}
		last[r.tenant] = i
	}
	return after
}

// runOpen sends reqs open-loop: a dispatcher releases request i at
// due[i] whatever the state of earlier ones, and conns senders put them
// on the wire. A request's latency runs from its due time, so a stall
// also charges the requests queued behind it. An append is sent only
// once its tenant's previous append has answered: the line count it
// must print depends on their order, and two appends in flight on one
// tenant may run in either order (a quota of 4 admits both).
func (e *serveEnv) runOpen(ctx context.Context, reqs []rendered, due []time.Duration, idBase int64) phaseResult {
	res := phaseResult{outs: make([]outcome, len(reqs)), late: make([]float64, len(reqs))}
	after := appendChain(reqs)
	answered := make([]chan struct{}, len(reqs))
	for _, j := range after {
		if j >= 0 {
			answered[j] = make(chan struct{})
		}
	}
	// Sized to every request of the phase, so the dispatcher never
	// blocks on a busy sender: waiting is the senders' to show. A sender
	// waits only on an earlier request, which a sender has already taken,
	// so the waits cannot deadlock.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if j := after[i]; j >= 0 {
					<-answered[j]
				}
				sent := time.Since(start)
				o := e.do(ctx, idBase+int64(i), reqs[i])
				o.due, o.sent, o.done = due[i], sent, time.Since(start)
				res.outs[i] = o
				if answered[i] != nil {
					close(answered[i])
				}
			}
		}()
	}
	for i := range reqs {
		if d := due[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = ms(time.Since(start) - due[i])
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// segment sends n planned requests open-loop at rate, tallies them into
// res and measures them.
func (e *serveEnv) segment(ctx context.Context, rng *rand.Rand, n int, rate float64, res *result) segment {
	reqs, due := e.plan(rng, n), arrivals(rng, n, rate)
	var ph phaseResult
	steal := stolen(func() { ph = e.runOpen(ctx, reqs, due, 0) })
	lat, deny := tally(ph, res)
	return segment{lat: lat, deny: deny, late: ph.late, jobs: len(ph.outs), elapsed: ph.elapsed, steal: steal}
}

// closedLoop sends n planned requests back to back on the load
// connections, tallies them into res and measures them. Every request is
// due at the start, so a latency here is the service time, from send to
// the last response byte, of a correctly answered request.
func (e *serveEnv) closedLoop(ctx context.Context, rng *rand.Rand, n int, res *result) segment {
	reqs := e.plan(rng, n)
	var ph phaseResult
	steal := stolen(func() { ph = e.runOpen(ctx, reqs, make([]time.Duration, n), 0) })
	tally(ph, res)
	s := segment{jobs: len(ph.outs), elapsed: ph.elapsed, steal: steal}
	for _, o := range ph.outs {
		if o.err == nil {
			s.lat = append(s.lat, ms(o.done-o.sent))
		}
	}
	return s
}

// scrape reads a replica's /metrics counters.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// counterSum sums a counter over the replicas.
func (e *serveEnv) counterSum(ctx context.Context, names ...string) (float64, error) {
	var sum float64
	for _, r := range e.replicas {
		m, err := scrape(ctx, r.url)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			sum += m[n]
		}
	}
	return sum, nil
}

// tenantImages exports every tenant's current image (live machine or
// retained snapshot) through the admin surface, without evicting.
func (e *serveEnv) tenantImages(ctx context.Context) (map[string]*shill.Image, error) {
	var tenants []string
	if e.workload == "serve-mix" {
		for i := range mixTenants {
			tenants = append(tenants, fmt.Sprintf("m%d", i))
		}
	} else {
		tenants = e.order
	}
	out := map[string]*shill.Image{}
	for _, t := range tenants {
		for _, r := range e.replicas {
			req, err := http.NewRequestWithContext(ctx, "GET", r.url+"/v1/admin/snapshot?tenant="+t, nil)
			if err != nil {
				return nil, err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode == http.StatusNotFound {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("snapshot of %s: status %d", t, resp.StatusCode)
			}
			img, err := shill.DeserializeImage(data)
			if err != nil {
				return nil, err
			}
			out[t] = img
		}
	}
	return out, nil
}
