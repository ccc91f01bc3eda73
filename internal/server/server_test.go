package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/priv"
	"repro/shill"
)

// Test scripts. The ambient dialect is straight-line, so loops live in
// cap modules served by the tenant machines' resolver.

const spinCap = `#lang shill/cap

provide spin : {} -> void;

spin = fun() {
  for a in range(100000) {
    for b in range(100000) {
      b;
    }
  }
};
`

const spinAmbient = `#lang shill/ambient
require "spin.cap";
spin();
`

const allowAmbient = "#lang shill/ambient\n\nappend(stdout, \"ok\\n\");\n"

// echoArgsCap prints each element of its list argument.
const echoArgsCap = `#lang shill/cap

provide echo_args : {out : file(+write, +append), xs : listof is_string} -> void;

echo_args = fun(out, xs) {
  for x in xs {
    append(out, x + "\n");
  }
};
`

const echoArgsAmbient = `#lang shill/ambient
require "echo.cap";
echo_args(stdout, args);
`

// testConfig builds a small server whose tenant machines can resolve
// the test scripts.
func testConfig(mut func(*Config)) Config {
	cfg := Config{
		MachineOptions: func(string) []shill.Option {
			return []shill.Option{
				shill.WithWorkload(shill.WorkloadDemo),
				shill.WithScriptResolver(shill.MapResolver{
					"spin.cap":     spinCap,
					"spin.ambient": spinAmbient,
					"echo.cap":     echoArgsCap,
				}),
			}
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testConfig(mut))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, *RunResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var rr RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("bad run response %s: %v", data, err)
	}
	return resp, &rr
}

func TestRunInlineScript(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", Script: allowAmbient})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if rr.ExitStatus != 0 || rr.Console != "ok\n" || rr.Error != "" {
		t.Fatalf("run response = %+v", rr)
	}
}

func TestRunScriptNameWithArgs(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, rr := postRun(t, ts.URL, RunRequest{
		Tenant: "alice", Script: echoArgsAmbient, Args: []string{"one", `two "quoted"`, "tab\there"},
	})
	want := "one\ntwo \"quoted\"\ntab\there\n"
	if rr == nil || rr.Console != want {
		t.Fatalf("args did not round-trip through the splice: %+v", rr)
	}
}

func TestRunDeniedScriptCarriesProvenance(t *testing.T) {
	// The heart of the service: a denied run answers 200 with the full
	// structured provenance, explainable without server access.
	_, ts := newTestServer(t, nil)
	resp, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "why_denied.ambient"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if rr.Error == "" || rr.ExitStatus == 0 {
		t.Fatalf("denied run did not fail: %+v", rr)
	}
	if len(rr.Denials) == 0 {
		t.Fatal("denied run carries no denials")
	}
	d := rr.Denials[0]
	if d.Layer != audit.LayerCapability || !d.Missing.Has(priv.RWrite) || len(d.Blame) == 0 {
		t.Fatalf("denial lost provenance over the wire: %+v", d)
	}
}

func TestScriptErrorLeavesTenantServing(t *testing.T) {
	// A run that panics out of Session.Run leaves the client with EOF
	// and its cancel watcher armed, so the watcher later interrupts the
	// tenant's recycled session (the next request fails with EINTR). A
	// range count too large to allocate must answer as a script error,
	// and the tenant's next request must succeed.
	_, ts := newTestServer(t, nil)
	body, err := json.Marshal(RunRequest{Tenant: "alice",
		Script: "#lang shill/ambient\n\nxs = range(1000000000000000000);\n"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("oversized range: no response: %v", err)
	}
	var rr RunResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(rr.Error, "range") {
		t.Fatalf("oversized range: status %d, response %+v, decode error %v", resp.StatusCode, rr, err)
	}
	_, next := postRun(t, ts.URL, RunRequest{Tenant: "alice", Argv: []string{"cat", "/etc/passwd"}})
	if next == nil || next.Error != "" || next.ExitStatus != 0 || !strings.Contains(next.Console, "root") {
		t.Fatalf("next request after the script error failed: %+v", next)
	}
}

func TestRunUnknownScript404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "no_such.ambient"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, req := range []RunRequest{
		{Tenant: "", Script: allowAmbient},
		{Tenant: "no spaces", Script: allowAmbient},
		{Tenant: "alice"},
		{Tenant: "alice", Script: allowAmbient, ScriptName: "x"},
	} {
		resp, _ := postRun(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status = %d, want 400", req, resp.StatusCode)
		}
	}
}

func TestDeadlineCancelsRunAndKillsTree(t *testing.T) {
	// A request deadline is a real bound: the spinning script stops, the
	// response reports cancellation, and the tenant machine is left with
	// no extra processes.
	s, ts := newTestServer(t, nil)
	start := time.Now()
	resp, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "spin.ambient", DeadlineMs: 150})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to cancel", elapsed)
	}
	if !rr.Canceled || rr.Error == "" {
		t.Fatalf("cancelled run response = %+v", rr)
	}
	tn := s.lookupTenant("alice")
	if tn == nil {
		t.Fatal("tenant machine missing")
	}
	st := tn.m.Stats()
	if st.ActiveSessions != 0 {
		t.Fatalf("cancelled run left %d active sessions", st.ActiveSessions)
	}
	// The pooled session keeps its own process; nothing beyond that.
	if st.Procs > st.Sessions+baseProcs(t) {
		t.Fatalf("cancelled run leaked processes: %+v", st)
	}
}

// baseProcs measures how many processes a fresh demo machine holds.
func baseProcs(t *testing.T) int {
	t.Helper()
	m, err := shill.NewMachine(shill.WithWorkload(shill.WorkloadDemo))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	return m.Stats().Procs
}

func TestClientDisconnectKillsRun(t *testing.T) {
	// The cancelled HTTP request kills the sandboxed process tree: the
	// acceptance criterion's "cancelled requests leave zero leaks".
	s, ts := newTestServer(t, nil)

	// Warm the tenant machine so the baseline is comparable.
	if _, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", Script: allowAmbient}); rr == nil || rr.ExitStatus != 0 {
		t.Fatal("warmup failed")
	}
	tn := s.lookupTenant("alice")
	before := tn.m.Stats()
	goroutinesBefore := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(RunRequest{Tenant: "alice", ScriptName: "spin.ambient", DeadlineMs: 30_000})
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond) // let the run start spinning
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request was not cancelled")
	}

	// The server notices, kills the run, and returns the session.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := tn.m.Stats()
		if st.ActiveSessions == 0 && st.Procs <= before.Procs+(st.Sessions-before.Sessions) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnected run not torn down: before %+v, now %+v", before, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	settleGoroutines(t, goroutinesBefore)
}

func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	// One slot, no queue: a second concurrent run answers 429 with
	// Retry-After instead of waiting.
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 1
		c.TenantConcurrent = 16
	})

	release := make(chan struct{})
	var wg sync.WaitGroup
	// Fill the slot and the queue with spinning runs.
	got429 := make(chan *http.Response, 8)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, _ := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "spin.ambient", DeadlineMs: 1500})
			if resp.StatusCode == http.StatusTooManyRequests {
				got429 <- resp
			}
		}()
	}
	close(release)
	wg.Wait()
	close(got429)
	n := 0
	for resp := range got429 {
		n++
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	if n == 0 {
		t.Fatal("no request was rejected: queue is unbounded")
	}
}

func TestTenantQuota429(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.TenantConcurrent = 1
		c.MaxConcurrent = 8
		c.MaxQueue = 8
	})
	release := make(chan struct{})
	var wg sync.WaitGroup
	statuses := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, _ := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "spin.ambient", DeadlineMs: 1200})
			statuses <- resp.StatusCode
		}()
	}
	close(release)
	wg.Wait()
	close(statuses)
	var ok, rejected int
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		}
	}
	if ok != 1 || rejected != 1 {
		t.Fatalf("quota=1 with 2 concurrent runs: %d ok, %d rejected", ok, rejected)
	}
}

func TestLRUEvictionClosesIdleMachine(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxMachines = 2 })
	for _, tenant := range []string{"t1", "t2"} {
		if _, rr := postRun(t, ts.URL, RunRequest{Tenant: tenant, Script: allowAmbient}); rr == nil || rr.ExitStatus != 0 {
			t.Fatalf("tenant %s run failed", tenant)
		}
	}
	t1 := s.lookupTenant("t1")
	// Touch t1 so t2 becomes the LRU victim.
	if _, rr := postRun(t, ts.URL, RunRequest{Tenant: "t1", Script: allowAmbient}); rr == nil {
		t.Fatal("t1 touch failed")
	}
	t2 := s.lookupTenant("t2")
	if _, rr := postRun(t, ts.URL, RunRequest{Tenant: "t3", Script: allowAmbient}); rr == nil || rr.ExitStatus != 0 {
		t.Fatal("t3 run failed")
	}
	if s.lookupTenant("t2") != nil {
		t.Fatal("LRU tenant t2 not evicted")
	}
	if !t2.m.Closed() {
		t.Fatal("evicted machine was not closed")
	}
	if s.lookupTenant("t1") != t1 || t1.m.Closed() {
		t.Fatal("recently-used tenant t1 was evicted")
	}
	if got := s.Tenants(); got != 2 {
		t.Fatalf("registry holds %d tenants, want 2", got)
	}
}

func TestWhyDeniedOverTheWire(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if _, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "why_denied.ambient"}); rr == nil {
		t.Fatal("run failed")
	}
	resp, err := http.Get(ts.URL + "/v1/audit/why-denied?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var wd WhyDeniedResponse
	if err := json.NewDecoder(resp.Body).Decode(&wd); err != nil {
		t.Fatal(err)
	}
	if len(wd.Denials) == 0 {
		t.Fatal("no denials explained")
	}
	var found bool
	for _, d := range wd.Denials {
		if d.Layer == audit.LayerCapability && d.Missing.Has(priv.RWrite) && d.Lineage != "" && d.Detail != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fully-explained capability denial in %+v", wd.Denials)
	}

	// since=now windows future queries to nothing.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/audit/why-denied?tenant=alice&since=%d", ts.URL, wd.AuditSeq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var wd2 WhyDeniedResponse
	if err := json.NewDecoder(resp2.Body).Decode(&wd2); err != nil {
		t.Fatal(err)
	}
	if len(wd2.Denials) != 0 {
		t.Fatalf("since-window leaked %d old denials", len(wd2.Denials))
	}

	// Unknown tenants are 404, not new machines.
	resp3, err := http.Get(ts.URL + "/v1/audit/why-denied?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", resp3.StatusCode)
	}
}

func TestStreamingConsoleArrivesBeforeCompletion(t *testing.T) {
	// A streamed run delivers console output while the script is still
	// running: the early chunk must arrive well before the deadline ends
	// the blocked script.
	_, ts := newTestServer(t, func(c *Config) {
		c.MachineOptions = func(string) []shill.Option {
			return []shill.Option{shill.WithWorkload(shill.WorkloadDemo)}
		}
	})
	const early = `#lang shill/ambient
require shill/sockets;

append(stdout, "early\n");
f = socket_factory("ip");
l = socket_listen(f, "9996");
c = socket_accept(l);
`
	body, _ := json.Marshal(RunRequest{Tenant: "alice", Script: early, DeadlineMs: 3000, Stream: true})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var first StreamEvent
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	firstAt := time.Since(start)
	if first.Console != "early\n" {
		t.Fatalf("first stream event = %+v, want the early console chunk", first)
	}
	if firstAt > 1500*time.Millisecond {
		t.Fatalf("first chunk arrived after %v — not streamed before completion", firstAt)
	}
	var last StreamEvent
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended without a result event: %v", err)
		}
		if ev.Result != nil {
			last = ev
			break
		}
	}
	if !last.Result.Canceled {
		t.Fatalf("blocked script's result not canceled: %+v", last.Result)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if _, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "why_denied.ambient"}); rr == nil {
		t.Fatal("run failed")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"shilld_requests_total 1",
		"shilld_runs_denied_total 1",
		"shilld_active_runs 0",
		"shilld_queue_depth 0",
		`shilld_machine_sessions{tenant="alice"}`,
		`shilld_machine_live_sockets{tenant="alice"}`,
		`shilld_machine_audit_seq{tenant="alice"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	s.StartDrain()
	dresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", dresp.StatusCode)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// An in-flight run that takes a moment: spin with a 600ms deadline.
	started := make(chan struct{})
	result := make(chan *RunResponse, 1)
	go func() {
		close(started)
		_, rr := postRun(t, ts.URL, RunRequest{Tenant: "alice", ScriptName: "spin.ambient", DeadlineMs: 600})
		result <- rr
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let it reach the interpreter

	s.StartDrain()
	// New work is refused while the old run finishes.
	resp, _ := postRun(t, ts.URL, RunRequest{Tenant: "bob", Script: allowAmbient})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain = %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not finish in-flight runs: %v", err)
	}
	rr := <-result
	if rr == nil || !rr.Canceled {
		t.Fatalf("in-flight run's response lost by drain: %+v", rr)
	}
	if !s.MachinesClosed() {
		t.Fatal("drain left machines open")
	}
}

func TestDrainUnderRequestStorm(t *testing.T) {
	// Draining while requests keep arriving: admission and the drain
	// flip are serialized (gateMu), so the in-flight group can never
	// see an Add racing its Wait, every late request gets a clean 503,
	// and the drain still terminates.
	s, ts := newTestServer(t, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postRun(t, ts.URL, RunRequest{Tenant: "storm", Script: allowAmbient})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable &&
					resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("storm request status = %d", resp.StatusCode)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	close(stop)
	wg.Wait()
	if !s.MachinesClosed() {
		t.Fatal("drain left machines open")
	}
}
