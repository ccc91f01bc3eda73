// Package loadgen is the closed-loop load generator behind
// cmd/shill-load, which the shilld and router smoke scripts run with
// -check: N concurrent clients drive a shilld endpoint with a mix of
// allowed, denied, and cancelled runs sampled from the scenario
// registry, verify each response's shape (a deny response must carry
// structured provenance; a cancel response must report cancellation),
// and report throughput plus a latency histogram.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/scenario"
	"repro/internal/server"
)

// Ratio is the request blend in percent; the three fields must sum to
// 100. Kinds are interleaved deterministically, so e.g. 60/30/10 sends
// exactly that blend regardless of scheduling.
type Ratio struct {
	AllowPct  int `json:"allowPct"`
	DenyPct   int `json:"denyPct"`
	CancelPct int `json:"cancelPct"`
}

// DefaultRatio is 60% allowed, 30% denied, 10% cancelled.
var DefaultRatio = Ratio{AllowPct: 60, DenyPct: 30, CancelPct: 10}

// kindOf deals kinds deterministically in proportion to the ratio.
func (r Ratio) kindOf(i int64) scenario.ProbeKind {
	slot := int(i % 100)
	switch {
	case slot < r.AllowPct:
		return scenario.KindAllow
	case slot < r.AllowPct+r.DenyPct:
		return scenario.KindDeny
	default:
		return scenario.KindCancel
	}
}

// Request is one rendered load request: what to run and the shape of a
// correct answer.
type Request struct {
	Kind        scenario.ProbeKind
	Script      string
	ScriptName  string
	Argv        []string
	DeadlineMs  int    // probe-level hint; 0 defers to the Config
	WantConsole string // exact console of a correct allowed run ("" = don't check)
}

// Mix renders the i-th request of a run. Implementations must be
// deterministic in i so runs are reproducible and blends exact.
type Mix interface {
	Name() string
	Request(i int64) Request
}

// RegistryMix samples load probes from the scenario registry: every
// scenario matching the attr expression contributes its Probes, and
// the ratio deals allow/deny/cancel kinds deterministically. The
// pre-registry hardcoded bodies live on as the "legacy" scenario set,
// and MustMix("legacy", DefaultRatio) is the default mix.
type RegistryMix struct {
	name   string
	ratio  Ratio
	byKind map[scenario.ProbeKind][]scenario.Probe
}

// NewRegistryMix builds a mix from the probes of the scenarios matching
// attr. It errors on a bad expression, a ratio not summing to 100, or a
// nonzero ratio component with no probes to serve it.
func NewRegistryMix(attr string, ratio Ratio) (*RegistryMix, error) {
	if ratio.AllowPct+ratio.DenyPct+ratio.CancelPct != 100 {
		return nil, fmt.Errorf("loadgen: ratio %d/%d/%d does not sum to 100",
			ratio.AllowPct, ratio.DenyPct, ratio.CancelPct)
	}
	scs, err := scenario.Select(attr)
	if err != nil {
		return nil, err
	}
	m := &RegistryMix{name: attr, ratio: ratio, byKind: make(map[scenario.ProbeKind][]scenario.Probe)}
	for _, sc := range scs {
		for _, p := range sc.Probes {
			m.byKind[p.Kind] = append(m.byKind[p.Kind], p)
		}
	}
	for kind, pct := range map[scenario.ProbeKind]int{
		scenario.KindAllow:  ratio.AllowPct,
		scenario.KindDeny:   ratio.DenyPct,
		scenario.KindCancel: ratio.CancelPct,
	} {
		if pct > 0 && len(m.byKind[kind]) == 0 {
			return nil, fmt.Errorf("loadgen: mix %q has no %s probes for a %d%% share", attr, kind, pct)
		}
	}
	return m, nil
}

// MustMix is NewRegistryMix for literal arguments; it panics on error.
func MustMix(attr string, ratio Ratio) *RegistryMix {
	m, err := NewRegistryMix(attr, ratio)
	if err != nil {
		panic(err)
	}
	return m
}

// Name identifies the mix in reports.
func (m *RegistryMix) Name() string {
	return fmt.Sprintf("%s %d/%d/%d", m.name, m.ratio.AllowPct, m.ratio.DenyPct, m.ratio.CancelPct)
}

// Request renders the i-th request, rotating deterministically through
// the kind's probes.
func (m *RegistryMix) Request(i int64) Request {
	kind := m.ratio.kindOf(i)
	ps := m.byKind[kind]
	p := ps[int(i)%len(ps)]
	pr := p.Request(i)
	return Request{
		Kind:        kind,
		Script:      pr.Script,
		ScriptName:  pr.ScriptName,
		Argv:        pr.Argv,
		DeadlineMs:  p.DeadlineMs,
		WantConsole: pr.WantConsole,
	}
}

// Config tunes a load run.
type Config struct {
	// URL is the shilld base URL (e.g. http://127.0.0.1:8377).
	URL string
	// Clients is the closed-loop concurrency. Default 16.
	Clients int
	// Requests is the total request budget across all clients; 0 means
	// run until Duration elapses.
	Requests int
	// Duration bounds the run in time; 0 means run until Requests.
	Duration time.Duration
	// Mix renders the request stream; nil means the legacy scenario set
	// at DefaultRatio — MustMix("legacy", DefaultRatio) — the
	// pre-registry hardcoded blend.
	Mix Mix
	// Tenants spreads requests round-robin over this many tenants
	// (t0, t1, …). Default 4.
	Tenants int
	// DeadlineMs is the allow/deny request deadline. Default 10000.
	DeadlineMs int
	// CancelDeadlineMs is the short deadline that forces the cancel
	// kind's blocking script to be killed server-side. Default 80.
	CancelDeadlineMs int
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Requests <= 0 && c.Duration <= 0 {
		c.Requests = 256
	}
	if c.Mix == nil {
		c.Mix = MustMix("legacy", DefaultRatio)
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 10_000
	}
	if c.CancelDeadlineMs <= 0 {
		c.CancelDeadlineMs = 80
	}
	return c
}

// LatencySummary condenses a latency sample set.
type LatencySummary struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

// Report is the outcome of one load run; it doubles as the
// `shill-load -json` document.
type Report struct {
	// Mix names the request stream the run sampled (mix name plus
	// ratio), so two reports are only compared when their workloads
	// match.
	Mix        string  `json:"mix"`
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"`
	ElapsedSec float64 `json:"elapsedSec"`
	ReqPerSec  float64 `json:"reqPerSec"`

	Allowed  int `json:"allowed"`
	Denied   int `json:"denied"`
	Canceled int `json:"canceled"`
	// Rejected counts 429 backpressure answers (they are the admission
	// control working, not failures).
	Rejected int `json:"rejected"`
	// HTTPErrors counts transport failures and unexpected statuses.
	HTTPErrors int `json:"httpErrors"`
	// BadAllow / BadDeny / BadCancel count responses whose shape was
	// wrong: an allowed run that failed, a denied run without
	// structured provenance, a cancel run that was not cancelled. A
	// healthy server reports zero for all three.
	BadAllow  int `json:"badAllow"`
	BadDeny   int `json:"badDeny"`
	BadCancel int `json:"badCancel"`

	Latency       LatencySummary `json:"latency"`
	AllowLatency  LatencySummary `json:"allowLatency"`
	DenyLatency   LatencySummary `json:"denyLatency"`
	CancelLatency LatencySummary `json:"cancelLatency"`
	// DenyOverheadPct is the deny-path p50 relative to the allow-path
	// p50, in percent — the cost of producing a denial with provenance.
	DenyOverheadPct float64 `json:"denyOverheadPct"`

	// Server holds the client-vs-server percentile comparison when the
	// caller scraped the daemon's /metrics histograms around the run
	// (CompareServer); empty when it didn't.
	Server []ServerComparison `json:"server,omitempty"`
}

// Bad reports whether any response had the wrong shape.
func (r *Report) Bad() int { return r.BadAllow + r.BadDeny + r.BadCancel }

// Run drives the configured load and returns the report. ctx aborts
// the run early (the report covers what was sent).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	var (
		issued   atomic.Int64
		deadline time.Time
	)
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	// A private transport, closed on return, so a caller checking for
	// goroutine leaks after a run doesn't see lingering keep-alives.
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.Clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	type obs struct {
		req     Request
		status  int
		latency time.Duration
		resp    *server.RunResponse
		err     error
	}
	var mu sync.Mutex
	var all []obs

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := issued.Add(1) - 1
				if cfg.Requests > 0 && i >= int64(cfg.Requests) {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				o := obs{req: cfg.Mix.Request(i)}
				reqStart := time.Now()
				o.status, o.resp, o.err = one(ctx, client, cfg, o.req, i)
				o.latency = time.Since(reqStart)
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Mix: cfg.Mix.Name(), Clients: cfg.Clients}
	var lat, latAllow, latDeny, latCancel []time.Duration
	for _, o := range all {
		rep.Requests++
		if o.err != nil {
			rep.HTTPErrors++
			continue
		}
		switch o.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rep.Rejected++
			continue
		default:
			rep.HTTPErrors++
			continue
		}
		lat = append(lat, o.latency)
		switch o.req.Kind {
		case scenario.KindAllow:
			latAllow = append(latAllow, o.latency)
			// No assertion on Denials: the per-run window on a shared
			// tenant machine can legitimately include a concurrent
			// neighbour's denials.
			want := o.req.WantConsole
			if o.resp.ExitStatus == 0 && o.resp.Error == "" && (want == "" || o.resp.Console == want) {
				rep.Allowed++
			} else {
				rep.BadAllow++
			}
		case scenario.KindDeny:
			latDeny = append(latDeny, o.latency)
			if o.resp.ExitStatus != 0 && deniedWithProvenance(o.resp) {
				rep.Denied++
			} else {
				rep.BadDeny++
			}
		case scenario.KindCancel:
			latCancel = append(latCancel, o.latency)
			if o.resp.Canceled {
				rep.Canceled++
			} else {
				rep.BadCancel++
			}
		}
	}
	rep.ElapsedSec = elapsed.Seconds()
	if rep.ElapsedSec > 0 {
		rep.ReqPerSec = float64(rep.Requests) / rep.ElapsedSec
	}
	rep.Latency = summarize(lat)
	rep.AllowLatency = summarize(latAllow)
	rep.DenyLatency = summarize(latDeny)
	rep.CancelLatency = summarize(latCancel)
	if rep.AllowLatency.P50Ms > 0 {
		rep.DenyOverheadPct = (rep.DenyLatency.P50Ms - rep.AllowLatency.P50Ms) / rep.AllowLatency.P50Ms * 100
	}
	return rep, nil
}

// deniedWithProvenance checks the property the service exists for: a
// denial on the wire names its layer and what was missing.
func deniedWithProvenance(r *server.RunResponse) bool {
	for _, d := range r.Denials {
		if d.Layer == audit.LayerCapability && !d.Missing.Empty() && len(d.Blame) > 0 {
			return true
		}
	}
	return false
}

// one sends a single request and decodes its response.
func one(ctx context.Context, client *http.Client, cfg Config, r Request, i int64) (int, *server.RunResponse, error) {
	req := server.RunRequest{
		Tenant:     fmt.Sprintf("t%d", i%int64(cfg.Tenants)),
		DeadlineMs: cfg.DeadlineMs,
		Script:     r.Script,
		ScriptName: r.ScriptName,
		Argv:       r.Argv,
	}
	switch {
	case r.Kind == scenario.KindCancel:
		// The short deadline is the point: it forces the probe's
		// blocking script to be killed server-side.
		req.DeadlineMs = cfg.CancelDeadlineMs
	case r.DeadlineMs > 0:
		req.DeadlineMs = r.DeadlineMs
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, "POST", cfg.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var rr server.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("bad response body: %w", err)
	}
	return resp.StatusCode, &rr, nil
}

func summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return LatencySummary{
		Count: len(lat),
		P50Ms: ms(pct(0.50)),
		P90Ms: ms(pct(0.90)),
		P99Ms: ms(pct(0.99)),
		MaxMs: ms(lat[len(lat)-1]),
	}
}
