package main

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	schedule := func(seed uint64) ([]request, []time.Duration, []string) {
		rng := rand.New(rand.NewPCG(seed, 1))
		reqs := planMix(rng, genTree(seed), 500)
		due := arrivals(rng, 500, 300)
		return reqs, due, churnOrder(rng)
	}
	r1, d1, o1 := schedule(7)
	r2, d2, o2 := schedule(7)
	if !reflect.DeepEqual(genTree(7), genTree(7)) {
		t.Error("same seed staged different trees")
	}
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(o1, o2) {
		t.Error("same seed gave a different schedule or tenant order")
	}
	r3, d3, o3 := schedule(8)
	if reflect.DeepEqual(genTree(7), genTree(8)) {
		t.Error("different seeds staged the same tree")
	}
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(d1, d3) || reflect.DeepEqual(o1, o3) {
		t.Error("different seeds gave the same schedule or tenant order")
	}
}

func TestEverySeedOffersTheSameWork(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tr := genTree(seed)
		var c int
		for _, f := range tr.files {
			if strings.HasSuffix(f.path, ".c") {
				c++
			}
		}
		if c != 40 || len(tr.files) != 48 {
			t.Errorf("seed %d: %d files, %d .c", seed, len(tr.files), c)
		}
		for _, pat := range scanPatterns {
			if n := strings.Count(tr.scanOutput(pat), "\n"); n != 20 {
				t.Errorf("seed %d: pattern %s matches %d lines, want 20", seed, pat, n)
			}
		}
		counts := map[kind]int{}
		for _, r := range planMix(rand.New(rand.NewPCG(seed, 2)), tr, 1000) {
			counts[r.kind]++
		}
		want := map[kind]int{kindLight: 500, kindHeavy: 100, kindHeavyP: 100, kindDeny: 200, kindArgv: 100}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("seed %d: mix %v, want %v", seed, counts, want)
		}
		due := arrivals(rand.New(rand.NewPCG(seed, 3)), 300, 300)
		if len(due) != 300 || due[len(due)-1] > time.Second {
			t.Errorf("seed %d: 300 arrivals at 300/s end at %v", seed, due[len(due)-1])
		}
	}
}

func TestChurnRotation(t *testing.T) {
	order := churnOrder(rand.New(rand.NewPCG(1, 1)))
	reqs := planChurn(rand.New(rand.NewPCG(1, 2)), order, 10, 2*churnTenants)
	deny, scan := 0, 0
	for i, r := range reqs {
		if r.tenant != order[(10+i)%churnTenants] {
			t.Fatalf("request %d went to %s, want %s", i, r.tenant, order[(10+i)%churnTenants])
		}
		switch r.kind {
		case kindDeny:
			deny++
		case kindChurnScan:
			scan++
		}
	}
	if deny != 2*churnTenants/churnDenyEvery || scan != 2*churnTenants/churnScanEvery {
		t.Errorf("%d denials and %d scans in %d requests", deny, scan, len(reqs))
	}
}

func TestAppendChain(t *testing.T) {
	reqs := []rendered{
		{request: request{kind: kindAppend, tenant: "a"}},
		{request: request{kind: kindAppend, tenant: "b"}},
		{request: request{kind: kindDeny, tenant: "a"}},
		{request: request{kind: kindAppend, tenant: "a"}},
		{request: request{kind: kindLight, tenant: "b"}},
		{request: request{kind: kindAppend, tenant: "a"}},
	}
	if got, want := appendChain(reqs), []int{-1, -1, -1, 0, -1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("append chain %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	p99 := percentile(xs, tailPercentile(len(xs)))
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if p99 != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", p99, beyond)
	}
}

func TestCleanest(t *testing.T) {
	steals := []float64{0.3, 0.01, 0.4, 0.02, 0.05, 0.5}
	ran := 0
	got, err := cleanest(2, func(i int) (segment, error) {
		ran++
		return segment{steal: steals[i], jobs: i}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 || len(got) != 2 || got[0].jobs != 1 || got[1].jobs != 3 {
		t.Errorf("ran %d, kept %+v; want 4 runs keeping segments 1 and 3", ran, got)
	}
	// A host disturbed throughout: the rerun allowance ends the phase,
	// which keeps the least disturbed segments.
	ran = 0
	got, _ = cleanest(2, func(i int) (segment, error) {
		ran++
		return segment{steal: 0.5 - float64(i)/100, jobs: i}, nil
	})
	if ran != 2+maxRerun || got[0].jobs != ran-1 || got[1].jobs != ran-2 {
		t.Errorf("ran %d, kept %+v", ran, got)
	}
}

func TestPool(t *testing.T) {
	all := pool([]segment{
		{lat: []float64{1, 2}, deny: []float64{2}, jobs: 2, elapsed: time.Second, steal: 0.01},
		{lat: []float64{3}, jobs: 1, elapsed: time.Second, steal: 0.03},
	})
	if len(all.lat) != 3 || len(all.deny) != 1 || all.jobs != 3 || all.elapsed != 2*time.Second || all.steal != 0.03 {
		t.Errorf("pooled %+v", all)
	}
}

func TestPeakBacklog(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms}
	sent := []time.Duration{0, 5 * ms, 6 * ms, 7 * ms, 10 * ms}
	if got := peakBacklog(due, sent); got != 3 {
		t.Errorf("peak backlog %d, want 3", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(req int64, name string, from, to int) span {
	return span{Req: req, Name: name, Start: at(from), End: at(to)}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, "p", 0, 10)
	children := []span{sp(1, "a", 1, 3), sp(1, "b", 2, 5), sp(1, "c", 7, 8), sp(1, "d", 9, 14), sp(1, "e", -5, -1)}
	// Covered: [1,5) + [7,8) + [9,10) = 6.
	if got := selfTime(parent, children); got != 4*time.Millisecond {
		t.Errorf("self time %v, want 4ms", got)
	}
	if got := selfTime(parent, nil); got != 10*time.Millisecond {
		t.Errorf("self time without children %v, want 10ms", got)
	}
}

func TestSpanLayers(t *testing.T) {
	spans := []span{
		sp(1, "client", 0, 10),
		sp(1, "router", 1, 9),
		sp(1, "forward", 2, 8),
		sp(1, "replica", 3, 7),
		sp(1, "shill.acquire", 3, 4),
		sp(1, "shill.run", 4, 6),
		sp(1, "shill.eval", 4, 6),
		sp(1, "shill.sandbox-exec", 5, 6),
		{Req: 1, Name: "shill.op-vfs", Start: at(4), End: at(5), Count: 40},
	}
	got := spanLayers(spans, "router")
	want := map[string]float64{
		"router.self_ms_p50":        2, // 8 minus the 6 of its forward
		"router.hop_ms_p50":         2, // 6 minus the 4 of the replica
		"router.attempts_per_req":   1,
		"server.handler_ms_p50":     4,
		"server.wire_ms_p50":        1, // 4 minus acquire 1 and run 2
		"shill.run_ms_p50":          2,
		"lang.eval_self_ms_per_job": 1,
		"vfs.ops_per_job":           40,
		"vfs.ms_per_job":            1,
		"trace.unattributed_frac":   0.2,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestLinkParents(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Name: "client"}, {Req: 1, ID: 2, Name: "router"}, {Req: 1, ID: 3, Name: "forward"},
		{Req: 1, ID: 4, Name: "replica"}, {Req: 1, ID: 5, Name: "shill.request"}, {Req: 1, ID: 6, Parent: 5, Name: "shill.run"},
		{Req: 2, ID: 7, Name: "client"}, {Req: 2, ID: 8, Name: "replica"}, {Req: 2, ID: 9, Name: "shill.request"},
	}
	linkParents(spans)
	want := []int64{0, 1, 2, 3, 4, 5, 0, 7, 8}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("%s of request %d: parent %d, want %d", s.Name, s.Req, s.Parent, want[i])
		}
	}
}

func TestWantGrade(t *testing.T) {
	for _, c := range []struct {
		student string
		idx     int
		want    string
	}{
		{"student000", 0, "compiled\npass t000\npass t001\n"},
		{"student003", 3, "compiled\nfail t000\nfail t001\n"},
		{"student005", 5, "compile-failed\n"},
		{"zz_cheater", -2, "compiled\nfail t000\nfail t001\n"},
	} {
		if got := wantGrade(c.student, c.idx, 2); got != c.want {
			t.Errorf("%s: %q, want %q", c.student, got, c.want)
		}
	}
}

// layers.json says, for every per-layer metric BENCHMARK.json declares
// and for no other, where it comes from and what it should move.
func TestLayersDocumentEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]struct{ Source, Moves string } `json:"metrics"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.PerLayer {
		if d, ok := doc.Metrics[m.Name]; !ok || d.Source == "" || d.Moves == "" {
			t.Errorf("%s: no source and moves in layers.json", m.Name)
		}
		delete(doc.Metrics, m.Name)
	}
	for name := range doc.Metrics {
		t.Errorf("layers.json documents %s, which BENCHMARK.json does not declare", name)
	}
	for name := range sp.Tolerances {
		if _, ok := sp.zeroLayers()[name]; !ok {
			t.Errorf("tolerance for undeclared metric %s", name)
		}
	}
}
