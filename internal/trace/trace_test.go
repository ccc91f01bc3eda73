package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/prof"
)

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	if tr == nil {
		t.Fatal("NewTrace returned nil on an enabled recorder")
	}
	root := tr.Start(0, KindRequest, "run")
	child := tr.Start(root.ID(), KindCompile, "compile")
	child.SetDetail("cache=miss")
	if d := child.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: the child ends first.
	if spans[0].Kind != KindCompile || spans[1].Kind != KindRequest {
		t.Fatalf("unexpected span order: %v, %v", spans[0].Kind, spans[1].Kind)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d != root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Trace != tr.TraceID() || spans[1].Trace != tr.TraceID() {
		t.Fatal("spans missing trace ID")
	}
	if spans[0].Detail != "cache=miss" {
		t.Fatalf("detail = %q", spans[0].Detail)
	}

	got := r.TraceSpans(tr.TraceID())
	if len(got) != 2 {
		t.Fatalf("ring holds %d spans for the trace, want 2", len(got))
	}
}

func TestRingWraparound(t *testing.T) {
	const size = 16
	r := NewRecorder(size)
	tr := r.NewTrace()
	for i := 0; i < size*3; i++ {
		tr.Add(Span{Kind: KindEval, Start: time.Now(), Dur: time.Microsecond})
	}
	spans := r.Since(0)
	if len(spans) != size {
		t.Fatalf("ring holds %d spans, want %d", len(spans), size)
	}
	// Only the newest survive, in order.
	want := r.Seq() - size + 1
	for _, s := range spans {
		if s.Seq != want {
			t.Fatalf("seq %d, want %d", s.Seq, want)
		}
		want++
	}
}

func TestSinceIncremental(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	tr.Add(Span{Kind: KindQueue})
	mark := r.Seq()
	tr.Add(Span{Kind: KindEval})
	got := r.Since(mark)
	if len(got) != 1 || got[0].Kind != KindEval {
		t.Fatalf("Since(%d) = %+v, want the one eval span", mark, got)
	}
}

func TestPerTraceBufferBounded(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	for i := 0; i < maxTraceSpans+10; i++ {
		tr.Add(Span{Kind: KindEval})
	}
	if n := len(tr.Spans()); n != maxTraceSpans {
		t.Fatalf("per-trace buffer grew to %d, want cap %d", n, maxTraceSpans)
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRecorder(128)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.NewTrace()
			for i := 0; i < per; i++ {
				a := tr.Start(0, KindEval, "eval")
				a.End()
			}
			if len(tr.Spans()) != maxTraceSpans {
				t.Errorf("per-trace spans = %d, want %d", len(tr.Spans()), maxTraceSpans)
			}
		}()
	}
	wg.Wait()
	if r.Seq() != workers*per {
		t.Fatalf("seq = %d, want %d", r.Seq(), workers*per)
	}
	if got := len(r.Since(0)); got != 128 {
		t.Fatalf("ring holds %d spans, want full 128", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	r.SetEnabled(true)
	if r.Seq() != 0 || r.Since(0) != nil || r.TraceSpans(1) != nil {
		t.Fatal("nil recorder queries not empty")
	}
	tr := r.NewTrace()
	if tr != nil {
		t.Fatal("nil recorder minted a trace")
	}
	// The whole emission surface must no-op on nils.
	a := tr.Start(0, KindRun, "run")
	a.SetDetail("x")
	a.End()
	tr.Add(Span{})
	tr.AddProfSamples(0, time.Now(), []prof.Sample{{Category: prof.Startup, Total: 1, Count: 1}})
	tr.AddOps(0, time.Now(), OpSnapshot{})
	if tr.Spans() != nil || tr.TraceID() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil ref state not empty")
	}

	var o *OpStats
	o.End(OpVFS, o.Begin(OpVFS))
	if o.Snapshot() != (OpSnapshot{}) {
		t.Fatal("nil OpStats snapshot not zero")
	}

	disabled := NewRecorder(8)
	disabled.SetEnabled(false)
	if disabled.NewTrace() != nil {
		t.Fatal("disabled recorder minted a trace")
	}
}

func TestOpStats(t *testing.T) {
	o := NewOpStats()
	before := o.Snapshot()
	for i := 0; i < 2*opTimingSample; i++ {
		ts := o.Begin(OpVFS)
		o.End(OpVFS, ts)
	}
	o.End(OpNet, o.Begin(OpNet))
	delta := o.Snapshot().Delta(before)
	if delta[OpVFS].Count != 2*opTimingSample {
		t.Fatalf("vfs count = %d, want %d", delta[OpVFS].Count, 2*opTimingSample)
	}
	if delta[OpNet].Count != 1 || delta[OpPolicy].Count != 0 {
		t.Fatalf("net/policy counts = %d/%d", delta[OpNet].Count, delta[OpPolicy].Count)
	}

	tr := NewRecorder(16).NewTrace()
	tr.AddOps(7, time.Now(), delta)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("AddOps emitted %d spans, want 2 (vfs, net)", len(spans))
	}
	if spans[0].Kind != KindOpVFS || spans[0].Count != 2*opTimingSample || spans[0].Parent != 7 {
		t.Fatalf("vfs span = %+v", spans[0])
	}
}

func TestProfRoundTrip(t *testing.T) {
	samples := []prof.Sample{
		{Category: prof.Startup, Total: 3 * time.Millisecond, Count: 1},
		{Category: prof.SandboxExec, Total: 9 * time.Millisecond, Count: 4},
		{Category: prof.AuditEmit, Total: 0, Count: 0}, // empty: elided
	}
	tr := NewRecorder(16).NewTrace()
	tr.AddProfSamples(3, time.Now(), samples)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("emitted %d prof spans, want 2", len(spans))
	}
	view := ProfView(spans)
	if len(view) != 2 {
		t.Fatalf("ProfView returned %d samples, want 2", len(view))
	}
	if view[0].Category != prof.Startup || view[0].Total != 3*time.Millisecond || view[0].Count != 1 {
		t.Fatalf("startup sample = %+v", view[0])
	}
	if view[1].Category != prof.SandboxExec || view[1].Total != 9*time.Millisecond || view[1].Count != 4 {
		t.Fatalf("sandbox-exec sample = %+v", view[1])
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Span{Kind: KindCompile})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"compile"`; !jsonContains(string(b), want) {
		t.Fatalf("span JSON %s missing %s", b, want)
	}
	var s Span
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindCompile {
		t.Fatalf("round-trip kind = %v", s.Kind)
	}
}

func jsonContains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
