package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer, or imported from the span tree shilld returns in a response.
// Spans of one request share req; parent names the enclosing span.
type span struct {
	Req    int64     `json:"req"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Count is nonzero for an aggregated span (shilld folds many kernel
	// ops or sandboxes into one span whose interval is not real).
	Count  int64  `json:"count,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder holds spans in memory until the run ends. Recording is off
// unless the run is traced; every method is cheap when off.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// add records a finished span under a fresh ID.
func (r *recorder) add(s span) {
	s.ID = r.ids.Add(1)
	r.addWithID(s)
}

// addWithID records a finished span whose ID the caller allocated.
func (r *recorder) addWithID(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// linkParents fills in the parents the recording sites could not know:
// each request's spans nest client > router > forward > replica > the
// roots of the imported shill tree, skipping the layers a workload does
// not have.
func linkParents(spans []span) {
	byReq := map[int64][]*span{}
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], &spans[i])
	}
	for _, ss := range byReq {
		var parent int64
		for _, layer := range []string{"client", "router", "forward", "replica"} {
			var id int64
			for _, s := range ss {
				if s.Name == layer {
					s.Parent, id = parent, s.ID
				}
			}
			if id != 0 {
				parent = id
			}
		}
		for _, s := range ss {
			if strings.HasPrefix(s.Name, "shill.") && s.Parent == 0 {
				s.Parent = parent
			}
		}
	}
}

// take returns and clears the recorded spans.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// reqHeader carries the benchmark's request ID from the client, and from
// the router's replica transport, to the replica handler wrapper.
const reqHeader = "X-Perfbench-Req"

type reqKey struct{}

func reqIDOf(r *http.Request) int64 {
	if v, ok := r.Context().Value(reqKey{}).(int64); ok {
		return v
	}
	id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	return id
}

// wrapHandler records a span named name around every request h serves
// while the recorder is on, and threads the request ID into the
// request's context so an outbound transport can forward it.
func wrapHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		id := reqIDOf(r)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		rec.add(span{Req: id, Name: name, Start: start, End: time.Now()})
	})
}

// tracingTransport records a span named name from the start of each
// round trip to the close of its response body, and sets the request ID
// header from the outbound request's context.
type tracingTransport struct {
	rec  *recorder
	name string
	next http.RoundTripper
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.rec.enabled() {
		return t.next.RoundTrip(r)
	}
	id, _ := r.Context().Value(reqKey{}).(int64)
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		t.rec.add(span{Req: id, Name: t.name, Start: start, End: time.Now(), Detail: "error"})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.rec.add(span{Req: id, Name: t.name, Start: start, End: time.Now()})
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// covered is the length of [from, to) covered by the union of the spans'
// intervals.
func covered(from, to time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
