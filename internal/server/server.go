// Package server is shilld's engine: a multi-tenant script-execution
// service over the repro/shill embedding API. Clients POST scripts (or
// native argv) with a tenant name and a deadline; the server runs them
// in pooled sandbox sessions on per-tenant machines and returns the
// exit status, console output, and the full structured denial
// provenance — a rejected request is explainable over the wire exactly
// the way `shill-audit why-denied` explains it locally.
//
// Isolation is kernel-level, not just session-level: every tenant owns
// a whole shill.Machine (own simulated kernel, filesystem image,
// network stack, audit log), held in an LRU registry bounded by
// MaxMachines. An evicted tenant's machine is snapshotted before it is
// closed, so the tenant's state (files, installed scripts, audit
// sequence) survives eviction and its next request boots from a warm
// restore; with a golden image configured, even brand-new tenants boot
// by restoring shared copy-on-write base layers instead of building a
// machine from scratch. Admission control is a bounded queue with per-tenant
// concurrency quotas; overload answers 429 with Retry-After instead of
// queueing without bound. Request deadlines and client disconnects are
// wired straight into Session.Run's context cancellation, so an
// abandoned request kills the sandboxed process tree it was running.
package server

import (
	"container/list"
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/shill"
)

// Config tunes the server; the zero value serves with the defaults
// noted on each field.
type Config struct {
	// MaxMachines caps how many tenant machines exist at once; the
	// least-recently-used idle machine is evicted (and closed) to make
	// room. Default 8.
	MaxMachines int
	// MaxConcurrent caps globally concurrent runs. Default 16.
	MaxConcurrent int
	// TenantConcurrent caps one tenant's concurrent admitted runs
	// (running or queued for a global slot). Default 4.
	TenantConcurrent int
	// MaxQueue caps how many admitted runs may wait for a global slot;
	// beyond it the server answers 429 + Retry-After. Default 64.
	MaxQueue int
	// DefaultDeadline bounds runs that specify no deadline. Default 10s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines. Default 60s.
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// MachineOptions builds the shill.NewMachine options for a tenant's
	// machine. Default: the demo workload (so the shipped why_denied
	// demo finds the file it opens).
	MachineOptions func(tenant string) []shill.Option
	// GoldenImage, when set, boots brand-new tenants by restoring this
	// prebuilt snapshot instead of building a machine from scratch —
	// every tenant then shares the image's flattened base layers
	// copy-on-write. MachineOptions still apply on top.
	GoldenImage *shill.Image
	// MaxImages caps how many evicted tenants' snapshots are retained
	// for warm readmission; the oldest snapshot is forgotten beyond it.
	// Snapshots share their base layers with the live machines, so a
	// retained image costs only the tenant's divergence. Default 32.
	MaxImages int
}

func (c Config) withDefaults() Config {
	if c.MaxMachines <= 0 {
		c.MaxMachines = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.TenantConcurrent <= 0 {
		c.TenantConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MachineOptions == nil {
		c.MachineOptions = func(string) []shill.Option {
			return []shill.Option{shill.WithWorkload(shill.WorkloadDemo)}
		}
	}
	if c.MaxImages <= 0 {
		c.MaxImages = 32
	}
	return c
}

// Server executes tenant-submitted scripts. Create with New, serve its
// Handler, stop with Drain (or Close).
type Server struct {
	cfg   Config
	start time.Time

	slots    chan struct{} // global concurrency semaphore
	queued   atomic.Int64  // runs waiting for a slot
	draining atomic.Bool
	inflight sync.WaitGroup
	// gateMu serializes the draining flip against run admission so
	// inflight.Add can never race inflight.Wait from zero (the
	// documented sync.WaitGroup misuse): every Add happens-before
	// StartDrain returns, and Drain only Waits after StartDrain.
	gateMu sync.Mutex

	mu      sync.Mutex
	tenants map[string]*tenant
	lru     *list.List // of *tenant; front = most recently used
	closed  bool
	// images retains evicted tenants' snapshots for warm readmission,
	// bounded by cfg.MaxImages; imageOrder is insertion order (oldest
	// first) for forgetting beyond the bound.
	images     map[string]*shill.Image
	imageOrder []string
	// imported holds denial histories pushed by POST /v1/admin/denials
	// when a tenant migrates here, merged into why-denied answers.
	imported map[string][]audit.Explanation
	// handoffWant is the set of tenants that still need their state
	// exported through /v1/admin/snapshot before a drain's handoff grace
	// is satisfied; populated by StartDrain, drained by markHandoff.
	handoffWant map[string]struct{}

	met metrics

	// flight retains the K slowest complete request traces for
	// GET /v1/trace — the server's flight recorder.
	flight *flightRecorder
}

// tenant is one tenant's registry entry: its machine and its share of
// the admission accounting. A freshly inserted entry is published
// before its machine is built (ready is open, m is nil) so machine
// construction — workload staging included — never holds Server.mu;
// concurrent requests for the same tenant wait on ready.
type tenant struct {
	name   string
	elem   *list.Element
	active int // admitted runs (running or queued); guarded by Server.mu

	ready    chan struct{}  // closed when the build finished
	m        *shill.Machine // nil until ready (or on build failure)
	buildErr error          // set before ready closes on failure
}

// New builds a server. No machines exist until the first request
// names a tenant.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		tenants: make(map[string]*tenant),
		lru:     list.New(),
		flight:  newFlightRecorder(16),
	}
	s.met.initHistograms()
	return s
}

// admitError is an admission refusal with its HTTP status.
type admitError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *admitError) Error() string { return e.msg }

// acquireTenant admits one run for the tenant: it looks up (or builds)
// the tenant's machine, enforces the per-tenant quota, and bumps the
// LRU. The caller must release with releaseTenant. Machine
// construction (workload staging included) happens outside Server.mu —
// a burst of new tenants must not stall admission, /metrics, or
// /healthz for everyone else — so the entry is published first and
// concurrent requests for the same tenant wait for the build.
func (s *Server) acquireTenant(name string) (*tenant, error) {
	var evict *tenant
	var build bool
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &admitError{status: 503, msg: "server is draining"}
	}
	t := s.tenants[name]
	if t == nil {
		if len(s.tenants) >= s.cfg.MaxMachines {
			victim := s.evictLocked()
			if victim == nil {
				s.mu.Unlock()
				s.met.rejectedMachines.Add(1)
				return nil, &admitError{status: 429, retryAfter: s.cfg.RetryAfter,
					msg: fmt.Sprintf("machine registry full (%d tenants, all busy)", s.cfg.MaxMachines)}
			}
			evict = victim
		}
		t = &tenant{name: name, ready: make(chan struct{})}
		t.elem = s.lru.PushFront(t)
		s.tenants[name] = t
		build = true
	} else {
		s.lru.MoveToFront(t.elem)
	}
	if t.active >= s.cfg.TenantConcurrent {
		s.mu.Unlock()
		if evict != nil {
			s.retireTenant(evict)
		}
		s.met.rejectedQuota.Add(1)
		return nil, &admitError{status: 429, retryAfter: s.cfg.RetryAfter,
			msg: fmt.Sprintf("tenant %q is at its concurrency quota (%d)", name, s.cfg.TenantConcurrent)}
	}
	t.active++
	s.mu.Unlock()
	if evict != nil {
		s.retireTenant(evict)
	}

	if build {
		m, err := s.buildMachine(name)
		if err != nil {
			t.buildErr = fmt.Errorf("building machine for tenant %q: %w", name, err)
		}
		t.m = m
		close(t.ready)
		if err != nil {
			s.dropTenant(t)
			s.releaseTenant(t)
			return nil, t.buildErr
		}
		return t, nil
	}
	<-t.ready
	if t.buildErr != nil {
		s.releaseTenant(t)
		return nil, t.buildErr
	}
	return t, nil
}

func (s *Server) releaseTenant(t *tenant) {
	s.mu.Lock()
	t.active--
	s.mu.Unlock()
}

// dropTenant removes a failed-build entry from the registry so a later
// request can retry.
func (s *Server) dropTenant(t *tenant) {
	s.mu.Lock()
	if s.tenants[t.name] == t {
		delete(s.tenants, t.name)
		s.lru.Remove(t.elem)
	}
	s.mu.Unlock()
}

// buildMachine boots a machine for a tenant, preferring the warmest
// source available: the tenant's own evicted snapshot (its state
// survives eviction), then the configured golden image (shared
// copy-on-write base layers), then a scratch build. A snapshot that
// fails to restore is discarded and the boot falls through to the next
// source rather than failing the request.
func (s *Server) buildMachine(name string) (*shill.Machine, error) {
	opts := s.cfg.MachineOptions(name)
	s.mu.Lock()
	img := s.images[name]
	s.mu.Unlock()
	if img != nil {
		if m, err := shill.RestoreMachine(img, opts...); err == nil {
			s.met.restoresWarm.Add(1)
			return m, nil
		}
		s.forgetImage(name)
	}
	if s.cfg.GoldenImage != nil {
		if m, err := shill.RestoreMachine(s.cfg.GoldenImage, opts...); err == nil {
			s.met.restoresCold.Add(1)
			return m, nil
		}
	}
	m, err := shill.NewMachine(opts...)
	if err == nil {
		s.met.restoresCold.Add(1)
	}
	return m, err
}

// retireTenant snapshots an evicted tenant's idle machine — so its
// state (files it wrote, scripts it installed) survives the eviction
// for warm readmission — and then closes the machine. If the snapshot
// fails the state is forfeited and the tenant's next request boots
// cold.
func (s *Server) retireTenant(t *tenant) {
	if t.m == nil {
		return
	}
	if img, err := t.m.Snapshot(); err == nil {
		s.storeImage(t.name, img)
	}
	t.m.Close()
}

// storeImage retains an evicted tenant's snapshot, forgetting the
// oldest retained snapshot beyond the MaxImages bound.
func (s *Server) storeImage(name string, img *shill.Image) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.images == nil {
		s.images = make(map[string]*shill.Image)
	}
	if _, ok := s.images[name]; ok {
		s.imageOrder = removeString(s.imageOrder, name)
	}
	s.images[name] = img
	s.imageOrder = append(s.imageOrder, name)
	for len(s.images) > s.cfg.MaxImages {
		oldest := s.imageOrder[0]
		s.imageOrder = s.imageOrder[1:]
		delete(s.images, oldest)
		// The drop is real state loss — the tenant's next readmission
		// boots cold — so it must be observable, not silent.
		s.met.imagesDropped.Add(1)
		log.Printf("shilld: dropping retained image for evicted tenant %q (retained images at the MaxImages=%d bound; the tenant's next readmission boots cold)",
			oldest, s.cfg.MaxImages)
	}
}

// forgetImage drops a retained snapshot that failed to restore.
func (s *Server) forgetImage(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[name]; ok {
		delete(s.images, name)
		s.imageOrder = removeString(s.imageOrder, name)
	}
}

func removeString(xs []string, x string) []string {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// RetainedImages reports how many evicted tenants' snapshots are held
// for warm readmission.
func (s *Server) RetainedImages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.images)
}

// evictLocked removes the least-recently-used idle tenant from the
// registry and returns it (its machine is snapshotted and closed by
// the caller outside the lock); nil when every tenant has runs in
// flight.
func (s *Server) evictLocked() *tenant {
	for e := s.lru.Back(); e != nil; e = e.Prev() {
		t := e.Value.(*tenant)
		if t.active == 0 {
			s.lru.Remove(e)
			delete(s.tenants, t.name)
			s.met.evictions.Add(1)
			return t
		}
	}
	return nil
}

// lookupTenant returns the tenant's registry entry without admitting a
// run (audit queries), or nil. It waits out an in-flight machine build
// so the caller always sees a usable machine.
func (s *Server) lookupTenant(name string) *tenant {
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		return nil
	}
	<-t.ready
	if t.buildErr != nil {
		return nil
	}
	return t
}

// acquireSlot takes a global concurrency slot, waiting in the bounded
// queue when all slots are busy. Release by receiving from s.slots.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.met.rejectedQueue.Add(1)
		return &admitError{status: 429, retryAfter: s.cfg.RetryAfter,
			msg: fmt.Sprintf("queue full (%d waiting)", s.cfg.MaxQueue)}
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &admitError{status: 503, msg: "canceled while queued: " + ctx.Err().Error()}
	}
}

// Draining reports whether the server has stopped admitting runs.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain flips the server into draining mode: /healthz turns 503
// and new runs are refused, while in-flight runs keep going. The set
// of tenants holding state here (live machines and retained images) is
// captured once, so AwaitHandoff can wait for a router to export them.
func (s *Server) StartDrain() {
	s.gateMu.Lock()
	first := !s.draining.Load()
	s.draining.Store(true)
	s.gateMu.Unlock()
	if !first {
		return
	}
	s.mu.Lock()
	if s.handoffWant == nil {
		s.handoffWant = make(map[string]struct{})
		for name := range s.tenants {
			s.handoffWant[name] = struct{}{}
		}
		for name := range s.images {
			s.handoffWant[name] = struct{}{}
		}
	}
	s.mu.Unlock()
}

// beginRequest registers a run with the in-flight group unless the
// server is draining; the caller must inflight.Done() when it returns
// true.
func (s *Server) beginRequest() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Drain gracefully stops the server: no new runs are admitted,
// in-flight runs finish (bounded by ctx), and then every tenant
// machine is closed. Returns ctx's error if in-flight runs outlive it;
// machines are closed regardless (cutting off whatever was still
// running).
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeMachines()
	return err
}

// Close is Drain without a bound.
func (s *Server) Close() { s.Drain(context.Background()) }

func (s *Server) closeMachines() {
	s.mu.Lock()
	s.closed = true
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.tenants = make(map[string]*tenant)
	s.lru.Init()
	s.mu.Unlock()
	for _, t := range ts {
		// A nil machine means a build abandoned by a timed-out drain;
		// there is nothing to close.
		if t.m != nil {
			t.m.Close()
		}
	}
}

// MachineStats snapshots every registered tenant machine's resource
// accounting — the per-tenant half of /metrics, and what leak checks
// compare after a load run.
func (s *Server) MachineStats() map[string]shill.MachineStats {
	s.mu.Lock()
	machines := make(map[string]*shill.Machine, len(s.tenants))
	for name, t := range s.tenants {
		if t.m != nil { // skip machines still being built
			machines[name] = t.m
		}
	}
	s.mu.Unlock()
	out := make(map[string]shill.MachineStats, len(machines))
	for name, m := range machines {
		out[name] = m.Stats()
	}
	return out
}

// Tenants reports how many tenant machines are registered.
func (s *Server) Tenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// MachinesClosed reports whether every machine the registry ever held
// has been closed — true only after a completed drain.
func (s *Server) MachinesClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed && len(s.tenants) == 0
}
