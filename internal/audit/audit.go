// Package audit is the capability provenance and audit subsystem: an
// always-on, low-overhead, append-only event log that records every
// security-relevant decision the simulated system makes — syscall
// allow/deny outcomes with the deciding layer (DAC, MAC policy, SHILL
// policy, capability runtime, contract system), capability creation and
// derivation lineage (which forge, wallet, or contract produced each
// capability), contract check outcomes, and sandbox spawn/exit.
//
// The log is sharded per session so concurrent sandbox sessions never
// contend: each shard is a fixed-size ring of immutable events whose
// slots are atomic pointers, and the only cross-shard state is one
// atomic global sequencer that gives events a total order. The hot path
// (Emit) is lock-free — an atomic sequence fetch, an atomic cursor
// fetch, and an atomic pointer store — so audit can stay enabled in
// production multi-session serving without a measurable throughput
// hit. Denial events are additionally retained in a small per-shard
// side ring so a burst of allowed operations can never evict the one
// denial a user needs explained.
//
// Structured denials travel as *DenyReason errors (deny.go), so an
// EACCES/EPERM observed by a script names the layer, operation, object,
// and missing privileges that produced it instead of a bare errno.
package audit

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/priv"
	"repro/internal/prof"
)

// Kind classifies audit events. Values start at 1 so a zero-valued
// Filter field means "any kind".
type Kind uint8

// Event kinds.
const (
	KindSyscall   Kind = iota + 1 // a mediated operation was checked
	KindGrant                     // a capability grant was installed on an object
	KindPropagate                 // privileges propagated to a derived object
	KindAutoGrant                 // debug mode auto-granted a missing privilege
	KindCapNew                    // a capability was minted by a forge/wallet
	KindCapDerive                 // a capability was derived from another
	KindCapDeny                   // the capability runtime refused an operation
	KindContract                  // a contract check ran
	KindSpawn                     // a session or sandboxed process started
	KindExit                      // a session or sandboxed process ended
)

func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindGrant:
		return "grant"
	case KindPropagate:
		return "propagate"
	case KindAutoGrant:
		return "autogrant"
	case KindCapNew:
		return "cap-new"
	case KindCapDerive:
		return "cap-derive"
	case KindCapDeny:
		return "cap-deny"
	case KindContract:
		return "contract"
	case KindSpawn:
		return "spawn"
	case KindExit:
		return "exit"
	}
	return "unknown"
}

// Verdict is an event's outcome. Values start at 1 so a zero-valued
// Filter field means "any verdict".
type Verdict uint8

// Verdicts.
const (
	Allow Verdict = iota + 1
	Deny
)

func (v Verdict) String() string {
	switch v {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	}
	return "unknown"
}

// Event is one immutable audit record. Events are stored by pointer and
// never mutated after Emit, which is what makes the lock-free ring
// reads safe.
type Event struct {
	Seq     uint64 // global total order, assigned by Emit
	Session uint64 // owning session id; 0 for ambient/global activity
	Kind    Kind
	Verdict Verdict
	Layer   Layer    // deciding layer for allow/deny events
	Policy  string   // MAC policy module that decided, if any
	Op      string   // operation name ("read", "lookup", "sock-send", …)
	Object  string   // object path or name, as cheap as the hot path allows
	Rights  priv.Set // rights granted, propagated, or found missing
	CapID   uint64   // capability the event concerns (lineage)
	Parent  uint64   // parent capability for derivation events
	Detail  string   // free-form: forge name, contract label, exit code…
	Trace   uint64   // request trace the event belongs to (internal/trace), 0 if untraced

	// ObjectFn/DetailFn defer the Object/Detail description (deny.go's
	// lazy provenance): the emitting hot path stores a closure instead
	// of walking paths eagerly, and every read path that hands events
	// out (Shard.Snapshot, and Query through it) forces them on its
	// copies; DenyReasonsSince hands them on still deferred. Shared
	// LazyObjects memoize, so at most one walk happens per fact.
	ObjectFn *LazyObject
	DetailFn *LazyObject
}

// resolveLazy forces any deferred descriptions into the string fields.
// It is called on copies handed out by queries — events stored in the
// rings stay immutable.
func (e *Event) resolveLazy() {
	if e.ObjectFn != nil {
		if e.Object == "" {
			e.Object = e.ObjectFn.Value()
		}
		e.ObjectFn = nil
	}
	if e.DetailFn != nil {
		if e.Detail == "" {
			e.Detail = e.DetailFn.Value()
		}
		e.DetailFn = nil
	}
}

// Shard is one session's ring of events. All methods are safe for
// concurrent use; writers never block and never allocate beyond the
// event itself.
type Shard struct {
	session uint64
	size    int
	cursor  atomic.Uint64
	slots   atomic.Pointer[[]atomic.Pointer[Event]]

	// Denials ride in a second, smaller ring so allowed-operation
	// churn cannot evict them before a query explains the failure.
	denySize   int
	denyCursor atomic.Uint64
	denySlots  atomic.Pointer[[]atomic.Pointer[Event]]
}

// lazyRing returns the ring behind p, allocating it on first use: ring
// zeroing is deferred from construction (machine boot, sandbox spawn)
// to the first event that actually needs the ring. A losing racer's
// allocation is discarded; both see the published ring.
func lazyRing(p *atomic.Pointer[[]atomic.Pointer[Event]], size int) []atomic.Pointer[Event] {
	if r := p.Load(); r != nil {
		return *r
	}
	fresh := make([]atomic.Pointer[Event], size)
	if p.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *p.Load()
}

// loadRing returns the ring behind p without allocating: nil means no
// event was ever stored, so readers have nothing to scan.
func loadRing(p *atomic.Pointer[[]atomic.Pointer[Event]]) []atomic.Pointer[Event] {
	if r := p.Load(); r != nil {
		return *r
	}
	return nil
}

// Session returns the session id the shard records for.
func (sh *Shard) Session() uint64 { return sh.session }

func (sh *Shard) put(e *Event) {
	i := sh.cursor.Add(1) - 1
	ring := lazyRing(&sh.slots, sh.size)
	ring[i%uint64(len(ring))].Store(e)
	if e.Verdict == Deny {
		j := sh.denyCursor.Add(1) - 1
		deny := lazyRing(&sh.denySlots, sh.denySize)
		deny[j%uint64(len(deny))].Store(e)
	}
}

// Emitted returns how many events the shard has ever received (not how
// many its ring still holds).
func (sh *Shard) Emitted() uint64 { return sh.cursor.Load() }

// Snapshot returns the events currently held by the shard (main ring
// plus retained denials), deduplicated by sequence number and sorted in
// emission order. Concurrent writers may overwrite slots during the
// scan; every returned event is internally consistent because events
// are immutable once stored.
func (sh *Shard) Snapshot() []Event {
	main, deny := loadRing(&sh.slots), loadRing(&sh.denySlots)
	seen := make(map[uint64]struct{}, len(main)+len(deny))
	out := make([]Event, 0, len(main))
	collect := func(slots []atomic.Pointer[Event]) {
		for i := range slots {
			e := slots[i].Load()
			if e == nil {
				continue
			}
			if _, dup := seen[e.Seq]; dup {
				continue
			}
			seen[e.Seq] = struct{}{}
			ev := *e
			ev.resolveLazy()
			out = append(out, ev)
		}
	}
	collect(main)
	collect(deny)
	sortEvents(out)
	return out
}

// Default ring geometry. The global shard retains the most recent ~4k
// decisions and 512 denials. Per-session shards are deliberately small:
// a kernel session is one sandbox execution (a few dozen decisions),
// so a large ring would be dead weight even allocated lazily. All
// rings wrap (append-only semantics with bounded memory), and none is
// allocated before its first event (lazyRing) — shard construction on
// the boot and spawn paths costs a few words, not a zeroed ring.
const (
	DefaultShardSize = 4096
	DefaultDenySize  = 512

	sessionShardSize = 256
	sessionDenySize  = 64

	// maxSessionShards bounds retained per-session history: beyond it
	// the oldest session's shard is evicted, the same wraparound rule
	// the rings apply per event. ~1k sessions × ~2.5KB ≈ 2.5MB ceiling.
	maxSessionShards = 1024
)

// Log is the audit log for one kernel: a set of per-session shards plus
// a global shard for ambient (session-less) activity, ordered by one
// atomic sequencer.
type Log struct {
	enabled     atomic.Bool
	seq         atomic.Uint64
	shardSize   int
	denySize    int
	sessionSize int
	sessionDeny int

	global *Shard

	// denyAll is a log-wide ring of the most recent denials across every
	// shard. Windowed queries (DenyReasonsSince, per-run Result denial
	// slices) scan this small ring instead of walking every session
	// shard, so attaching denial provenance to each run stays O(ring)
	// however many sessions the kernel has served.
	denyAllCursor atomic.Uint64
	denyAll       atomic.Pointer[[]atomic.Pointer[Event]]

	mu         sync.RWMutex
	shards     map[uint64]*Shard
	shardOrder []uint64 // insertion order, for bounded-history eviction

	// Self-instrumentation: estimated total time spent inside Emit
	// (sampled, see timingSample), drained into a prof.Collector's
	// AuditEmit category by FlushProf.
	emitNanos atomic.Int64
}

// NewLog returns an enabled log. shardSize/denySize of 0 select the
// defaults; tests shrink them to exercise wraparound. Session shards
// use the (smaller) session geometry, clamped to the configured sizes
// so shrunken test logs shrink everywhere.
func NewLog(shardSize, denySize int) *Log {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if denySize <= 0 {
		denySize = DefaultDenySize
	}
	l := &Log{
		shardSize:   shardSize,
		denySize:    denySize,
		sessionSize: min(shardSize, sessionShardSize),
		sessionDeny: min(denySize, sessionDenySize),
		shards:      make(map[uint64]*Shard),
	}
	l.global = newShard(0, l.shardSize, l.denySize)
	l.enabled.Store(true)
	return l
}

// putDeny records a denial in the log-wide denial ring.
func (l *Log) putDeny(e *Event) {
	i := l.denyAllCursor.Add(1) - 1
	ring := lazyRing(&l.denyAll, l.denySize)
	ring[i%uint64(len(ring))].Store(e)
}

// recentDenialsLazy returns the denials retained by the log-wide
// denial ring whose sequence number is greater than since, in emission
// order. This is the cheap windowed view DenyReasonsSince builds per-run
// windows from; per-session rings still retain their own denials for
// session-filtered queries. Deferred descriptions stay deferred, so a
// run whose Result is never inspected never pays for path resolution.
func (l *Log) recentDenialsLazy(since uint64) []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, 8)
	ring := loadRing(&l.denyAll)
	for i := range ring {
		e := ring[i].Load()
		if e != nil && e.Seq > since {
			out = append(out, *e)
		}
	}
	sortEvents(out)
	return out
}

func newShard(session uint64, size, denySize int) *Shard {
	return &Shard{session: session, size: size, denySize: denySize}
}

// SetEnabled toggles recording. Disabled, Emit is a single atomic load.
func (l *Log) SetEnabled(on bool) {
	if l != nil {
		l.enabled.Store(on)
	}
}

// Enabled reports whether the log records events.
func (l *Log) Enabled() bool { return l != nil && l.enabled.Load() }

// Global returns the shard for ambient (session-less) activity.
func (l *Log) Global() *Shard {
	if l == nil {
		return nil
	}
	return l.global
}

// SessionShard returns (creating if needed) the shard for a session id.
// Sessions cache the returned pointer, so the map is touched once per
// session. Retained history is bounded: past maxSessionShards the
// oldest session's shard is dropped from the queryable set (writers
// holding the evicted pointer still write to it harmlessly; it is
// simply no longer reachable from queries).
func (l *Log) SessionShard(session uint64) *Shard {
	if l == nil {
		return nil
	}
	if session == 0 {
		return l.global
	}
	l.mu.RLock()
	sh := l.shards[session]
	l.mu.RUnlock()
	if sh != nil {
		return sh
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if sh = l.shards[session]; sh == nil {
		sh = newShard(session, l.sessionSize, l.sessionDeny)
		l.shards[session] = sh
		l.shardOrder = append(l.shardOrder, session)
		if len(l.shardOrder) > maxSessionShards {
			delete(l.shards, l.shardOrder[0])
			l.shardOrder = l.shardOrder[1:]
		}
	}
	return sh
}

// timingSample controls the self-instrumentation duty cycle: one emit
// in every timingSample is timed and its duration scaled up, so the
// AuditEmit attribution stays live while the common emit pays only a
// mask-and-compare instead of two clock reads.
const timingSample = 64

// Emit records an event on the given shard (nil means the global
// shard), assigning its global sequence number. It returns the sequence
// number, or 0 when the log is disabled. Emit is the lock-free hot
// path: no locks, no map lookups, one small allocation.
func (l *Log) Emit(sh *Shard, e Event) uint64 {
	if l == nil || !l.enabled.Load() {
		return 0
	}
	seq := l.seq.Add(1)
	var start time.Time
	timed := seq%timingSample == 0
	if timed {
		start = time.Now()
	}
	e.Seq = seq
	if sh == nil {
		sh = l.global
	}
	if e.Session == 0 {
		e.Session = sh.session
	}
	sh.put(&e)
	if e.Verdict == Deny {
		l.putDeny(&e)
	}
	if timed {
		l.emitNanos.Add(int64(time.Since(start)) * timingSample)
	}
	return seq
}

// StartAt advances the sequence counter to at least seq without
// emitting events. Machine restore uses it so a restored machine's
// audit trail continues the captured machine's ordering instead of
// reissuing sequence numbers.
func (l *Log) StartAt(seq uint64) {
	if l == nil {
		return
	}
	for {
		cur := l.seq.Load()
		if cur >= seq || l.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Seq returns the latest assigned sequence number.
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// Emits returns the total number of recorded events. Every emit takes
// exactly one sequence number, so the sequencer doubles as the counter.
func (l *Log) Emits() uint64 { return l.Seq() }

// DrainEmitTime returns and zeroes the accumulated time spent emitting
// events — the audit subsystem's own overhead, attributed to the
// Figure-10 breakdown via prof.AuditEmit.
func (l *Log) DrainEmitTime() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.emitNanos.Swap(0))
}

// FlushProf drains the accumulated emission time into a collector's
// AuditEmit category, so Figure-10 breakdowns attribute audit overhead.
func (l *Log) FlushProf(c *prof.Collector) {
	if d := l.DrainEmitTime(); d > 0 {
		c.Add(prof.AuditEmit, d)
	}
}

// Sessions returns the ids of every session that has a shard, sorted.
func (l *Log) Sessions() []uint64 {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]uint64, 0, len(l.shards))
	for id := range l.shards {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortEvents(es []Event) {
	sort.Slice(es, func(i, j int) bool { return es[i].Seq < es[j].Seq })
}
