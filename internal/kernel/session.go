package kernel

import (
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/vfs"
)

// Session is a SHILL sandbox session (§3.2.1): the unit that capabilities
// are granted to and that the policy module checks privileges against.
// Processes in one session share its capabilities; sessions are
// hierarchical, and a child session can only ever hold attenuated
// authority relative to its parent.
type Session struct {
	id     uint64
	parent *Session
	k      *Kernel

	entered atomic.Bool

	mu sync.Mutex
	// refs counts reasons the session must stay alive: member processes
	// plus live child sessions. A parent session's privileges must
	// outlive its children, since child grants are checked against them
	// (§3.2.1's hierarchy).
	refs       int
	labeled    []*privMap // privilege maps holding an entry for this session
	sockGrants map[netstack.Domain]*priv.Grant
	torn       bool

	log   *SessionLog
	debug bool

	// shard is the session's audit-log shard, cached at creation so the
	// policy's hot check path emits events without any map lookup.
	shard *audit.Shard

	// trace is the request trace (internal/trace) the session is running
	// under, copied from the initiating process at ShillInit and
	// re-stamped by Proc.SetTraceID between runs of a long-lived runtime
	// process. Deny sites read it to tag audit events.
	trace atomic.Uint64
}

// ID returns the session id.
func (s *Session) ID() uint64 { return s.id }

// Parent returns the parent session, or nil for a top-level sandbox.
func (s *Session) Parent() *Session { return s.parent }

// Entered reports whether shill_enter has been called.
func (s *Session) Entered() bool { return s.entered.Load() }

// Debug reports whether the session auto-grants missing privileges.
func (s *Session) Debug() bool { return s.debug }

// Log returns the session's log, or nil if logging is disabled.
func (s *Session) Log() *SessionLog { return s.log }

// AuditShard returns the session's audit-log shard.
func (s *Session) AuditShard() *audit.Shard { return s.shard }

// isDescendantOf reports whether s is t or a descendant of t.
func (s *Session) isDescendantOf(t *Session) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur == t {
			return true
		}
	}
	return false
}

func (s *Session) addProc() { s.addRef() }

func (s *Session) addRef() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

// procExited drops a process reference and reports whether the session
// is now dead (no processes and no live child sessions).
func (s *Session) procExited() bool { return s.decRef() }

func (s *Session) decRef() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refs--
	return s.refs <= 0 && !s.torn
}

// recordLabeled remembers a privilege map holding an entry for this
// session so asynchronous teardown can scrub it (§4.2 attributes part of
// Find's overhead to exactly this cleanup).
func (s *Session) recordLabeled(pm *privMap) {
	s.mu.Lock()
	s.labeled = append(s.labeled, pm)
	s.mu.Unlock()
}

// teardown removes every privilege-map entry for the session, then
// releases its reference on the parent session (which may in turn become
// collectable).
func (s *Session) teardown() {
	s.mu.Lock()
	if s.torn {
		s.mu.Unlock()
		return
	}
	s.torn = true
	labeled := s.labeled
	s.labeled = nil
	s.mu.Unlock()
	for _, pm := range labeled {
		pm.remove(s)
	}
	if s.k.aud.Enabled() {
		s.k.aud.Emit(s.shard, audit.Event{
			Kind: audit.KindExit, Op: "session-teardown",
			Detail: fmt.Sprintf("scrubbed %d privilege maps", len(labeled)),
		})
	}
	if s.parent != nil && s.parent.decRef() {
		s.k.enqueueCleanup(s.parent)
	}
}

// SessionOptions configure ShillInit.
type SessionOptions struct {
	// Debug makes the policy auto-grant privileges instead of denying,
	// recording each auto-grant in the log — the paper's debugging
	// sandbox (§3.2.2 "Debugging").
	Debug bool
	// Logging records grants and denials even outside debug mode.
	Logging bool
}

// ShillInit implements the shill_init system call: it creates a new
// session (a child of the process's current session, if any) and
// associates it with the calling process. The new session has no
// capabilities; grants are accepted until ShillEnter.
func (p *Proc) ShillInit(opts SessionOptions) (*Session, error) {
	if p.k.Policy == nil {
		return nil, errno.ENOSYS // SHILL module not loaded
	}
	p.mu.Lock()
	parentSession := p.session
	cred := p.cred
	p.mu.Unlock()

	s := &Session{
		id:         p.k.nextSessionID.Add(1),
		parent:     parentSession,
		k:          p.k,
		sockGrants: make(map[netstack.Domain]*priv.Grant),
		debug:      opts.Debug,
	}
	s.trace.Store(p.traceID.Load())
	if opts.Debug || opts.Logging || p.k.Policy.logAll.Load() {
		s.log = &SessionLog{}
	}
	s.refs = 1
	// A disabled log allocates no shard: the audit=off configuration
	// must not pay per-spawn ring allocation or the log's creation
	// lock. Emissions tolerate a nil shard (they fall back to the
	// global shard, and are no-ops while the log stays disabled).
	if p.k.aud.Enabled() {
		s.shard = p.k.aud.SessionShard(s.id)
		parentID := uint64(0)
		if parentSession != nil {
			parentID = parentSession.id
		}
		p.k.aud.Emit(s.shard, audit.Event{
			Kind: audit.KindSpawn, Op: "shill-init",
			Detail: fmt.Sprintf("pid %d, parent session %d", p.pid, parentID),
		})
	}

	// The child session holds a reference on its parent: a parent's
	// privileges must remain inspectable while any descendant session
	// can still be granted from them. Take that reference before the
	// process releases its own membership of the old session.
	if parentSession != nil {
		parentSession.addRef()
	}
	p.mu.Lock()
	if p.session != nil {
		old := p.session
		p.mu.Unlock()
		if old.procExited() {
			p.k.enqueueCleanup(old)
		}
		p.mu.Lock()
	}
	p.session = s
	p.mu.Unlock()
	cred.MACLabel().Set(policyName, s)
	return s, nil
}

// ShillGrant implements the grant phase between shill_init and
// shill_enter: it installs a privilege-map entry for the session on the
// object. If the session has a parent session, the grant must be covered
// by the parent's privileges on the same object — "capabilities
// possessed by the parent session can be granted to the new session"
// (§3.2.1) — which makes attenuation the only possible direction.
func (p *Proc) ShillGrant(obj mac.Labeled, g *priv.Grant) error {
	pol := p.k.Policy
	if pol == nil {
		return errno.ENOSYS
	}
	s := p.Session()
	if s == nil {
		return errno.EINVAL
	}
	if s.Entered() {
		return errno.EPERM // grants only accepted before shill_enter
	}
	if s.parent != nil {
		parentGrant := pmOf(obj.MACLabel()).get(s.parent)
		if !parentGrant.Covers(g) {
			return errno.EPERM
		}
	}
	pol.grantObject(s, obj, g)
	return nil
}

// ShillGrantSocketFactory grants the session the right to create and use
// sockets of the given domain with the given privileges — the kernel
// half of SHILL's socket-factory capability (§3.1.1).
func (p *Proc) ShillGrantSocketFactory(domain netstack.Domain, g *priv.Grant) error {
	pol := p.k.Policy
	if pol == nil {
		return errno.ENOSYS
	}
	s := p.Session()
	if s == nil {
		return errno.EINVAL
	}
	if s.Entered() {
		return errno.EPERM
	}
	if s.parent != nil {
		s.parent.mu.Lock()
		parentGrant := s.parent.sockGrants[domain]
		s.parent.mu.Unlock()
		if !parentGrant.Covers(g) {
			return errno.EPERM
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.sockGrants[domain]; existing != nil {
		// Conflicting socket grants are never merged (§3.2.2 "Avoiding
		// privilege amplification"): the first grant stands.
		if s.log != nil {
			s.log.add(LogEntry{Kind: LogDeny, Op: "sock-grant-merge", Object: domain.String()})
		}
		return nil
	}
	s.sockGrants[domain] = g.Clone()
	if s.log != nil {
		s.log.add(LogEntry{Kind: LogGrant, Op: "socket-factory", Object: domain.String(), Rights: g.Rights})
	}
	p.k.aud.Emit(s.shard, audit.Event{
		Kind: audit.KindGrant, Op: "socket-factory",
		Object: "socket(" + domain.String() + ")", Rights: g.Rights,
	})
	return nil
}

// ShillEnter implements the shill_enter system call: from this point the
// session permits only operations its granted capabilities allow.
func (p *Proc) ShillEnter() error {
	if p.k.Policy == nil {
		return errno.ENOSYS
	}
	s := p.Session()
	if s == nil {
		return errno.EINVAL
	}
	s.entered.Store(true)
	p.k.aud.Emit(s.shard, audit.Event{Kind: audit.KindSpawn, Op: "shill-enter"})
	return nil
}

// Fork creates a suspended child process that inherits the parent's
// credential (and thus session), working directory, and limits, but has
// an empty descriptor table. The caller configures it (stdio, session
// syscalls) and then starts it with Exec.
func (p *Proc) Fork() (*Proc, error) {
	p.mu.Lock()
	cred := p.cred
	limits := p.limits
	cwd := p.cwd
	session := p.session
	live := len(p.children) // RLIMIT_NPROC counts live children
	p.mu.Unlock()
	if live >= limits.MaxProcs {
		return nil, errno.EAGAIN
	}

	k := p.k
	child := &Proc{
		k:        k,
		pid:      int(k.nextPID.Add(1)),
		parent:   p,
		cred:     cred.Fork(),
		cwd:      cwd,
		fds:      make(map[int]*FileDesc),
		nextFD:   3,
		children: make(map[int]*Proc),
		done:     make(chan struct{}),
		limits:   limits,
		session:  session,
	}
	child.traceID.Store(p.traceID.Load())
	k.procsMu.Lock()
	k.procs[child.pid] = child
	k.procsMu.Unlock()

	if session != nil {
		session.addProc()
	}
	p.mu.Lock()
	p.children[child.pid] = child
	p.mu.Unlock()
	return child, nil
}

// Exec starts the binary in vn inside the (forked, configured) process.
// The MAC exec check runs with the child's credential, so a sandboxed
// session must hold the +exec privilege on the binary.
func (p *Proc) Exec(vn *vfs.Vnode, argv []string) error {
	if vn.Type() != vfs.TypeFile {
		return errno.EACCES
	}
	cred := p.Cred()
	if !vn.Accessible(cred.UID, cred.GID, vfs.ModeExec) {
		return p.denyDAC("exec", vn)
	}
	if err := p.k.MAC.VnodeCheck(cred, vn, mac.OpVnodeExec, ""); err != nil {
		return err
	}
	main, name, err := p.k.binaryFor(vn)
	if err != nil {
		return err
	}
	if s := p.Session(); s != nil && p.k.aud.Enabled() {
		p.k.aud.Emit(s.shard, audit.Event{
			Kind: audit.KindSpawn, Op: "exec", Object: name,
			Detail: fmt.Sprintf("pid %d", p.pid),
		})
	}
	latency := p.k.SpawnLatency()
	go func() {
		if latency > 0 {
			// The simulated fork/exec latency must not outlive the
			// process: a killed (cancelled) child stops sleeping and
			// never runs its binary.
			t := time.NewTimer(latency)
			select {
			case <-t.C:
			case <-p.done:
				t.Stop()
				return
			}
		}
		p.exit(p.runBinary(main, append([]string{name}, argv...)))
	}()
	return nil
}

// runBinary runs a simulated binary's main. A panic there would take
// down every tenant in the Go process; it is contained to the process
// that raised it, which exits 134 (SIGABRT) as a crashing process does
// on a real kernel.
func (p *Proc) runBinary(main BinMain, argv []string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("kernel: pid %d (%s) panicked: %v\n%s", p.pid, argv[0], r, debug.Stack())
			code = 134
		}
	}()
	return main(p, argv)
}

// Abandon terminates a forked-but-never-exec'd process so its session
// accounting unwinds. Exec failures route here.
func (p *Proc) Abandon() { p.exit(127) }

// --- session log ---

// LogKind classifies session log entries.
type LogKind int

// Log entry kinds.
const (
	LogGrant LogKind = iota
	LogDeny
	LogAutoGrant
	LogPropagate
)

func (k LogKind) String() string {
	switch k {
	case LogGrant:
		return "grant"
	case LogDeny:
		return "deny"
	case LogAutoGrant:
		return "autogrant"
	case LogPropagate:
		return "propagate"
	}
	return "unknown"
}

// LogEntry is one session log record: a capability grant, a privilege
// propagation, a denial, or a debug auto-grant (§3.2.2 "Debugging").
type LogEntry struct {
	Kind   LogKind
	Op     string
	Object string
	Rights priv.Set
}

// String renders the entry as the debugging tool prints it.
func (e LogEntry) String() string {
	if e.Rights != 0 {
		return fmt.Sprintf("%-9s %-12s %s %s", e.Kind, e.Op, e.Object, e.Rights)
	}
	return fmt.Sprintf("%-9s %-12s %s", e.Kind, e.Op, e.Object)
}

// maxLogEntries bounds per-session log memory.
const maxLogEntries = 65536

// SessionLog accumulates log entries for one session.
type SessionLog struct {
	mu      sync.Mutex
	entries []LogEntry
	dropped int
}

func (l *SessionLog) add(e LogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= maxLogEntries {
		l.dropped++
		return
	}
	l.entries = append(l.entries, e)
}

// Entries returns a copy of the recorded entries.
func (l *SessionLog) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Denials returns only the denial entries.
func (l *SessionLog) Denials() []LogEntry {
	var out []LogEntry
	for _, e := range l.Entries() {
		if e.Kind == LogDeny {
			out = append(out, e)
		}
	}
	return out
}

// AutoGrants returns only the debug auto-grant entries — the starting
// point for "identifying necessary capabilities to provide to a SHILL
// script" (§3.2.2).
func (l *SessionLog) AutoGrants() []LogEntry {
	var out []LogEntry
	for _, e := range l.Entries() {
		if e.Kind == LogAutoGrant {
			out = append(out, e)
		}
	}
	return out
}
