package shill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Session is one isolated execution context on a machine: a dedicated
// runtime process (uid UserUID, cwd /home/user), a private console
// device, and a per-run audit window. Sessions are the unit of
// concurrency — a machine serves many sessions at once — and the unit
// of cancellation: cancelling a Run's context stops that session's
// script without disturbing the others, and the session stays reusable.
type Session struct {
	m           *Machine
	index       int // -1 for the default (shared-console) session
	proc        *kernel.Proc
	console     *vfs.ConsoleDevice
	consolePath string

	// runMu serialises runs on one session: a session is a single
	// sandbox owner, not a worker pool — use more sessions for
	// parallelism.
	runMu  sync.Mutex
	closed bool
}

// NewSession returns a session with its own runtime process and a
// private console at /dev/pts/N. Sessions (and their processes) are
// pooled: Close returns the slot for reuse by a later NewSession.
func (m *Machine) NewSession() *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		idx := m.free[n-1]
		m.free = m.free[:n-1]
		s := m.sessions[idx]
		s.closed = false
		return s
	}
	return m.newSessionLocked()
}

func (m *Machine) newSessionLocked() *Session {
	idx := len(m.sessions)
	console, path := m.sys.NewSessionConsole(fmt.Sprint(idx))
	proc := m.sys.K.NewProc(UserUID, UserUID)
	if err := proc.Chdir("/home/user"); err != nil {
		panic("shill: " + err.Error())
	}
	s := &Session{m: m, index: idx, proc: proc, console: console, consolePath: path}
	m.sessions = append(m.sessions, s)
	return s
}

// session returns the pooled session with the given index, creating the
// pool up to it — the reuse pattern the parallel drivers and benchmarks
// rely on so repeated iterations do not grow the process table. A
// closed (free-listed) session at that index is claimed back first, so
// a later NewSession cannot hand the same slot to a second owner.
func (m *Machine) session(i int) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.sessions) <= i {
		m.newSessionLocked()
	}
	s := m.sessions[i]
	if s.closed {
		s.closed = false
		for j, idx := range m.free {
			if idx == i {
				m.free = append(m.free[:j], m.free[j+1:]...)
				break
			}
		}
	}
	return s
}

// DefaultSession returns the machine's shared-console session: its
// process is the machine runtime (the user's login shell) and its
// console is /dev/console — where scripts that name the global console
// device write. Single-run embedders and the case-study drivers use it;
// concurrent workloads should create private sessions with NewSession.
func (m *Machine) DefaultSession() *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.def == nil {
		m.def = &Session{
			m: m, index: -1,
			proc:        m.sys.Runtime,
			console:     m.sys.Console,
			consolePath: "/dev/console",
		}
	}
	return m.def
}

// Index returns the session's pool index (-1 for the default session).
func (s *Session) Index() int { return s.index }

// ConsolePath returns the path of the session's console device — what
// a generated script should open to write to this session's capture.
func (s *Session) ConsolePath() string { return s.consolePath }

// StreamConsole mirrors everything the session writes to its console to
// w, live, in addition to the per-run capture on Result; nil stops the
// stream. The writer runs under the console device's lock — hand it
// something fast (os.Stdout, a pipe, a buffer).
func (s *Session) StreamConsole(w io.Writer) { s.console.SetTee(w) }

// Close returns the session to the machine's pool. The default session
// is never pooled; closing it only clears its console. Any console tee
// is detached: a recycled slot must never keep streaming to its
// previous owner's writer.
func (s *Session) Close() {
	s.console.SetTee(nil)
	s.console.ResetOutput()
	if s.index < 0 {
		return
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.m.free = append(s.m.free, s.index)
	}
}

// Script names a script to run. Source, when set, is the ambient script
// text and Name is its display/blame label; with an empty Source the
// script is resolved by Name through the resolver. Resolver, when set,
// overrides the machine's script-lookup chain for this run (it also
// serves the run's `require` loads).
type Script struct {
	Name     string
	Source   string
	Resolver ScriptResolver
}

// Result reports one finished run. It is JSON-round-trippable —
// shilld returns it on the wire, denial provenance intact (DenyReason
// has marshal/unmarshal helpers of its own; Elapsed travels as
// nanoseconds).
type Result struct {
	// Script is the script's display name (or the command's argv[0]).
	Script string `json:"script"`
	// ExitStatus is 0 on success; for commands, the process exit code;
	// for scripts, 1 when the run returned an error.
	ExitStatus int `json:"exitStatus"`
	// Console is everything the run wrote to the session's console.
	Console string `json:"console"`
	// Denials are the structured audit denials recorded during this run
	// (seq-windowed, not the whole log). With concurrent sessions on one
	// machine the window can include a neighbour's denials; the denial
	// that failed this script, if any, is always first.
	Denials []*DenyReason `json:"denials,omitempty"`
	// Prof holds the machine profile samples attributed to this run.
	Prof []prof.Sample `json:"prof,omitempty"`
	// Elapsed is the run's wall time.
	Elapsed time.Duration `json:"elapsedNs"`
	// TraceID names the run's request trace; 0 when the machine was
	// built WithTraceDisabled.
	TraceID uint64 `json:"traceId,omitempty"`
	// Trace is the run's span tree (bounded; see trace.Ref), wire-tagged
	// like Denials so shilld clients receive the full decomposition.
	Trace []Span `json:"trace,omitempty"`
}

// Run parses and executes an ambient SHILL script in the session,
// honouring ctx: cancellation (or deadline) interrupts the eval loop at
// the next statement or closure call, wakes any blocking kernel wait
// the script's process is parked in, kills everything the run spawned,
// and returns promptly with the cancellation error — the session
// remains reusable. The returned Result is non-nil whenever the script
// actually ran, so console output and denial provenance survive
// failures.
func (s *Session) Run(ctx context.Context, script Script) (*Result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.m.Closed() {
		return nil, ErrMachineClosed
	}
	resolver := script.Resolver
	if resolver == nil {
		resolver = s.m.resolver
	}
	name := script.Name
	src := script.Source
	if src == "" {
		if name == "" {
			return nil, fmt.Errorf("shill: Script needs a Name or a Source")
		}
		var err error
		if src, err = resolver.Load(name); err != nil {
			return nil, err
		}
	}
	if name == "" {
		name = "script.ambient"
	}

	begin := s.beginRun(ctx, name)
	it := lang.NewInterp(s.proc, resolver, s.m.sys.Prof)
	it.ConsolePath = s.consolePath
	it.ParseCache = s.m.parseCache
	it.Trace = begin.tr
	it.TraceParent = begin.runSpan.ID()
	it.SetContext(ctx)
	release := s.armCancel(ctx)
	err := it.RunAmbient(name, src)
	release()
	it.SetContext(nil)
	// Sweep sockets the script left open: pooled sessions outlive their
	// runs, so a cancelled (or sloppy) script's listeners would
	// otherwise stay bound on the machine forever.
	it.CloseLeftoverSockets()
	// A cancelled run always reports the cancellation, even when the
	// script happened to reach its last statement (e.g. a blocking
	// builtin woke with EINTR and the script treated it as a value):
	// results of an interrupted run are not trustworthy as successes.
	if err == nil && ctx != nil && ctx.Err() != nil {
		err = fmt.Errorf("shill: run canceled: %w", context.Cause(ctx))
	}

	res := s.finishRun(name, begin, err)
	return res, err
}

// RunCommand spawns a native executable through the session's process
// with the session console as its stdio, waits for it, and reports its
// exit status — the "Baseline" configurations of the case studies, and
// the simplest way to run a command on the machine. argv[0] is resolved
// against the image PATH when it has no slash; dir, when non-empty,
// sets the working directory. Cancellation kills the process tree and
// returns promptly.
func (s *Session) RunCommand(ctx context.Context, argv []string, dir string) (*Result, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("shill: RunCommand needs an argv")
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.m.Closed() {
		return nil, ErrMachineClosed
	}

	path, err := s.m.LookPath(argv[0])
	if err != nil {
		return nil, err
	}
	vn, err := s.m.sys.K.FS.Resolve(path)
	if err != nil {
		return nil, err
	}
	attr := kernel.SpawnAttr{}
	if dir != "" {
		wd, err := s.m.sys.K.FS.Resolve(dir)
		if err != nil {
			return nil, err
		}
		attr.Dir = wd
	}

	begin := s.beginRun(ctx, argv[0])
	release := s.armCancel(ctx)
	code, runErr := s.spawnWait(vn, argv[1:], attr)
	release()

	res := s.finishRun(argv[0], begin, runErr)
	res.ExitStatus = code
	return res, runErr
}

// spawnWait runs the child to completion on the session console. An
// interrupted wait (cancellation) kills and reaps the child so nothing
// leaks, then surfaces the interruption.
func (s *Session) spawnWait(vn *vfs.Vnode, argv []string, attr kernel.SpawnAttr) (int, error) {
	console := kernel.NewVnodeFD(s.m.sys.K.FS.MustResolve(s.consolePath), true, true, false)
	attr.Stdin, attr.Stdout, attr.Stderr = console, console, console
	child, err := s.proc.Spawn(vn, argv, attr)
	console.Release()
	if err != nil {
		return -1, err
	}
	code, err := s.proc.Wait(child.PID())
	if errors.Is(err, errno.EINTR) {
		if killed, kerr := s.proc.KillWait(child.PID()); kerr == nil {
			code = killed
		}
		err = fmt.Errorf("shill: command interrupted: %w", errno.EINTR)
	}
	return code, err
}

// runBegin snapshots the state a Result's windows are computed from.
type runBegin struct {
	seq   uint64
	prof  []prof.Sample
	start time.Time

	// tr is the run's trace: adopted from the context (shilld threads
	// one trace from request admission down here) or minted from the
	// machine's recorder. Nil when tracing is disabled — every use
	// below is nil-safe.
	tr      *trace.Ref
	runSpan *trace.Active
	ops     trace.OpSnapshot
}

func (s *Session) beginRun(ctx context.Context, name string) runBegin {
	s.console.ResetOutput()
	b := runBegin{
		seq:   s.m.sys.Audit().Seq(),
		prof:  s.m.sys.Prof.Samples(),
		start: time.Now(),
	}
	if tc := trace.FromContext(ctx); tc != nil {
		b.tr = tc.Ref
		b.runSpan = b.tr.Start(tc.Parent, trace.KindRun, name)
	} else {
		b.tr = s.m.tracer.NewTrace()
		b.runSpan = b.tr.Start(0, trace.KindRun, name)
	}
	// Tag the session process (and whatever it forks) with the trace so
	// kernel-side denials land in the audit log already linked to it.
	s.proc.SetTraceID(b.tr.TraceID())
	b.ops = s.m.kernel().Ops.Snapshot()
	return b
}

func (s *Session) finishRun(name string, begin runBegin, runErr error) *Result {
	res := &Result{
		Script:  name,
		Console: string(s.console.Output()),
		Denials: s.m.sys.Audit().DenyReasonsSince(begin.seq),
		Prof:    prof.SamplesSince(begin.prof, s.m.sys.Prof.Samples()),
		Elapsed: time.Since(begin.start),
	}
	s.console.ResetOutput()
	// Close out the trace: aggregated kernel-op spans and the Figure 10
	// profile view land as children of the run span, then the span tree
	// (bounded) rides the Result the way Denials do.
	begin.tr.AddOps(begin.runSpan.ID(), begin.start, s.m.kernel().Ops.Snapshot().Delta(begin.ops))
	begin.tr.AddProfSamples(begin.runSpan.ID(), begin.start, res.Prof)
	begin.runSpan.End()
	s.proc.SetTraceID(0)
	res.TraceID = begin.tr.TraceID()
	res.Trace = begin.tr.Spans()
	if runErr != nil {
		res.ExitStatus = 1
		// The denial that actually failed the script leads the slice,
		// whatever the audit window retained around it.
		if d := audit.ReasonFor(runErr); d != nil {
			keep := res.Denials[:0]
			for _, w := range res.Denials {
				if w.Seq == 0 || w.Seq != d.Seq {
					keep = append(keep, w)
				}
			}
			res.Denials = append([]*DenyReason{d}, keep...)
		}
	}
	return res
}

// armCancel starts the watcher that converts a context cancellation
// into kernel-level interruption: the session process's blocking waits
// wake with EINTR and everything it spawned is killed. The returned
// release must be called when the run finishes; it re-arms the
// interrupt gate and sweeps stragglers so the session is reusable.
func (s *Session) armCancel(ctx context.Context) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-ctx.Done():
			s.proc.Interrupt()
			s.proc.KillDescendants()
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		<-finished
		if s.proc.Interrupted() {
			// The run raced the watcher: kill anything spawned after the
			// first sweep, then re-arm so the next run starts clean.
			s.proc.KillDescendants()
			s.proc.ClearInterrupt()
		}
	}
}
