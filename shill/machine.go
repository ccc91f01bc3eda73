// Package shill is the public embedding API of the SHILL reproduction
// (OSDI '14): it assembles a simulated machine running the SHILL kernel
// module, hands out first-class sandbox-capable sessions, and runs SHILL
// scripts with context cancellation, per-run consoles, windowed denial
// provenance, and per-run profiles.
//
// The three-step shape every embedder uses:
//
//	m, err := shill.NewMachine(shill.WithWorkload(shill.WorkloadDemo))
//	defer m.Close()
//	s := m.NewSession()
//	res, err := s.Run(ctx, shill.Script{Name: "main.ambient", Source: src})
//
// Result carries the script's exit status, everything it wrote to the
// session's console, the structured audit.DenyReason slice for exactly
// this run (seq-windowed, not the whole log), and the run's profile
// samples. Cancelling ctx interrupts the interpreter's eval loop and
// every blocking kernel wait (process wait, socket accept/recv/send),
// kills whatever the run spawned, and leaves the session reusable.
package shill

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Interpreter names the script interpreter a machine's sessions run.
// There is one, the tree-walk evaluator; the value exists so result
// stamps can record it.
type Interpreter struct{}

func (Interpreter) String() string { return "tree-walk" }

// ErrMachineClosed is returned by Session.Run and Session.RunCommand
// after Machine.Close: a closed machine's kernel workers and network
// stack are torn down, so running scripts against it would yield
// undefined half-alive behavior rather than a meaningful result.
var ErrMachineClosed = errors.New("shill: machine is closed")

// UserUID is the uid of the unprivileged user sessions run as.
const UserUID = core.UserUID

// Workload names a stageable case-study image (§4.1).
type Workload string

// Stageable workloads, mirroring the -workload flag of the command-line
// tools.
const (
	WorkloadNone    Workload = "none"
	WorkloadDemo    Workload = "demo" // a home directory with a few JPEGs
	WorkloadGrading Workload = "grading"
	WorkloadEmacs   Workload = "emacs" // also starts the origin server
	WorkloadApache  Workload = "apache"
	WorkloadFind    Workload = "find"
)

// config collects the functional options of NewMachine.
type config struct {
	module        bool
	consoleLimit  int
	spawnLatency  time.Duration
	auditDisabled bool
	traceDisabled bool
	workload      Workload
	resolver      ScriptResolver
	baseImage     *image.Image
}

// Option configures NewMachine.
type Option func(*config)

// WithModule selects whether the SHILL kernel module is installed
// (true, the default — the "SHILL installed" configuration) or not
// (false — the paper's "Baseline").
func WithModule(installed bool) Option {
	return func(c *config) { c.module = installed }
}

// WithWorkload stages a case-study image during machine construction.
func WithWorkload(w Workload) Option {
	return func(c *config) { c.workload = w }
}

// WithSpawnLatency simulates the fork/exec cost of the paper's real
// testbed on every exec (the in-memory simulator otherwise collapses it
// to ~0); parallel-session benchmarks enable it so throughput scaling
// reflects overlap of genuine blocking.
func WithSpawnLatency(d time.Duration) Option {
	return func(c *config) { c.spawnLatency = d }
}

// WithAuditDisabled turns the always-on audit trail off — the control
// configuration for measuring audit overhead.
func WithAuditDisabled() Option {
	return func(c *config) { c.auditDisabled = true }
}

// WithTraceDisabled turns request tracing off — the escape hatch (and
// the control arm of the trace-overhead benchmark). Tracing is on by
// default; every Run records a span tree into the machine's ring.
func WithTraceDisabled() Option {
	return func(c *config) { c.traceDisabled = true }
}

// WithConsoleLimit caps every console capture buffer (machine console
// and per-session consoles alike); 0 means unbounded.
func WithConsoleLimit(n int) Option {
	return func(c *config) { c.consoleLimit = n }
}

// WithScriptResolver prepends a resolver to the machine's script-lookup
// chain; the built-in case-study scripts remain the fallback.
func WithScriptResolver(r ScriptResolver) Option {
	return func(c *config) { c.resolver = r }
}

// Machine is an assembled simulated machine: the kernel, the base
// image, a staged workload, and a pool of sessions. It replaces the
// internal core.System façade as the supported entry surface.
type Machine struct {
	sys      *core.System
	resolver ScriptResolver
	closed   atomic.Bool

	cfg                    config       // resolved options, recorded into snapshots
	baseImage              *image.Image // image the machine booted from, if any
	imageHits, imageMisses atomic.Uint64
	originUp               atomic.Bool // origin server running (recorded into snapshots)

	parseCache *lang.ParseCache
	tracer     *trace.Recorder

	mu       sync.Mutex
	sessions []*Session // pool, indexed; entries are reused across runs
	free     []int      // indexes returned by Session.Close
	def      *Session   // the shared-console default session
}

// NewMachine builds a machine with the base image (binaries, libraries,
// devices, home directory), installs the SHILL module unless disabled,
// loads the built-in case-study scripts, and stages the requested
// workload.
func NewMachine(opts ...Option) (*Machine, error) {
	cfg := config{module: true, workload: WorkloadNone}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.baseImage != nil {
		// Re-seed from the image's recorded configuration, then
		// re-apply the explicit options so they override it.
		seeded := restoreConfig(cfg.baseImage)
		for _, o := range opts {
			o(&seeded)
		}
		return restoreMachine(seeded)
	}
	sys := core.NewSystem(core.Config{
		InstallModule: cfg.module,
		ConsoleLimit:  cfg.consoleLimit,
		SpawnLatency:  cfg.spawnLatency,
		AuditDisabled: cfg.auditDisabled,
	})
	m := &Machine{
		sys: sys, cfg: cfg,
		parseCache: new(lang.ParseCache),
		tracer:     trace.NewRecorder(trace.DefaultRingSize),
	}
	m.tracer.SetEnabled(!cfg.traceDisabled)
	sys.LoadCaseScripts()
	base := ScriptResolver(builtinResolver{sys})
	if cfg.resolver != nil {
		m.resolver = ChainResolver{cfg.resolver, base}
	} else {
		m.resolver = base
	}
	if err := m.Stage(cfg.workload); err != nil {
		sys.Close()
		return nil, err
	}
	return m, nil
}

// Stage builds a case-study workload image on the machine (idempotent
// for repeated staging of the same workload).
func (m *Machine) Stage(w Workload) error {
	s := m.sys
	switch w {
	case WorkloadNone, "":
		return nil
	case WorkloadDemo:
		if _, err := s.K.FS.WriteFile("/home/user/Documents/dog.jpg", []byte("JFIFdog"), 0o644, UserUID, UserUID); err != nil {
			return err
		}
		_, err := s.K.FS.WriteFile("/home/user/Documents/cat.jpg", []byte("JFIFcat"), 0o644, UserUID, UserUID)
		return err
	case WorkloadGrading:
		s.BuildGradingCourse(core.DefaultGrading)
		return nil
	case WorkloadEmacs:
		s.BuildEmacsOrigin(core.DefaultEmacs)
		stop, err := s.StartOrigin()
		_ = stop // runs for the machine lifetime
		if err == nil {
			m.originUp.Store(true)
		}
		return err
	case WorkloadApache:
		s.BuildWWW(core.DefaultApache)
		return nil
	case WorkloadFind:
		s.BuildSrcTree(core.DefaultFind)
		return nil
	}
	return fmt.Errorf("shill: unknown workload %q", w)
}

// Close shuts the machine down: background kernel workers stop and any
// goroutine still parked in a kernel wait is woken. Subsequent Run and
// RunCommand calls on any of the machine's sessions return
// ErrMachineClosed.
func (m *Machine) Close() {
	m.closed.Store(true)
	m.sys.Close()
}

// Closed reports whether Close has been called.
func (m *Machine) Closed() bool { return m.closed.Load() }

// Resolver returns the machine's script-lookup chain (user resolvers
// first, built-in case-study scripts last).
func (m *Machine) Resolver() ScriptResolver { return m.resolver }

// Engine reports the interpreter the machine's sessions use.
func (m *Machine) Engine() Interpreter { return Interpreter{} }

// CompileCacheStats reports hits and misses of the machine's parse
// cache, which every session's scripts and required modules go
// through.
func (m *Machine) CompileCacheStats() (hits, misses uint64) {
	return m.parseCache.Stats()
}

// Tracer returns the machine's span recorder: the lock-free ring every
// run's spans land in. Servers poll it (trace.Recorder.Since) for the
// machine-wide span stream; each Result additionally carries its own
// run's spans.
func (m *Machine) Tracer() *trace.Recorder { return m.tracer }

// Prof returns the machine-wide profile collector (the Figure 10
// accumulation across runs; each Result additionally carries the
// samples of its own run).
func (m *Machine) Prof() *prof.Collector { return m.sys.Prof }

// FlushAuditProf attributes the audit subsystem's accumulated emission
// time to the profile's AuditEmit category (call before Prof().Report).
func (m *Machine) FlushAuditProf() { m.sys.FlushAuditProf() }

// SandboxCount reports how many sandboxes the machine has created — the
// statistic the paper reports per benchmark (Grading 5,371, …).
func (m *Machine) SandboxCount() int64 { return m.sys.Prof.Count(prof.SandboxSetup) }

// AuditLog exposes the machine's audit log for provenance queries
// (lineage, trace, summaries). Per-run denials are already on Result.
func (m *Machine) AuditLog() *audit.Log { return m.sys.Audit() }

// AuditSeq returns the audit log's current sequence point; pass it to
// AuditDenialsSince to window a manual query the way Session.Run does.
func (m *Machine) AuditSeq() uint64 { return m.sys.Audit().Seq() }

// AuditDenialsSince returns the structured denials recorded after the
// given sequence point.
func (m *Machine) AuditDenialsSince(since uint64) []*DenyReason {
	return m.sys.Audit().DenyReasonsSince(since)
}

// ConsoleText returns and clears everything written to the machine's
// shared console (/dev/console) — the default session's device.
func (m *Machine) ConsoleText() string {
	out := string(m.sys.Console.Output())
	m.sys.Console.ResetOutput()
	return out
}

// WriteFile writes a file into the image (staging helper).
func (m *Machine) WriteFile(path string, data []byte, mode uint16, uid int) error {
	_, err := m.sys.K.FS.WriteFile(path, data, mode, uid, uid)
	return err
}

// ReadFile reads a file from the image.
func (m *Machine) ReadFile(path string) (string, error) {
	vn, err := m.sys.K.FS.Resolve(path)
	if err != nil {
		return "", err
	}
	return string(vn.Bytes()), nil
}

// MkdirAll creates a directory path in the image (staging helper).
func (m *Machine) MkdirAll(path string, mode uint16, uid int) error {
	_, err := m.sys.K.FS.MkdirAll(path, mode, uid, uid)
	return err
}

// RemovePath unlinks a single file, ignoring errors (bench resets).
func (m *Machine) RemovePath(path string) { m.sys.RemovePath(path) }

// RemoveTree removes a directory tree, ignoring errors (bench resets).
func (m *Machine) RemoveTree(path string) { m.sys.RemoveTree(path) }

// LookPath resolves a bare executable name against the image's standard
// binary directories; absolute or relative paths return unchanged when
// they resolve.
func (m *Machine) LookPath(name string) (string, error) {
	if strings.Contains(name, "/") {
		if _, err := m.sys.K.FS.Resolve(name); err != nil {
			return "", fmt.Errorf("shill: %s: %w", name, err)
		}
		return name, nil
	}
	for _, dir := range []string{"/bin/", "/usr/bin/", "/usr/local/bin/", "/usr/local/sbin/"} {
		if _, err := m.sys.K.FS.Resolve(dir + name); err == nil {
			return dir + name, nil
		}
	}
	return "", fmt.Errorf("shill: executable %q not found on image PATH", name)
}

// AddScript installs (or replaces) a named script in the machine's
// built-in script table, making it requirable by every session.
func (m *Machine) AddScript(name, src string) { m.sys.Scripts[name] = src }

// StartOrigin launches the origin web server (serving /srv/origin on
// port 80) and returns a stop function.
func (m *Machine) StartOrigin() (stop func(), err error) {
	stop, err = m.sys.StartOrigin()
	if err == nil {
		m.originUp.Store(true)
		inner := stop
		stop = func() {
			m.originUp.Store(false)
			inner()
		}
	}
	return stop, err
}

// Staging delegations: workload builders remain mechanism in
// internal/core; these are the supported handles.

// BuildGradingCourse stages the default grading course at /course.
func (m *Machine) BuildGradingCourse(w GradingWorkload) { m.sys.BuildGradingCourse(w) }

// ResetGradingOutputs clears /course work and grades between runs.
func (m *Machine) ResetGradingOutputs() { m.sys.ResetGradingOutputs() }

// BuildEmacsOrigin stages the emacs tarball on the origin server.
func (m *Machine) BuildEmacsOrigin(w EmacsWorkload) { m.sys.BuildEmacsOrigin(w) }

// ResetEmacsOutputs clears the build area, downloads, and prefix.
func (m *Machine) ResetEmacsOutputs() { m.sys.ResetEmacsOutputs() }

// BuildWWW stages the Apache document root and configuration.
func (m *Machine) BuildWWW(w ApacheWorkload) { m.sys.BuildWWW(w) }

// BuildSrcTree stages the find case study's source tree.
func (m *Machine) BuildSrcTree(w FindWorkload) (total, cFiles, matches int) {
	return m.sys.BuildSrcTree(w)
}

// Snapshot hooks: conformance oracles (internal/oracle, cmd/shill-soak)
// capture the machine's observable state before and after a run and
// diff it against the run's manifest — the no-escape property of §2.3.

// SnapshotFS walks the filesystem image and returns a map from
// absolute path to a stable content fingerprint ("dir", "dev",
// "link:<target>", or "file:<bytes>"). Paths for which skip returns
// true are omitted, and skipped directories are pruned — the walk does
// not descend into them, so skip must be subtree-closed (skipping a
// directory means skipping everything under it). A nil skip snapshots
// everything.
func (m *Machine) SnapshotFS(skip func(path string) bool) map[string]string {
	fs := m.sys.K.FS
	snap := make(map[string]string, 256)
	fs.WalkPrune(fs.Root(), func(path string, v *vfs.Vnode) bool {
		if skip != nil && skip(path) {
			return false
		}
		switch {
		case v.IsDir():
			snap[path] = "dir"
		case v.Type() == vfs.TypeSymlink:
			target, _ := v.Readlink()
			snap[path] = "link:" + target
		case v.Type() == vfs.TypeCharDev:
			snap[path] = "dev"
		default:
			snap[path] = "file:" + string(v.Bytes())
		}
		return true
	})
	return snap
}

// NetListeners returns the domain-prefixed addresses with a bound
// listener ("ip!8080"), sorted — the network half of a no-escape
// snapshot.
func (m *Machine) NetListeners() []string { return m.sys.K.Net.Listeners() }

// NetLiveSockets reports how many sockets are live on the stack — a
// leak signal for soak harnesses.
func (m *Machine) NetLiveSockets() int { return m.sys.K.Net.LiveSockets() }

// kernelOf gives session internals access to the kernel.
func (m *Machine) kernel() *kernel.Kernel { return m.sys.K }
