package shill

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/lang"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Image is an immutable, content-addressed machine snapshot: a stack of
// copy-on-write filesystem layers plus the metadata needed to boot a
// session-ready machine from it (see internal/image). Snapshot produces
// one; RestoreMachine and WithBaseImage consume one.
type Image = image.Image

// DeserializeImage decodes an image previously written with
// Image.Serialize — the wire format shilld uses to keep evicted tenant
// snapshots and the grading tools use for prebuilt golden images.
func DeserializeImage(data []byte) (*Image, error) { return image.Deserialize(data) }

// WithBaseImage boots the machine from a snapshot instead of building
// the base filesystem from scratch. The image's recorded configuration
// (module, workload, console limit, spawn latency, audit switch) seeds
// the machine's configuration; explicit options still override it.
// Restoring from the same image repeatedly shares one flattened base
// layer across all machines, so boot cost is O(metadata), not O(tree).
func WithBaseImage(img *Image) Option {
	return func(c *config) { c.baseImage = img }
}

// RestoreMachine boots a session-ready machine from a snapshot. It is
// shorthand for NewMachine(append(opts, WithBaseImage(img))...): the
// filesystem mounts the image's layers copy-on-write, the added scripts,
// staging state, and audit sequence continue from the captured values,
// and the origin server is restarted if it was running at capture.
//
// Live kernel state is deliberately not restored: processes, open file
// descriptors, and sockets other than the origin's listener died with
// the captured machine. Listener addresses recorded in the image are
// metadata for conformance checking, not revivable servers.
func RestoreMachine(img *Image, opts ...Option) (*Machine, error) {
	if img == nil {
		return nil, errors.New("shill: RestoreMachine: nil image")
	}
	return NewMachine(append(append([]Option{}, opts...), WithBaseImage(img))...)
}

// restoreConfig seeds a config from the image's recorded settings; the
// caller re-applies explicit options on top so they win.
func restoreConfig(img *Image) config {
	mc := img.Meta().Config
	return config{
		module:        mc.InstallModule,
		consoleLimit:  mc.ConsoleLimit,
		spawnLatency:  time.Duration(mc.SpawnLatencyNs),
		auditDisabled: mc.AuditDisabled,
		workload:      Workload(mc.Workload),
	}
}

// restoreMachine is the WithBaseImage boot path of NewMachine: build
// the system over the image's flattened layer view and replay the
// captured metadata.
func restoreMachine(cfg config) (*Machine, error) {
	img := cfg.baseImage
	flat, hit := img.Flatten()
	meta := img.Meta()
	sys := core.NewSystemFromBase(core.Config{
		InstallModule: cfg.module,
		ConsoleLimit:  cfg.consoleLimit,
		SpawnLatency:  cfg.spawnLatency,
		AuditDisabled: cfg.auditDisabled,
	}, flat)
	m := &Machine{
		sys: sys, cfg: cfg, baseImage: img,
		parseCache: new(lang.ParseCache),
		tracer:     trace.NewRecorder(trace.DefaultRingSize),
	}
	if hit {
		m.imageHits.Add(1)
	} else {
		m.imageMisses.Add(1)
	}
	m.tracer.SetEnabled(!cfg.traceDisabled)

	// The audit trail continues where the captured machine left off, so
	// seq-windowed queries never replay pre-snapshot history.
	sys.Audit().StartAt(meta.AuditSeq)
	if err := sys.RestoreStagingState(meta.Staging); err != nil {
		sys.Close()
		return nil, fmt.Errorf("shill: restore staging state: %w", err)
	}

	// Scripts the tenant added (AddScript) survive eviction. An image
	// from before the shipped set was shared still carries copies of
	// it; they land here and shadow identical sources.
	for name, src := range meta.Scripts {
		sys.Scripts[name] = src
	}
	m.resolver = machineResolver(cfg, sys)

	// The origin server's listener cannot be serialized; restart it
	// from the on-image binaries if it was up at capture.
	if meta.Config.Origin {
		if _, err := sys.StartOrigin(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("shill: restore origin: %w", err)
		}
		m.originUp.Store(true)
	}

	// The image already holds its workload's staging; only stage when
	// the caller asked for a different one.
	if cfg.workload != Workload(meta.Config.Workload) {
		if err := m.Stage(cfg.workload); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return m, nil
}

// Snapshot quiesces the machine and captures it as an immutable,
// content-addressed image: the filesystem's divergence from its base
// image as one new copy-on-write layer (the full tree if the machine
// was built from scratch), plus the scripts the machine added, staging
// state, bound listener addresses, audit sequence, and configuration.
// The shipped scripts are not captured: every machine resolves them.
//
// Quiescing waits for every in-flight Run to finish and blocks new runs
// for the duration of the capture; capture cost is O(dirty state), not
// O(tree), for image-based machines. The machine keeps running
// afterwards — snapshotting does not close it.
//
// A snapshot of an unmodified restored machine is byte-identical to the
// image it was restored from (same ID), which is what lets a serving
// frontend deduplicate idle tenants against golden images.
func (m *Machine) Snapshot() (*Image, error) {
	if m.closed.Load() {
		return nil, ErrMachineClosed
	}
	release := m.quiesce()
	defer release()

	top := m.sys.K.FS.CaptureLayer()
	var layers []*vfs.Layer
	if m.baseImage != nil {
		layers = append(layers, m.baseImage.Layers()...)
		// An empty top layer would change the image ID without
		// changing its content; omit it so snapshot→restore→snapshot
		// is a fixed point.
		if top.Len() > 0 {
			layers = append(layers, top)
		}
	} else {
		layers = []*vfs.Layer{top}
	}

	scripts := make(map[string]string, len(m.sys.Scripts))
	for name, src := range m.sys.Scripts {
		scripts[name] = src
	}
	meta := image.Meta{
		Config: image.Config{
			InstallModule:  m.cfg.module,
			ConsoleLimit:   m.cfg.consoleLimit,
			SpawnLatencyNs: int64(m.cfg.spawnLatency),
			AuditDisabled:  m.cfg.auditDisabled,
			Workload:       string(m.cfg.workload),
			Origin:         m.originUp.Load(),
		},
		Scripts:   scripts,
		Listeners: m.NetListeners(),
		AuditSeq:  m.sys.Audit().Seq(),
		Staging:   m.sys.StagingState(),
	}
	return image.New(layers, meta), nil
}

// quiesce blocks new runs and waits for in-flight ones: it takes the
// pool lock, then every session's run lock (Run holds runMu for the
// whole run and never takes the pool lock, so the ordering is safe).
// The returned release function undoes it.
func (m *Machine) quiesce() (release func()) {
	m.mu.Lock()
	locked := make([]*sync.Mutex, 0, len(m.sessions)+1)
	for _, s := range m.sessions {
		if s != nil {
			s.runMu.Lock()
			locked = append(locked, &s.runMu)
		}
	}
	if m.def != nil {
		m.def.runMu.Lock()
		locked = append(locked, &m.def.runMu)
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].Unlock()
		}
		m.mu.Unlock()
	}
}

// BaseImage returns the image the machine was booted from (nil for
// machines built from scratch).
func (m *Machine) BaseImage() *Image { return m.baseImage }

// ImageCacheStats reports whether this machine's boot reused a cached
// flattened base layer (hit) or had to compute it (miss); both are zero
// for machines built from scratch.
func (m *Machine) ImageCacheStats() (hits, misses uint64) {
	return m.imageHits.Load(), m.imageMisses.Load()
}

// FSWindow observes which filesystem paths are mutated while it is
// open — the O(dirty) fast path conformance oracles use instead of
// walking the whole tree before and after a run.
type FSWindow struct {
	w *vfs.ChangeWindow
}

// OpenFSWindow starts recording mutated paths. Close the window when
// done; open windows pin the mutation journal.
func (m *Machine) OpenFSWindow() *FSWindow {
	return &FSWindow{w: m.sys.K.FS.OpenChangeWindow()}
}

// Touched returns the distinct absolute paths mutated since the window
// opened, in first-touch order. Touched is conservative: it reports
// where writes landed, not whether content ended up different.
func (w *FSWindow) Touched() []string { return w.w.Touched() }

// Close stops recording and releases the window's hold on the journal.
func (w *FSWindow) Close() { w.w.Close() }
