package shill

import "repro/internal/prof"

// MachineStats is a point-in-time snapshot of a machine's resource
// accounting — what a serving frontend (shilld's /metrics) exports and
// what leak-checking tests compare before/after a workload. All
// counters are cheap to read; none stop the machine.
type MachineStats struct {
	// Sessions is the number of pooled session slots ever created
	// (the default session is not counted).
	Sessions int `json:"sessions"`
	// IdleSessions is how many of those slots are closed and waiting
	// for reuse — the accounting an admission scheduler needs to know
	// whether a new run will recycle a session or grow the pool.
	IdleSessions int `json:"idleSessions"`
	// ActiveSessions is Sessions - IdleSessions: slots currently owned
	// by a caller.
	ActiveSessions int `json:"activeSessions"`
	// Procs is the number of live processes in the kernel's table.
	Procs int `json:"procs"`
	// LiveSockets is the number of sockets open on the network stack.
	LiveSockets int `json:"liveSockets"`
	// Listeners is the number of bound listening addresses.
	Listeners int `json:"listeners"`
	// AuditSeq is the audit log's global sequence point (total events
	// recorded since boot).
	AuditSeq uint64 `json:"auditSeq"`
	// Sandboxes is how many sandboxes the machine has created.
	Sandboxes int64 `json:"sandboxes"`
	// CompileCacheHits/CompileCacheMisses count parse-cache lookups
	// of the machine's scripts and required modules.
	CompileCacheHits   uint64 `json:"compileCacheHits"`
	CompileCacheMisses uint64 `json:"compileCacheMisses"`
	// ImageCacheHits/ImageCacheMisses report whether booting this
	// machine reused an already-flattened base image (hit) or had to
	// flatten it (miss); both zero for machines built from scratch.
	ImageCacheHits   uint64 `json:"imageCacheHits"`
	ImageCacheMisses uint64 `json:"imageCacheMisses"`
}

// Stats snapshots the machine's resource accounting.
func (m *Machine) Stats() MachineStats {
	m.mu.Lock()
	sessions := len(m.sessions)
	idle := len(m.free)
	m.mu.Unlock()
	compileHits, compileMisses := m.parseCache.Stats()
	return MachineStats{
		Sessions:       sessions,
		IdleSessions:   idle,
		ActiveSessions: sessions - idle,
		Procs:          len(m.sys.K.Procs()),
		LiveSockets:    m.sys.K.Net.LiveSockets(),
		Listeners:      len(m.sys.K.Net.Listeners()),
		AuditSeq:       m.sys.Audit().Seq(),
		Sandboxes:      m.sys.Prof.Count(prof.SandboxSetup),

		CompileCacheHits:   compileHits,
		CompileCacheMisses: compileMisses,
		ImageCacheHits:     m.imageHits.Load(),
		ImageCacheMisses:   m.imageMisses.Load(),
	}
}

// IdleSessions reports how many pooled session slots are free for
// reuse by the next NewSession.
func (m *Machine) IdleSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// SessionCount reports how many pooled session slots exist in total.
func (m *Machine) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}
