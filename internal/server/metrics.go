package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/shill"
)

// metrics is the server's operational accounting; everything here is
// exported by GET /metrics in Prometheus text format.
type metrics struct {
	requests         atomic.Int64 // POST /v1/run received
	denied           atomic.Int64 // runs whose result carried denials
	canceled         atomic.Int64 // runs stopped by deadline/disconnect
	rejectedQueue    atomic.Int64 // 429: global queue full
	rejectedQuota    atomic.Int64 // 429: tenant quota
	rejectedMachines atomic.Int64 // 429: machine registry full
	evictions        atomic.Int64 // LRU machine evictions
	restoresWarm     atomic.Int64 // machine boots from the tenant's own evicted snapshot
	restoresCold     atomic.Int64 // machine boots from scratch or the golden image
	imagesDropped    atomic.Int64 // retained snapshots forgotten at the MaxImages bound
	restoresSeeded   atomic.Int64 // tenants seeded via POST /v1/admin/restore (migration imports)
	activeRuns       atomic.Int64 // runs currently executing

	// Latency histograms (initHistograms). runSeconds is labelled by
	// outcome; compileSeconds by parse-cache disposition, fed from the
	// compile spans of each run's trace (the single source of truth).
	runSeconds     *histVec
	queueWait      *histogram
	compileSeconds *histVec
}

// Run outcome labels for runSeconds.
const (
	outcomeAllow  = "allow"
	outcomeDeny   = "deny"
	outcomeCancel = "cancel"
	outcomeError  = "error"
)

func (m *metrics) initHistograms() {
	m.runSeconds = newHistVec("outcome", outcomeAllow, outcomeDeny, outcomeCancel, outcomeError)
	m.queueWait = newHistogram(latencyBuckets)
	m.compileSeconds = newHistVec("cache", "miss", "hit")
}

// handleMetrics renders the serving counters plus every tenant
// machine's Stats() (sessions, procs, live sockets, audit sequence) in
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	uptime := time.Since(s.start).Seconds()
	total := s.met.requests.Load()
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	counter("shilld_requests_total", "run requests received", total)
	counter("shilld_runs_denied_total", "runs whose result carried audit denials", s.met.denied.Load())
	counter("shilld_runs_canceled_total", "runs stopped by deadline or client disconnect", s.met.canceled.Load())
	counter("shilld_rejected_queue_total", "requests rejected with 429 because the queue was full", s.met.rejectedQueue.Load())
	counter("shilld_rejected_quota_total", "requests rejected with 429 at the tenant quota", s.met.rejectedQuota.Load())
	counter("shilld_rejected_machines_total", "requests rejected with 429 because the machine registry was full", s.met.rejectedMachines.Load())
	counter("shilld_machine_evictions_total", "LRU evictions of idle tenant machines", s.met.evictions.Load())
	fmt.Fprintf(w, "# HELP shilld_restores_total tenant machine boots by kind (warm: the tenant's own evicted snapshot; cold: scratch or the golden image)\n# TYPE shilld_restores_total counter\n")
	fmt.Fprintf(w, "shilld_restores_total{kind=\"warm\"} %d\n", s.met.restoresWarm.Load())
	fmt.Fprintf(w, "shilld_restores_total{kind=\"cold\"} %d\n", s.met.restoresCold.Load())
	counter("shilld_tenant_images_dropped_total", "retained snapshots forgotten at the MaxImages bound (the dropped tenant's next readmission boots cold, losing its state)", s.met.imagesDropped.Load())
	counter("shilld_admin_restores_total", "tenants seeded from an imported image via /v1/admin/restore (migrations onto this replica)", s.met.restoresSeeded.Load())
	gauge("shilld_tenant_images", "evicted tenants' snapshots retained for warm readmission", s.RetainedImages())
	gauge("shilld_active_runs", "runs currently executing", s.met.activeRuns.Load())
	gauge("shilld_queue_depth", "admitted runs waiting for a global slot", s.queued.Load())
	gauge("shilld_uptime_seconds", "seconds since the server started", fmt.Sprintf("%.3f", uptime))
	rps := 0.0
	if uptime > 0 {
		rps = float64(total) / uptime
	}
	gauge("shilld_requests_per_second", "requests_total averaged over uptime", fmt.Sprintf("%.3f", rps))

	exposeHistVec(w, "shilld_run_seconds", "run latency by outcome", s.met.runSeconds)
	fmt.Fprintf(w, "# HELP shilld_queue_wait_seconds time admitted runs waited for a global slot\n# TYPE shilld_queue_wait_seconds histogram\n")
	exposeHistogram(w, "shilld_queue_wait_seconds", "", s.met.queueWait)
	exposeHistVec(w, "shilld_compile_seconds", "script parse latency by parse-cache disposition", s.met.compileSeconds)

	// Per-tenant machine stats, stable order.
	stats := s.MachineStats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)

	perTenant := func(name, help string, v func(shill.MachineStats) any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, n := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %v\n", name, n, v(stats[n]))
		}
	}
	perTenant("shilld_machine_sessions", "pooled session slots per tenant machine",
		func(st shill.MachineStats) any { return st.Sessions })
	perTenant("shilld_machine_idle_sessions", "idle pooled session slots per tenant machine",
		func(st shill.MachineStats) any { return st.IdleSessions })
	perTenant("shilld_machine_procs", "live kernel processes per tenant machine",
		func(st shill.MachineStats) any { return st.Procs })
	perTenant("shilld_machine_live_sockets", "live sockets on each tenant machine's network stack",
		func(st shill.MachineStats) any { return st.LiveSockets })
	perTenant("shilld_machine_audit_seq", "audit log sequence point per tenant machine",
		func(st shill.MachineStats) any { return st.AuditSeq })
}
