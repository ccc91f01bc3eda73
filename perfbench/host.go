package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/prof"
	"repro/shill"
)

// programDefaults reports the defaults a machine built with no options
// runs with, read from the machine itself.
func programDefaults() map[string]any {
	m, err := shill.NewMachine()
	if err != nil {
		return map[string]any{"defaults_error": err.Error()}
	}
	defer m.Close()
	out := map[string]any{
		"engine": m.Engine().String(),
		"trace":  m.Tracer().Enabled(),
	}
	if img, err := m.Snapshot(); err == nil {
		out["audit"] = !img.Meta().Config.AuditDisabled
		out["kernel_module"] = img.Meta().Config.InstallModule
	}
	return out
}

// sourceDigest hashes the Go sources and module files under root, the
// checkout carrying no VCS metadata to name its commit by.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads, from /proc/stat in clock ticks, the CPU time this
// VM's processes ran or asked to run (user, system, interrupts and
// steal) and the part of it the hypervisor stole, giving the CPUs to
// someone else (zeros where /proc/stat is unavailable).
func cpuTimes() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return busy, steal
}

// stolen runs f and returns the share of the CPU time asked for
// meanwhile that the hypervisor stole.
func stolen(f func()) float64 {
	b0, s0 := cpuTimes()
	f()
	b1, s1 := cpuTimes()
	if b1 <= b0 {
		return 0
	}
	return float64(s1-s0) / float64(b1-b0)
}

// profTotals are the Figure 10 categories of a machine's profile.
type profTotals struct {
	setup, exec, contract, audit struct {
		count int64
		total time.Duration
	}
}

func (e *gradeEnv) profSamples() profTotals {
	e.m.FlushAuditProf()
	var t profTotals
	for _, s := range e.m.Prof().Samples() {
		switch s.Category {
		case prof.SandboxSetup:
			t.setup.count, t.setup.total = s.Count, s.Total
		case prof.SandboxExec:
			t.exec.count, t.exec.total = s.Count, s.Total
		case prof.ContractCheck:
			t.contract.count, t.contract.total = s.Count, s.Total
		case prof.AuditEmit:
			t.audit.count, t.audit.total = s.Count, s.Total
		}
	}
	return t
}
