// Command benchfig regenerates the paper's evaluation tables and figures
// (§4) against the simulated machine, printing rows in the same shape
// the paper reports: mean wall time with a 95% confidence interval per
// configuration (Figure 9), the performance breakdown (Figure 10), the
// syscall microbenchmarks (Figure 11), the resource-protection matrix
// (Figure 7), the case-study script line counts (§4.1), and the §4.2
// lookup-depth sweep. It is the only copy of these measurements; the
// serving benchmark is perfbench (BENCHMARK.json).
//
// Usage:
//
//	benchfig -fig 9            # case-study wall times
//	benchfig -fig 10           # performance breakdown
//	benchfig -fig 11           # syscall microbenchmarks
//	benchfig -fig 7            # protection matrix
//	benchfig -fig loc          # script line counts vs the paper
//	benchfig -fig sweep        # open-read-close overhead vs path depth
//	benchfig -fig parallel     # multi-session throughput, audit/trace on vs off
//	benchfig -fig 9 -full      # paper-scale workloads (slow)
//	benchfig -fig 9 -reps 20   # more repetitions
//	benchfig -fig parallel -json BENCH_parallel.json
//	benchfig -fig parallel -pprof BENCH_parallel  # + .cpu.pprof/.heap.pprof
//
// -json writes a machine-readable result file alongside the printed
// table (supported by -fig parallel); CI uploads it as an artifact so
// the performance trajectory accumulates across commits.
// -pprof PREFIX captures a CPU profile of the whole figure plus an
// end-of-run heap profile to PREFIX.cpu.pprof and PREFIX.heap.pprof,
// next to the -json document — `go tool pprof` then names what the
// figure actually spent its time on.
//
// -fig parallel is also an acceptance gate: it exits nonzero if the
// tracing overhead (trace on vs off, audit on in both arms) reaches 5%,
// the same bar the audit subsystem was held to. Every figure exits
// nonzero if a run or the staging of its workload fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/priv"
	"repro/shill"
)

func main() {
	fig := flag.String("fig", "9", "figure to regenerate: 7, 9, 10, 11, loc, sweep, parallel")
	reps := flag.Int("reps", 5, "repetitions per configuration (the paper used 50)")
	full := flag.Bool("full", false, "use paper-scale workloads")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file (fig parallel)")
	pprofPrefix := flag.String("pprof", "", "capture cpu/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	var stopProfiles func()
	if *pprofPrefix != "" {
		stop, err := startProfiles(*pprofPrefix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: -pprof: %v\n", err)
			os.Exit(1)
		}
		stopProfiles = stop
	}

	// Figures that gate (parallel's trace-overhead bar) report failure
	// through ok instead of os.Exit so the deferred profile capture still
	// lands — a failed gate is exactly when the profile is wanted.
	ok := true
	switch *fig {
	case "7":
		figure7()
	case "9":
		figure9(*reps, *full)
	case "10":
		figure10(*full)
	case "11":
		figure11(*reps)
	case "loc":
		figureLoC()
	case "sweep":
		figureSweep(*reps)
	case "parallel":
		ok = figureParallel(*reps, *jsonPath)
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if stopProfiles != nil {
		stopProfiles()
	}
	if !ok {
		os.Exit(1)
	}
}

// startProfiles begins a CPU profile and returns a stop function that
// finishes it and writes a heap profile beside it.
func startProfiles(prefix string) (func(), error) {
	cpuPath := prefix + ".cpu.pprof"
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		heapPath := prefix + ".heap.pprof"
		hf, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: -pprof: %v\n", err)
			return
		}
		runtime.GC() // up-to-date allocation stats
		if err := pprof.WriteHeapProfile(hf); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: -pprof: %v\n", err)
		}
		hf.Close()
		fmt.Printf("wrote %s and %s\n", cpuPath, heapPath)
	}, nil
}

// ctx: benchfig drives the machine without deadlines; per-run
// cancellation belongs to embedders and the CLI tools.
var ctx = context.Background()

// newMachine builds a benchmark machine, panicking on staging failure.
func newMachine(opts ...shill.Option) *shill.Machine {
	m, err := shill.NewMachine(opts...)
	if err != nil {
		panic("benchfig: " + err.Error())
	}
	return m
}

// --- statistics ---

type sample struct{ times []time.Duration }

func (s *sample) add(d time.Duration) { s.times = append(s.times, d) }

// meanCI returns the mean and half-width of a 95% confidence interval.
func (s *sample) meanCI() (time.Duration, time.Duration) {
	n := len(s.times)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, t := range s.times {
		sum += t.Seconds()
	}
	mean := sum / float64(n)
	if n == 1 {
		return time.Duration(mean * float64(time.Second)), 0
	}
	var ss float64
	for _, t := range s.times {
		d := t.Seconds() - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	ci := 1.96 * sd / math.Sqrt(float64(n))
	return time.Duration(mean * float64(time.Second)), time.Duration(ci * float64(time.Second))
}

func row(name string, samples map[string]*sample, configs []string) {
	fmt.Printf("%-12s", name)
	base, _ := samples[configs[0]].meanCI()
	for _, cfg := range configs {
		mean, ci := samples[cfg].meanCI()
		slow := ""
		if cfg != configs[0] && base > 0 {
			slow = fmt.Sprintf(" (%.2fx)", mean.Seconds()/base.Seconds())
		}
		fmt.Printf("  %12v ±%-10v%-8s", mean.Round(time.Microsecond), ci.Round(time.Microsecond), slow)
	}
	fmt.Println()
}

// --- Figure 9 ---

func figure9(reps int, full bool) {
	fmt.Println("Figure 9: case-study wall times (mean ± 95% CI; paper Figure 9)")
	configs := []string{"Baseline", "SHILL installed", "Sandboxed", "SHILL version"}
	fmt.Printf("%-12s", "benchmark")
	for _, c := range configs {
		fmt.Printf("  %-32s", c)
	}
	fmt.Println()

	grading := shill.DefaultGrading
	find := shill.DefaultFind
	apache := shill.ApacheWorkload{FileMB: 2, Requests: 20, Concurrency: 8}
	emacs := shill.DefaultEmacs
	if full {
		grading = shill.FullScaleGrading
		find = shill.FullScaleFind
		apache = shill.ApacheWorkload{FileMB: 50, Requests: 500, Concurrency: 100}
		emacs = shill.EmacsWorkload{SrcKB: 2048}
	}
	grading.Malicious = false

	type runner struct {
		name  string
		modes map[string]func() (*shill.Machine, func() error)
	}
	mkGrading := func(install bool, mode shill.Mode) func() (*shill.Machine, func() error) {
		return func() (*shill.Machine, func() error) {
			s := newMachine(shill.WithModule(install), shill.WithConsoleLimit(1<<20))
			s.BuildGradingCourse(grading)
			return s, func() error {
				s.ResetGradingOutputs()
				s.ConsoleText()
				return s.RunGrading(ctx, mode)
			}
		}
	}
	mkFind := func(install bool, mode shill.Mode) func() (*shill.Machine, func() error) {
		return func() (*shill.Machine, func() error) {
			s := newMachine(shill.WithModule(install), shill.WithConsoleLimit(1<<20))
			s.BuildSrcTree(find)
			return s, func() error { return s.RunFind(ctx, mode) }
		}
	}
	mkApache := func(install bool, mode shill.Mode) func() (*shill.Machine, func() error) {
		return func() (*shill.Machine, func() error) {
			s := newMachine(shill.WithModule(install), shill.WithConsoleLimit(1<<20))
			s.BuildWWW(apache)
			return s, func() error {
				_, err := s.RunApache(ctx, mode, apache)
				return err
			}
		}
	}
	mkEmacs := func(install bool, mode shill.Mode, shillVer bool) func() (*shill.Machine, func() error) {
		return func() (*shill.Machine, func() error) {
			s := newMachine(shill.WithModule(install), shill.WithConsoleLimit(1<<20))
			s.BuildEmacsOrigin(emacs)
			if _, err := s.StartOrigin(); err != nil {
				panic(err)
			}
			return s, func() error {
				s.ResetEmacsOutputs()
				s.ConsoleText()
				if shillVer {
					return s.RunEmacsShill(ctx)
				}
				for _, step := range shill.AllEmacsSteps {
					if err := s.RunEmacsStep(ctx, step, mode); err != nil {
						return fmt.Errorf("%s: %w", step, err)
					}
				}
				return nil
			}
		}
	}

	benchmarks := []runner{
		{"Grading", map[string]func() (*shill.Machine, func() error){
			"Baseline":        mkGrading(false, shill.ModeAmbient),
			"SHILL installed": mkGrading(true, shill.ModeAmbient),
			"Sandboxed":       mkGrading(true, shill.ModeSandboxed),
			"SHILL version":   mkGrading(true, shill.ModeShill),
		}},
		{"Emacs", map[string]func() (*shill.Machine, func() error){
			"Baseline":        mkEmacs(false, shill.ModeAmbient, false),
			"SHILL installed": mkEmacs(true, shill.ModeAmbient, false),
			"Sandboxed":       mkEmacs(true, shill.ModeSandboxed, false),
			"SHILL version":   mkEmacs(true, shill.ModeShill, true),
		}},
		{"Apache", map[string]func() (*shill.Machine, func() error){
			"Baseline":        mkApache(false, shill.ModeAmbient),
			"SHILL installed": mkApache(true, shill.ModeAmbient),
			"Sandboxed":       mkApache(true, shill.ModeSandboxed),
			"SHILL version":   mkApache(true, shill.ModeSandboxed), // the apache script IS the SHILL version
		}},
		{"Find", map[string]func() (*shill.Machine, func() error){
			"Baseline":        mkFind(false, shill.ModeAmbient),
			"SHILL installed": mkFind(true, shill.ModeAmbient),
			"Sandboxed":       mkFind(true, shill.ModeSandboxed),
			"SHILL version":   mkFind(true, shill.ModeShill),
		}},
	}

	for _, b := range benchmarks {
		samples := map[string]*sample{}
		for _, cfg := range configs {
			samples[cfg] = &sample{}
			sys, run := b.modes[cfg]()
			for i := 0; i < reps; i++ {
				start := time.Now()
				if err := run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: %s/%s: %v\n", b.name, cfg, err)
					os.Exit(1)
				}
				samples[cfg].add(time.Since(start))
			}
			sys.Close()
		}
		row(b.name, samples, configs)
	}
	fmt.Println("\nEmacs sub-benchmarks (Baseline / SHILL installed / Sandboxed):")
	subConfigs := []string{"Baseline", "SHILL installed", "Sandboxed"}
	for _, step := range shill.AllEmacsSteps {
		samples := map[string]*sample{}
		for _, cfg := range subConfigs {
			install := cfg != "Baseline"
			mode := shill.ModeAmbient
			if cfg == "Sandboxed" {
				mode = shill.ModeSandboxed
			}
			s := newMachine(shill.WithModule(install), shill.WithConsoleLimit(1<<20))
			s.BuildEmacsOrigin(emacs)
			stop, err := s.StartOrigin()
			if err != nil {
				panic(err)
			}
			// Prepare prerequisite state ambiently.
			for _, prior := range shill.AllEmacsSteps {
				if prior == step {
					break
				}
				if err := s.RunEmacsStep(ctx, prior, shill.ModeAmbient); err != nil {
					panic(err)
				}
			}
			samples[cfg] = &sample{}
			for i := 0; i < reps; i++ {
				resetEmacsStep(s, step)
				s.ConsoleText()
				start := time.Now()
				if err := s.RunEmacsStep(ctx, step, mode); err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: %s/%s: %v\n", step, cfg, err)
					os.Exit(1)
				}
				samples[cfg].add(time.Since(start))
			}
			stop()
			s.Close()
		}
		row(string(step), samples, subConfigs)
	}
}

func resetEmacsStep(s *shill.Machine, step shill.EmacsStep) {
	switch step {
	case shill.StepDownload:
		s.RemovePath("/home/user/Downloads/emacs-24.3.tar")
	case shill.StepUntar:
		s.RemoveTree("/home/user/build/emacs-24.3")
	case shill.StepConfigure:
		s.RemovePath("/home/user/build/emacs-24.3/Makefile")
		s.RemovePath("/home/user/build/emacs-24.3/config.status")
	case shill.StepMake:
		s.RemovePath("/home/user/build/emacs-24.3/emacs")
	case shill.StepInstall:
		s.RemoveTree("/home/user/.local/bin")
		s.RemoveTree("/home/user/.local/share")
	case shill.StepUninstall:
		s.RunEmacsStep(ctx, shill.StepInstall, shill.ModeAmbient)
	}
}

// --- Figure 10 ---

func figure10(full bool) {
	fmt.Println("Figure 10: performance breakdown (paper Figure 10, plus audit overhead)")
	fmt.Printf("%-12s %12s %12s %12s %12s %12s %12s %10s\n",
		"benchmark", "total", "startup", "sbx setup", "sbx exec", "audit", "remaining", "sandboxes")

	grading := shill.DefaultGrading
	find := shill.DefaultFind
	if full {
		grading = shill.FullScaleGrading
		find = shill.FullScaleFind
	}
	grading.Malicious = false

	type c struct {
		name string
		prep func(*shill.Machine)
		run  func(*shill.Machine) error
	}
	cases := []c{
		{"Uninstall", func(s *shill.Machine) {
			s.BuildEmacsOrigin(shill.DefaultEmacs)
			if _, err := s.StartOrigin(); err != nil {
				panic(err)
			}
			for _, step := range shill.AllEmacsSteps[:5] {
				if err := s.RunEmacsStep(ctx, step, shill.ModeAmbient); err != nil {
					panic(err)
				}
			}
		}, func(s *shill.Machine) error {
			return s.RunEmacsStep(ctx, shill.StepUninstall, shill.ModeSandboxed)
		}},
		{"Download", func(s *shill.Machine) {
			s.BuildEmacsOrigin(shill.DefaultEmacs)
			if _, err := s.StartOrigin(); err != nil {
				panic(err)
			}
		}, func(s *shill.Machine) error {
			s.RemovePath("/home/user/Downloads/emacs-24.3.tar")
			return s.RunEmacsStep(ctx, shill.StepDownload, shill.ModeSandboxed)
		}},
		{"Grading", func(s *shill.Machine) {
			s.BuildGradingCourse(grading)
		}, func(s *shill.Machine) error {
			s.ResetGradingOutputs()
			return s.RunGrading(ctx, shill.ModeShill)
		}},
		{"Find", func(s *shill.Machine) {
			s.BuildSrcTree(find)
		}, func(s *shill.Machine) error {
			return s.RunFind(ctx, shill.ModeShill)
		}},
	}
	for _, cs := range cases {
		s := newMachine(shill.WithConsoleLimit(1 << 20))
		cs.prep(s)
		s.Prof().Reset()
		start := time.Now()
		if err := cs.run(s); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", cs.name, err)
			os.Exit(1)
		}
		s.FlushAuditProf()
		bd := s.Prof().Report(time.Since(start))
		fmt.Printf("%-12s %12v %12v %12v %12v %12v %12v %10d\n",
			cs.name,
			bd.Total.Round(time.Microsecond),
			bd.Startup.Round(time.Microsecond),
			bd.SandboxSetup.Round(time.Microsecond),
			bd.SandboxExec.Round(time.Microsecond),
			bd.AuditEmit.Round(time.Microsecond),
			bd.Remaining.Round(time.Microsecond),
			bd.Sandboxes)
		s.Close()
	}
}

// --- Figure 11 ---

func figure11(reps int) {
	fmt.Println("Figure 11: syscall microbenchmarks, SHILL installed vs Sandboxed (paper Figure 11)")
	fmt.Printf("%-24s %14s %14s %14s\n", "operation", "installed", "sandboxed", "difference")

	// iters is how many operations one rep runs and divides its time by.
	type micro struct {
		name  string
		iters int
		run   func(p *kernel.Proc, n int) error
	}
	micros := []micro{
		{"pread-1B", 100000, func(p *kernel.Proc, n int) error {
			fd, err := p.OpenAt(kernel.AtCWD, "/data/file.bin", kernel.ORead, 0)
			if err != nil {
				return err
			}
			defer p.Close(fd)
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				if _, err := p.Pread(fd, buf, 0); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pread-1MB", 1000, func(p *kernel.Proc, n int) error {
			fd, err := p.OpenAt(kernel.AtCWD, "/data/file1m.bin", kernel.ORead, 0)
			if err != nil {
				return err
			}
			defer p.Close(fd)
			buf := make([]byte, 1<<20)
			for i := 0; i < n; i++ {
				if _, err := p.Pread(fd, buf, 0); err != nil {
					return err
				}
			}
			return nil
		}},
		{"create-unlink", 100000, func(p *kernel.Proc, n int) error {
			for i := 0; i < n; i++ {
				fd, err := p.OpenAt(kernel.AtCWD, "/work/tmp", kernel.OCreate|kernel.OWrite, 0o644)
				if err != nil {
					return err
				}
				p.Close(fd)
				if err := p.UnlinkAt(kernel.AtCWD, "/work/tmp", false); err != nil {
					return err
				}
			}
			return nil
		}},
		{"open-read-close (1)", 100000, func(p *kernel.Proc, n int) error {
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				fd, err := p.OpenAt(kernel.AtCWD, "file.bin", kernel.ORead, 0)
				if err != nil {
					return err
				}
				p.Read(fd, buf)
				p.Close(fd)
			}
			return nil
		}},
		{"open-read-close (5)", 100000, func(p *kernel.Proc, n int) error {
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				fd, err := p.OpenAt(kernel.AtCWD, "a/b/c/d/deep.bin", kernel.ORead, 0)
				if err != nil {
					return err
				}
				p.Read(fd, buf)
				p.Close(fd)
			}
			return nil
		}},
	}
	for _, m := range micros {
		perOp := map[bool]*sample{false: {}, true: {}}
		for _, sandboxed := range []bool{false, true} {
			for r := 0; r < reps; r++ {
				p, err := microProc(sandboxed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", m.name, err)
					os.Exit(1)
				}
				start := time.Now()
				if err := m.run(p, m.iters); err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", m.name, err)
					os.Exit(1)
				}
				perOp[sandboxed].add(time.Since(start) / time.Duration(m.iters))
				p.Kernel().Shutdown()
			}
		}
		inst, _ := perOp[false].meanCI()
		sbx, _ := perOp[true].meanCI()
		fmt.Printf("%-24s %14v %14v %14v\n", m.name, inst, sbx, sbx-inst)
	}
}

// microProc builds the world the syscall microbenchmarks walk and
// returns a proc whose working directory is /data: an ordinary one
// ("SHILL installed") or one inside an entered session holding
// capabilities for the benchmark objects ("Sandboxed").
func microProc(sandboxed bool) (*kernel.Proc, error) {
	k := kernel.New()
	k.InstallShillModule()
	for _, f := range []struct {
		path string
		data []byte
	}{
		{"/data/file1m.bin", make([]byte, 1<<20)},
		{"/data/file.bin", []byte("0123456789")},
		{"/data/a/b/c/d/deep.bin", []byte("0123456789")},
	} {
		if _, err := k.FS.WriteFile(f.path, f.data, 0o666, 0, 0); err != nil {
			return nil, err
		}
	}
	if _, err := k.FS.MkdirAll("/work", 0o777, 0, 0); err != nil {
		return nil, err
	}
	p := k.NewProc(0, 0)
	if !sandboxed {
		if err := p.Chdir("/data"); err != nil {
			return nil, err
		}
		return p, nil
	}
	child, err := p.Fork()
	if err != nil {
		return nil, err
	}
	if _, err := child.ShillInit(kernel.SessionOptions{}); err != nil {
		return nil, err
	}
	// A read-everything capability on /data (lookup inherits) and full
	// create rights on /work, as if the sandbox had been handed those two
	// directory capabilities.
	for _, g := range []struct {
		path  string
		grant *priv.Grant
	}{
		{"/", priv.NewGrant(priv.RLookup, priv.RStat, priv.RPath)},
		{"/data", priv.GrantOf(priv.ReadOnlyDir)},
		{"/work", priv.GrantOf(priv.NewSet(
			priv.RLookup, priv.RContents, priv.RStat, priv.RPath,
			priv.RCreateFile, priv.RUnlinkFile, priv.RWrite, priv.RAppend))},
	} {
		if err := child.ShillGrant(k.FS.MustResolve(g.path), g.grant); err != nil {
			return nil, err
		}
	}
	// The working directory is set while the session still accepts
	// configuration, as sandbox.Exec does.
	if err := child.Chdir("/data"); err != nil {
		return nil, err
	}
	if err := child.ShillEnter(); err != nil {
		return nil, err
	}
	return child, nil
}

// --- Figure 7 conformance ---

func figure7() {
	fmt.Println("Figure 7: system resources and how each is protected (verified against the implementation)")
	fmt.Printf("%-28s %-16s %-16s\n", "Resource", "Language", "Sandbox")
	rows := [][3]string{
		{"Directories, files, links", "Capabilities", "Capabilities"},
		{"Pipes", "Capabilities", "Capabilities"},
		{"Character Devices", "Capabilities", "Capabilities*"},
		{"Sockets (IP, Unix)", "Capabilities", "Capabilities"},
		{"Sockets (other)", "Denied", "Denied"},
		{"Processes", "ulimit", "Confinement"},
		{"Sysctl", "Denied", "Read-only"},
		{"Kernel environment", "Denied", "Denied"},
		{"Kernel modules", "Denied", "Denied"},
		{"POSIX IPC", "Denied", "Denied"},
		{"System V IPC", "Denied", "Denied"},
	}
	for _, r := range rows {
		fmt.Printf("%-28s %-16s %-16s\n", r[0], r[1], r[2])
	}
	fmt.Println("*: character-device reads/writes are not interposed on (§3.2.3 limitation, reproduced)")
	fmt.Println("\nrun `go test ./internal/conformance` to verify each row mechanically")
}

// --- LoC table ---

func figureLoC() {
	fmt.Println("Case-study script sizes, this reproduction vs the paper (§4.1)")
	fmt.Printf("%-28s %8s %10s %12s\n", "script", "lines", "contract", "paper")
	type entry struct {
		name  string
		file  string
		isCap bool
		paper string
	}
	entries := []entry{
		{"grade.sh (Bash)", "grade.sh", false, "61"},
		{"grade_sandbox.cap", "grade_sandbox.cap", true, "22 (14 contract)"},
		{"grade_sandbox ambient", "grade_sandbox.ambient", false, "22"},
		{"grade.cap (pure SHILL)", "grade.cap", true, "78 (6 contract)"},
		{"grade ambient", "grade.ambient", false, "16"},
		{"pkg_emacs.cap", "pkg_emacs.cap", true, "91 (45 contract)"},
		{"pkg_emacs ambient", "pkg_emacs.ambient", false, "114"},
		{"apache.cap", "apache.cap", true, "30 (20 contract)"},
		{"apache ambient", "apache.ambient", false, "27"},
		{"findgrep.cap", "findgrep.cap", true, "27 (5 contract)"},
		{"findgrep ambient", "findgrep.ambient", false, "11"},
		{"findgrep_fine.cap", "findgrep_fine.cap", true, "60 (11 contract)"},
		{"findgrep_fine ambient", "findgrep_fine.ambient", false, "9"},
	}
	files := shill.ScriptFiles()
	for _, e := range entries {
		total, contractLines := countScript(files[e.file])
		c := "-"
		if e.isCap {
			c = fmt.Sprint(contractLines)
		}
		fmt.Printf("%-28s %8d %10s   %-20s\n", e.name, total, c, e.paper)
	}
}

// countScript counts non-blank, non-comment lines, and the subset that
// belongs to provide contracts.
func countScript(src string) (total, contractLines int) {
	inProvide := false
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		total++
		if strings.HasPrefix(t, "provide ") {
			inProvide = true
		}
		if inProvide {
			contractLines++
			if strings.HasSuffix(t, ";") {
				inProvide = false
			}
		}
	}
	return total, contractLines
}

// --- depth sweep ---

func figureSweep(reps int) {
	fmt.Println("open-read-close overhead vs path depth (§4.2: \"overhead increases linearly\")")
	fmt.Printf("%-8s %14s %14s %14s\n", "depth", "installed", "sandboxed", "difference")
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8}
	iters := 50000
	for _, depth := range depths {
		perOp := map[bool]*sample{false: {}, true: {}}
		for _, sandboxed := range []bool{false, true} {
			for r := 0; r < reps; r++ {
				rel := ""
				for i := 1; i < depth; i++ {
					rel += fmt.Sprintf("d%d/", i)
				}
				rel += "leaf.bin"
				p, err := microProc(sandboxed)
				if err == nil {
					_, err = p.Kernel().FS.WriteFile("/data/"+rel, []byte("x"), 0o666, 0, 0)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: depth %d: %v\n", depth, err)
					os.Exit(1)
				}
				buf := make([]byte, 1)
				start := time.Now()
				for i := 0; i < iters; i++ {
					fd, err := p.OpenAt(kernel.AtCWD, rel, kernel.ORead, 0)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchfig: depth %d: %v\n", depth, err)
						os.Exit(1)
					}
					p.Read(fd, buf)
					p.Close(fd)
				}
				perOp[sandboxed].add(time.Since(start) / time.Duration(iters))
				p.Kernel().Shutdown()
			}
		}
		inst, _ := perOp[false].meanCI()
		sbx, _ := perOp[true].meanCI()
		fmt.Printf("%-8d %14v %14v %14v\n", depth, inst, sbx, sbx-inst)
	}
}

// --- parallel multi-session throughput ---

// parallelRow is one measurement in the machine-readable output.
type parallelRow struct {
	Sessions      int     `json:"sessions"`
	Audit         bool    `json:"audit"`
	Trace         bool    `json:"trace"`
	ScriptsPerSec float64 `json:"scripts_per_sec"`
	MeanSeconds   float64 `json:"mean_seconds"`
	CISeconds     float64 `json:"ci95_seconds"`
}

// parallelResult is the -json document CI archives per commit.
type parallelResult struct {
	Benchmark       string             `json:"benchmark"`
	Reps            int                `json:"reps"`
	SpawnLatencyUS  int                `json:"spawn_latency_us"`
	Students        int                `json:"students"`
	Tests           int                `json:"tests"`
	Rows            []parallelRow      `json:"rows"`
	AuditOverheadPc map[string]float64 `json:"audit_overhead_pct"`
	TraceOverheadPc map[string]float64 `json:"trace_overhead_pct"`
}

// parArm is one machine configuration in the parallel figure. The
// production shape (audit on, trace on) is the baseline; the other two
// arms each switch one subsystem off to price it.
type parArm struct{ audit, trace bool }

var parArms = []parArm{
	{audit: true, trace: true},  // production shape
	{audit: false, trace: true}, // prices the audit trail
	{audit: true, trace: false}, // prices request tracing
}

// traceOverheadBarPct is the acceptance bar: request tracing (which is
// on by default) must cost less than this against the trace-off arm,
// the same bar the audit subsystem was held to when it landed.
const traceOverheadBarPct = 5.0

// figureParallel measures aggregate grading throughput across 1/4/16
// concurrent sessions under three arms — audit+trace on (the production
// default), audit off, and trace off — plus the overhead deltas both the
// audit and trace subsystems' acceptance bars (<5%) are judged against.
// Each session grades a private course through its own runtime process
// and console against one kernel. The simulated spawn latency stands in
// for the testbed's per-exec cost (the simulator otherwise collapses
// fork/exec to ~0), so scripts/sec shows how well sessions overlap
// per-sandbox blocking: it must rise with the session count. Returns
// false (caller exits nonzero) if the tracing overhead, averaged across
// the session counts to damp single-point scheduler noise, reaches the
// bar.
func figureParallel(reps int, jsonPath string) bool {
	if reps < 1 {
		reps = 1 // below this the warmup discard would leave no samples
	}
	fmt.Println("Parallel grading throughput: N concurrent sessions; audit and trace arms")
	fmt.Printf("%-10s %14s %14s %14s %11s %11s\n",
		"sessions", "audit+trace", "no audit", "no trace", "audit-ovh", "trace-ovh")

	const latency = 500 * time.Microsecond
	w := shill.GradingWorkload{Students: 4, Tests: 2}
	res := parallelResult{
		Benchmark: "parallel-grading", Reps: reps,
		SpawnLatencyUS: int(latency / time.Microsecond),
		Students:       w.Students, Tests: w.Tests,
		AuditOverheadPc: map[string]float64{},
		TraceOverheadPc: map[string]float64{},
	}

	// The arms are measured interleaved — one rep of each in turn,
	// against long-lived systems — so scheduler and GC drift on a busy
	// box lands on every arm instead of biasing whichever arm ran last.
	// A warmup rep per arm is discarded (first run stages caches and
	// lazily creates session contexts).
	measure := func(n int) map[parArm]parallelRow {
		systems := map[parArm]*shill.Machine{}
		samples := map[parArm]*sample{}
		for _, arm := range parArms {
			opts := []shill.Option{
				shill.WithConsoleLimit(1 << 20),
				shill.WithSpawnLatency(latency),
			}
			if !arm.audit {
				opts = append(opts, shill.WithAuditDisabled())
			}
			if !arm.trace {
				opts = append(opts, shill.WithTraceDisabled())
			}
			systems[arm] = newMachine(opts...)
			samples[arm] = &sample{}
			defer systems[arm].Close()
		}
		for r := 0; r < reps+1; r++ {
			for _, arm := range parArms {
				s := systems[arm]
				s.PrepareGradingSessions(n, w)
				start := time.Now()
				if _, err := s.RunPreparedGradingSessions(ctx, n, shill.ModeShill); err != nil {
					fmt.Fprintf(os.Stderr, "benchfig: parallel[%d]: %v\n", n, err)
					os.Exit(1)
				}
				if r > 0 { // discard the warmup rep
					samples[arm].add(time.Since(start))
				}
			}
		}
		rows := map[parArm]parallelRow{}
		for _, arm := range parArms {
			mean, ci := samples[arm].meanCI()
			rows[arm] = parallelRow{
				Sessions: n, Audit: arm.audit, Trace: arm.trace,
				ScriptsPerSec: float64(n) / mean.Seconds(),
				MeanSeconds:   mean.Seconds(),
				CISeconds:     ci.Seconds(),
			}
		}
		return rows
	}

	// overheadPct prices the baseline arm against an arm with one
	// subsystem off: positive means the subsystem costs throughput.
	overheadPct := func(base, off parallelRow) float64 {
		return (off.ScriptsPerSec - base.ScriptsPerSec) / off.ScriptsPerSec * 100
	}

	var traceSum float64
	sessionCounts := []int{1, 4, 16}
	for _, n := range sessionCounts {
		rows := measure(n)
		base := rows[parArm{audit: true, trace: true}]
		noAudit := rows[parArm{audit: false, trace: true}]
		noTrace := rows[parArm{audit: true, trace: false}]
		res.Rows = append(res.Rows, base, noAudit, noTrace)
		auditOvh := overheadPct(base, noAudit)
		traceOvh := overheadPct(base, noTrace)
		res.AuditOverheadPc[fmt.Sprint(n)] = auditOvh
		res.TraceOverheadPc[fmt.Sprint(n)] = traceOvh
		traceSum += traceOvh
		fmt.Printf("%-10d %10.1f s/s %10.1f s/s %10.1f s/s %+10.2f%% %+10.2f%%\n",
			n, base.ScriptsPerSec, noAudit.ScriptsPerSec, noTrace.ScriptsPerSec,
			auditOvh, traceOvh)
	}
	traceMean := traceSum / float64(len(sessionCounts))

	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}

	if traceMean >= traceOverheadBarPct {
		fmt.Fprintf(os.Stderr,
			"benchfig: tracing overhead %.2f%% (mean across %v sessions) breaches the %.0f%% bar\n",
			traceMean, sessionCounts, traceOverheadBarPct)
		return false
	}
	fmt.Printf("tracing overhead: %+.2f%% mean (bar <%.0f%%)\n", traceMean, traceOverheadBarPct)
	return true
}
