package shill

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/examples/scripts"
	"repro/internal/core"
	"repro/internal/netstack"
)

// This file carries the paper's case-study drivers (§4.1–§4.2), ported
// onto the session-first API: every configuration of every case study
// is an ordinary Session.Run / Session.RunCommand with a context, so
// drivers are cancellable like any embedder's script.

// Mode selects one of the paper's four benchmark configurations (§4.2).
// Baseline vs Installed is a property of the machine (whether the
// module is loaded); drivers treat them identically — the point of the
// paired configurations is precisely that the code path is the same.
type Mode int

// Benchmark configurations.
const (
	ModeAmbient   Mode = iota // Baseline / "SHILL installed": run the command directly
	ModeSandboxed             // a SHILL script creates one sandbox for the command
	ModeShill                 // the task rewritten in SHILL with fine-grained contracts
)

func (m Mode) String() string {
	switch m {
	case ModeAmbient:
		return "ambient"
	case ModeSandboxed:
		return "sandboxed"
	case ModeShill:
		return "shill"
	}
	return "unknown"
}

// Workload parameter types and defaults, re-exported from the staging
// layer so embedders and the benchmark tools never import internal
// packages.
type (
	// GradingWorkload parameterises the grading course.
	GradingWorkload = core.GradingWorkload
	// EmacsWorkload sizes the emacs source tarball.
	EmacsWorkload = core.EmacsWorkload
	// ApacheWorkload sizes the served file and the ab run.
	ApacheWorkload = core.ApacheWorkload
	// FindWorkload sizes the find source tree.
	FindWorkload = core.FindWorkload
)

// Default and paper-scale workloads.
var (
	DefaultGrading   = core.DefaultGrading
	FullScaleGrading = core.FullScaleGrading
	DefaultEmacs     = core.DefaultEmacs
	DefaultApache    = core.DefaultApache
	DefaultFind      = core.DefaultFind
	FullScaleFind    = core.FullScaleFind
)

// GradeAmbientShillAt renders grade.ambient, the ambient script that
// runs the pure-SHILL grader, for a course root and console device, so
// concurrent sessions can each grade their own course tree and write to
// their own console.
func GradeAmbientShillAt(root, console string) string {
	return rebindCourse("grade.ambient", root, console)
}

// GradeAmbientSandboxAt renders grade_sandbox.ambient, the ambient
// script that runs grade.sh in one sandbox, for a course root and
// console device.
func GradeAmbientSandboxAt(root, console string) string {
	return rebindCourse("grade_sandbox.ambient", root, console)
}

// rebindCourse rewrites a shipped grading script's /course paths and
// console. ReplaceAll returns its input unchanged when old equals new,
// so the defaults cost nothing.
func rebindCourse(name, root, console string) string {
	src, _ := scripts.Source(name)
	src = strings.ReplaceAll(src, `"/course/`, `"`+root+`/`)
	return strings.ReplaceAll(src, `"/dev/console"`, `"`+console+`"`)
}

// ===========================================================================
// Grading (§4.1)
// ===========================================================================

// RunGrading grades the default course at /course in the given mode.
func (m *Machine) RunGrading(ctx context.Context, mode Mode) error {
	s := m.DefaultSession()
	switch mode {
	case ModeAmbient:
		res, err := s.RunCommand(ctx,
			[]string{"/bin/sh", "/course/grade.sh", "/course/submissions", "/course/tests", "/course/work", "/course/grades"}, "")
		if err != nil {
			return err
		}
		if res.ExitStatus != 0 {
			return fmt.Errorf("grade.sh exited with status %d", res.ExitStatus)
		}
		return nil
	case ModeSandboxed:
		_, err := s.Run(ctx, shippedScript("grade_sandbox.ambient"))
		return err
	case ModeShill:
		_, err := s.Run(ctx, shippedScript("grade.ambient"))
		return err
	}
	return fmt.Errorf("unknown mode %v", mode)
}

// GradeFor returns a student's grade-log contents from the default
// course.
func (m *Machine) GradeFor(student string) string {
	return m.GradeAt("/course", student)
}

// GradeAt returns a student's grade-log contents under a course root.
func (m *Machine) GradeAt(root, student string) string {
	out, err := m.ReadFile(root + "/grades/" + student)
	if err != nil {
		return ""
	}
	return out
}

// ===========================================================================
// Emacs package management (§4.1)
// ===========================================================================

// EmacsStep names one sub-benchmark of the package-management case
// study (Figure 9's Download/Untar/Configure/Make/Install/Uninstall).
type EmacsStep string

// Emacs sub-benchmarks.
const (
	StepDownload  EmacsStep = "download"
	StepUntar     EmacsStep = "untar"
	StepConfigure EmacsStep = "configure"
	StepMake      EmacsStep = "make"
	StepInstall   EmacsStep = "install"
	StepUninstall EmacsStep = "uninstall"
)

// AllEmacsSteps lists the sub-benchmarks in dependency order.
var AllEmacsSteps = []EmacsStep{StepDownload, StepUntar, StepConfigure, StepMake, StepInstall, StepUninstall}

// emacsCommand returns the command line for each step (the "command
// line invocation to achieve the same task outside of SHILL", §4.2).
func emacsCommand(step EmacsStep) (bin string, argv []string, wd string) {
	switch step {
	case StepDownload:
		return "/usr/bin/curl", []string{"-o", "/home/user/Downloads/emacs-24.3.tar", "http://origin/emacs-24.3.tar"}, "/home/user/Downloads"
	case StepUntar:
		return "/usr/bin/tar", []string{"-xf", "/home/user/Downloads/emacs-24.3.tar", "-C", "/home/user/build"}, "/home/user/build"
	case StepConfigure:
		return "/bin/sh", []string{"-c", "./configure --prefix=/home/user/.local"}, "/home/user/build/emacs-24.3"
	case StepMake:
		return "/usr/bin/gmake", []string{"-C", "/home/user/build/emacs-24.3"}, "/home/user/build/emacs-24.3"
	case StepInstall:
		return "/usr/bin/gmake", []string{"-C", "/home/user/build/emacs-24.3", "install"}, "/home/user/build/emacs-24.3"
	case StepUninstall:
		return "/usr/bin/gmake", []string{"-C", "/home/user/build/emacs-24.3", "uninstall"}, "/home/user/build/emacs-24.3"
	}
	panic("shill: unknown emacs step " + string(step))
}

// RunEmacsStep runs one sub-benchmark ambiently or in a single sandbox.
// The origin server must be running for StepDownload.
func (m *Machine) RunEmacsStep(ctx context.Context, step EmacsStep, mode Mode) error {
	bin, argv, wd := emacsCommand(step)
	s := m.DefaultSession()
	switch mode {
	case ModeAmbient:
		res, err := s.RunCommand(ctx, append([]string{bin}, argv...), wd)
		if err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		if res.ExitStatus != 0 {
			return fmt.Errorf("%s exited with status %d", step, res.ExitStatus)
		}
		return nil
	case ModeSandboxed:
		ambient := m.genRunCmdAmbient(bin, argv, wd, step == StepDownload)
		_, err := s.Run(ctx, Script{Name: string(step) + ".ambient", Source: ambient})
		return err
	}
	return fmt.Errorf("emacs step %s has no %v configuration", step, mode)
}

// genRunCmdAmbient generates the ambient driver for the Sandboxed
// configuration: open every path mentioned on the command line and hand
// the capabilities to run_cmd.
func (m *Machine) genRunCmdAmbient(bin string, argv []string, wd string, network bool) string {
	var b strings.Builder
	b.WriteString("#lang shill/ambient\n\nrequire shill/native;\nrequire \"run_cmd.cap\";\n\n")
	b.WriteString("root = open_dir(\"/\");\nwallet = create_wallet();\n")
	b.WriteString("populate_native_wallet(wallet, root,\n  \"/usr/local/sbin:/usr/bin:/bin\", \"/lib:/usr/local/lib\", pipe_factory());\n\n")
	fmt.Fprintf(&b, "wd = open_dir(%q);\n", wd)
	b.WriteString("out = open_file(\"/dev/console\");\n")

	// Arguments that name existing filesystem objects become
	// capabilities; everything else stays a string.
	parts := []string{fmt.Sprintf("%q", baseNameOf(bin))}
	capIdx := 0
	for _, a := range argv {
		if strings.HasPrefix(a, "/") {
			if vn, err := m.sys.K.FS.Resolve(a); err == nil {
				capIdx++
				varName := fmt.Sprintf("c%d", capIdx)
				if vn.IsDir() {
					fmt.Fprintf(&b, "%s = open_dir(%q);\n", varName, a)
				} else {
					fmt.Fprintf(&b, "%s = open_file(%q);\n", varName, a)
				}
				parts = append(parts, varName)
				continue
			}
		}
		parts = append(parts, fmt.Sprintf("%q", a))
	}
	socks := "[]"
	if network {
		b.WriteString("net = socket_factory(\"ip\");\n")
		socks = "[net]"
	}
	fmt.Fprintf(&b, "run_cmd(wallet, [%s], wd, out, [], %s);\n", strings.Join(parts, ", "), socks)
	return b.String()
}

func baseNameOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// RunEmacsShill runs the full package-management script (the "Emacs"
// column's SHILL version): download, unpack, configure, build, install,
// uninstall, each under its own fine-grained contract.
func (m *Machine) RunEmacsShill(ctx context.Context) error {
	_, err := m.DefaultSession().Run(ctx, shippedScript("pkg_emacs.ambient"))
	return err
}

// ===========================================================================
// Apache (§4.1)
// ===========================================================================

// RunApache starts the server in the given mode, drives the ab workload
// against it from a private session, shuts it down, and returns ab's
// Result (its console output carries the requests/transferred report).
// Server readiness is a listener notification from the network stack —
// no polling.
func (m *Machine) RunApache(ctx context.Context, mode Mode, w ApacheWorkload) (*Result, error) {
	server := m.DefaultSession()
	serverDone := make(chan error, 1)
	switch mode {
	case ModeAmbient:
		go func() {
			res, err := server.RunCommand(ctx, []string{"/usr/local/sbin/httpd", "-f", "/usr/local/etc/apache22/httpd.conf"}, "")
			if err == nil && res.ExitStatus != 0 {
				err = fmt.Errorf("httpd exited with status %d", res.ExitStatus)
			}
			serverDone <- err
		}()
	case ModeSandboxed, ModeShill:
		// Both SHILL configurations run the server through the apache
		// script; the case study has one script (its contract IS the
		// fine-grained version).
		go func() {
			_, err := server.Run(ctx, shippedScript("apache.ambient"))
			serverDone <- err
		}()
	default:
		return nil, fmt.Errorf("unknown mode %v", mode)
	}
	if err := m.sys.K.Net.WaitListener(netstack.DomainIP, "8080", 5*time.Second, ctx.Done()); err != nil {
		// The server may be alive without ever having bound the port, in
		// which case the polite shutdown request cannot reach it —
		// interrupt its session so the failed start cannot hang forever.
		m.shutdownListener("8080")
		server.proc.Interrupt()
		serr := <-serverDone
		server.proc.ClearInterrupt()
		return nil, fmt.Errorf("apache: no listener on 8080 (server: %v): %w", serr, err)
	}
	// Drive the load from a private session, as a separate client would.
	ab := m.NewSession()
	defer ab.Close()
	res, err := ab.RunCommand(ctx, []string{"/usr/bin/ab",
		"-n", fmt.Sprint(w.Requests), "-c", fmt.Sprint(w.Concurrency), "http://localhost:8080/big.bin"}, "")
	m.shutdownListener("8080")
	if serr := <-serverDone; serr != nil {
		return res, fmt.Errorf("httpd: %w", serr)
	}
	if err != nil {
		return res, err
	}
	if res.ExitStatus != 0 {
		return res, fmt.Errorf("ab exited with status %d", res.ExitStatus)
	}
	return res, nil
}

// shutdownListener sends the server's shutdown request.
func (m *Machine) shutdownListener(port string) {
	net := m.sys.K.Net
	sock := net.NewSocket(netstack.DomainIP)
	if err := net.Connect(sock, port); err == nil {
		net.Send(sock, []byte("GET /__shutdown\n"))
		buf := make([]byte, 64)
		net.Recv(sock, buf)
	}
	net.Close(sock)
}

// ===========================================================================
// Find (§4.1)
// ===========================================================================

// RunFind runs the find-and-grep task. ModeAmbient runs the command
// directly; ModeSandboxed uses the single-sandbox script; ModeShill
// uses the fine-grained per-file-sandbox version.
func (m *Machine) RunFind(ctx context.Context, mode Mode) error {
	if err := m.WriteFile("/home/user/matches.txt", nil, 0o644, UserUID); err != nil {
		return err
	}
	s := m.DefaultSession()
	switch mode {
	case ModeAmbient:
		res, err := s.RunCommand(ctx, []string{"/bin/sh",
			"-c", "find /usr/src -name *.c -exec grep -H mac_ {} ';' > /home/user/matches.txt"}, "")
		if err != nil {
			return err
		}
		if res.ExitStatus != 0 {
			return fmt.Errorf("find exited with status %d", res.ExitStatus)
		}
		return nil
	case ModeSandboxed:
		_, err := s.Run(ctx, shippedScript("findgrep.ambient"))
		return err
	case ModeShill:
		_, err := s.Run(ctx, shippedScript("findgrep_fine.ambient"))
		return err
	}
	return fmt.Errorf("unknown mode %v", mode)
}

// Matches returns the find output.
func (m *Machine) Matches() string {
	out, err := m.ReadFile("/home/user/matches.txt")
	if err != nil {
		return ""
	}
	return out
}
