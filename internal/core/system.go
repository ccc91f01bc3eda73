// Package core assembles and stages the simulated machine of the SHILL
// reproduction: the kernel, the base filesystem image, the registered
// binaries, the loopback network, and the case-study workload builders
// (§4.1). It is deliberately mechanism-only — the supported way to run
// scripts, manage sessions, and drive the case studies is the public
// embedding package repro/shill, which builds on this one.
package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/binaries"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/netstack"
	"repro/internal/prof"
	"repro/internal/vfs"
)

// Config selects the machine configuration, mirroring the paper's
// benchmark columns (§4.2).
type Config struct {
	// InstallModule loads the SHILL policy module ("SHILL installed").
	// Without it the machine is the "Baseline" configuration.
	InstallModule bool
	// ConsoleLimit caps the console capture buffer (0 = unlimited).
	ConsoleLimit int
	// SpawnLatency, when non-zero, simulates the fork/exec cost of the
	// paper's real testbed on every Exec (see kernel.SetSpawnLatency).
	// Parallel-session benchmarks enable it so throughput scaling
	// reflects overlap of genuine per-sandbox blocking.
	SpawnLatency time.Duration
	// AuditDisabled turns the always-on audit trail off — the control
	// configuration for measuring audit overhead (`benchfig -fig
	// parallel` runs audit on vs off).
	AuditDisabled bool
}

// System is an assembled simulated machine: kernel, image, and staging
// state. Script execution and session management live in repro/shill.
type System struct {
	K       *kernel.Kernel
	Runtime *kernel.Proc // uid 1001: the user's shell / SHILL runtime
	RootSh  *kernel.Proc // uid 0: privileged helper (origin server, image tweaks)
	Console *vfs.ConsoleDevice
	Prof    *prof.Collector
	Scripts lang.MapLoader

	// ConsoleLimit echoes Config.ConsoleLimit so per-session console
	// devices created on top of this machine inherit the same cap.
	ConsoleLimit int

	// stagedGrading records, per course root, the workload its tree was
	// last built for, so EnsureGradingCourseAt rebuilds when the caller
	// switches workloads instead of silently grading the stale course.
	stagedMu      sync.Mutex
	stagedGrading map[string]GradingWorkload
}

// UID of the unprivileged user every case study runs as.
const UserUID = 1001

// NewSystem builds a machine with the base image: binaries in /bin and
// /usr/bin, libraries in /lib and /usr/local/lib, devices, /tmp, and a
// home directory.
func NewSystem(cfg Config) *System {
	k := kernel.New()
	binaries.Register(k)
	if cfg.InstallModule {
		k.InstallShillModule()
	}
	s := &System{
		K:       k,
		Prof:    prof.New(),
		Console: vfs.NewConsoleDevice(),
		Scripts: lang.MapLoader{},
	}
	if cfg.ConsoleLimit > 0 {
		s.Console.SetLimit(cfg.ConsoleLimit)
	}
	s.ConsoleLimit = cfg.ConsoleLimit
	if cfg.SpawnLatency > 0 {
		k.SetSpawnLatency(cfg.SpawnLatency)
	}
	if cfg.AuditDisabled {
		k.Audit().SetEnabled(false)
	}
	s.buildBaseImage()
	s.RootSh = k.NewProc(0, 0)
	s.Runtime = k.NewProc(UserUID, UserUID)
	if err := s.Runtime.Chdir("/home/user"); err != nil {
		panic("core: " + err.Error())
	}
	return s
}

// NewSystemFromBase builds a machine whose filesystem boots
// copy-on-write from a flattened image layer instead of staging the
// base image file by file. The layer must already contain the full
// tree (binaries, /etc, home directories); only devices are rewired.
func NewSystemFromBase(cfg Config, base *vfs.Layer) *System {
	k := kernel.New()
	k.SetFS(vfs.NewFromLayer(base))
	binaries.Register(k)
	if cfg.InstallModule {
		k.InstallShillModule()
	}
	s := &System{
		K:       k,
		Prof:    prof.New(),
		Console: vfs.NewConsoleDevice(),
		Scripts: lang.MapLoader{},
	}
	if cfg.ConsoleLimit > 0 {
		s.Console.SetLimit(cfg.ConsoleLimit)
	}
	s.ConsoleLimit = cfg.ConsoleLimit
	if cfg.SpawnLatency > 0 {
		k.SetSpawnLatency(cfg.SpawnLatency)
	}
	if cfg.AuditDisabled {
		k.Audit().SetEnabled(false)
	}
	s.wireDevices()
	s.RootSh = k.NewProc(0, 0)
	s.Runtime = k.NewProc(UserUID, UserUID)
	if err := s.Runtime.Chdir("/home/user"); err != nil {
		panic("core: " + err.Error())
	}
	return s
}

// StagingState serializes the workload-staging bookkeeping for capture
// into a machine image; RestoreStagingState is its inverse. Without it
// a restored machine would restage (and so reset) course trees its
// image already contains.
func (s *System) StagingState() []byte {
	s.stagedMu.Lock()
	defer s.stagedMu.Unlock()
	if len(s.stagedGrading) == 0 {
		return nil
	}
	out, err := json.Marshal(s.stagedGrading)
	if err != nil {
		panic("core: staging state: " + err.Error())
	}
	return out
}

// RestoreStagingState applies a StagingState blob captured from another
// machine.
func (s *System) RestoreStagingState(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	staged := make(map[string]GradingWorkload)
	if err := json.Unmarshal(blob, &staged); err != nil {
		return fmt.Errorf("core: staging state: %w", err)
	}
	s.stagedMu.Lock()
	s.stagedGrading = staged
	s.stagedMu.Unlock()
	return nil
}

// Close shuts down background kernel workers.
func (s *System) Close() { s.K.Shutdown() }

// Audit returns the machine's audit log.
func (s *System) Audit() *audit.Log { return s.K.Audit() }

// FlushAuditProf attributes the audit subsystem's accumulated emission
// time to the Prof collector's AuditEmit category. Figure-10 style
// reports call it just before Prof.Report.
func (s *System) FlushAuditProf() { s.K.Audit().FlushProf(s.Prof) }

// binImage renders an executable image for a registered binary.
func binImage(name string) []byte {
	return []byte("#!bin:" + name + "\n")
}

// libImage renders a fake shared library with plausible bulk.
func libImage(name string) []byte {
	data := make([]byte, 8192)
	copy(data, "\x7fELF shared library "+name)
	return data
}

// MustWrite writes a file into the image, panicking on failure — the
// staging-time counterpart of a fatal provisioning error.
func (s *System) MustWrite(path string, data []byte, mode uint16, uid int) *vfs.Vnode {
	return s.mustWrite(path, data, mode, uid)
}

func (s *System) mustWrite(path string, data []byte, mode uint16, uid int) *vfs.Vnode {
	vn, err := s.K.FS.WriteFile(path, data, mode, uid, uid)
	if err != nil {
		panic(fmt.Sprintf("core: write %s: %v", path, err))
	}
	return vn
}

func (s *System) buildBaseImage() {
	fs := s.K.FS
	mk := func(path string, mode uint16, uid int) {
		if _, err := fs.MkdirAll(path, mode, uid, uid); err != nil {
			panic("core: " + err.Error())
		}
	}
	mk("/bin", 0o755, 0)
	mk("/usr/bin", 0o755, 0)
	mk("/usr/local/bin", 0o755, 0)
	mk("/usr/local/sbin", 0o755, 0)
	mk("/usr/local/etc/apache22", 0o755, 0)
	mk("/usr/local/www", 0o755, 0)
	mk("/usr/local/lib/ocaml", 0o755, 0)
	mk("/lib", 0o755, 0)
	mk("/etc", 0o755, 0)
	mk("/tmp", 0o777, 0)
	mk("/var/log", 0o777, 0)
	mk("/home/user", 0o755, UserUID)
	mk("/home/user/Downloads", 0o755, UserUID)
	mk("/srv/origin", 0o755, 0)
	mk("/usr/src", 0o755, 0)

	// Binaries. The split matches FreeBSD convention loosely: core tools
	// in /bin, the rest in /usr/bin, servers in /usr/local/sbin.
	binDirs := map[string]string{
		"cat": "/bin", "echo": "/bin", "cp": "/bin", "mv": "/bin",
		"rm": "/bin", "mkdir": "/bin", "ls": "/bin", "head": "/bin",
		"wc": "/bin", "touch": "/bin", "install": "/bin", "true": "/bin",
		"false": "/bin", "sh": "/bin",
		"grep": "/usr/bin", "find": "/usr/bin", "diff": "/usr/bin",
		"tar": "/usr/bin", "curl": "/usr/bin", "ldd": "/usr/bin",
		"jpeginfo": "/usr/bin", "ocamlc": "/usr/bin", "ocamlrun": "/usr/bin",
		"ocamlyacc": "/usr/bin", "gmake": "/usr/bin", "cc": "/usr/bin",
		"ab":    "/usr/bin",
		"httpd": "/usr/local/sbin", "origind": "/usr/local/sbin",
	}
	for name, dir := range binDirs {
		s.mustWrite(dir+"/"+name, binImage(name), 0o755, 0)
	}
	// Shared libraries.
	for _, lib := range binaries.LibNames() {
		dir := "/lib"
		if lib == "libocaml.so.4" {
			dir = "/usr/local/lib"
		}
		s.mustWrite(dir+"/"+lib, libImage(lib), 0o644, 0)
	}
	// OCaml standard library (the debugging-anecdote dependency, §4.1).
	s.mustWrite("/usr/local/lib/ocaml/stdlib.cma", []byte("CAML1999stdlib"), 0o644, 0)
	s.mustWrite("/usr/local/lib/ocaml/pervasives.cmi", []byte("CAML1999cmi"), 0o644, 0)

	// /etc and devices.
	s.mustWrite("/etc/passwd", []byte("root:0:0\nuser:1001:1001\n"), 0o644, 0)
	s.mustWrite("/etc/resolv.conf", []byte("nameserver 10.0.0.1\n"), 0o644, 0)
	s.wireDevices()
}

// wireDevices creates the character devices. Devices hold live Go state
// (closures over channels and buffers), so they are never captured into
// an image; both cold builds and restores wire them fresh.
func (s *System) wireDevices() {
	fs := s.K.FS
	dev, err := fs.MkdirAll("/dev", 0o755, 0, 0)
	if err != nil {
		panic("core: " + err.Error())
	}
	if _, err := fs.Mkdev(dev, "null", 0o666, 0, 0, vfs.NullDevice{}); err != nil {
		panic("core: " + err.Error())
	}
	if _, err := fs.Mkdev(dev, "zero", 0o666, 0, 0, vfs.ZeroDevice{}); err != nil {
		panic("core: " + err.Error())
	}
	if _, err := fs.Mkdev(dev, "console", 0o666, 0, 0, s.Console); err != nil {
		panic("core: " + err.Error())
	}
}

// NewSessionConsole creates a private console device at /dev/pts/<name>
// with the machine's configured capture limit — the per-session console
// repro/shill binds each Session's stdio builtins to.
func (s *System) NewSessionConsole(name string) (*vfs.ConsoleDevice, string) {
	console := vfs.NewConsoleDevice()
	if s.ConsoleLimit > 0 {
		console.SetLimit(s.ConsoleLimit)
	}
	dir, err := s.K.FS.MkdirAll("/dev/pts", 0o755, 0, 0)
	if err != nil {
		panic("core: " + err.Error())
	}
	if _, err := s.K.FS.Mkdev(dir, name, 0o666, 0, 0, console); err != nil {
		panic("core: " + err.Error())
	}
	return console, "/dev/pts/" + name
}

// StartOrigin launches the origin web server (the "remote" host curl
// downloads from) as root, outside any sandbox, and returns a stop
// function. It serves /srv/origin on port 80. Readiness is a listener
// notification from the network stack, not a connect-poll loop.
func (s *System) StartOrigin() (stop func(), err error) {
	vn, err := s.K.FS.Resolve("/usr/local/sbin/origind")
	if err != nil {
		return nil, err
	}
	child, err := s.RootSh.Spawn(vn, []string{"/srv/origin", "80"}, kernel.SpawnAttr{})
	if err != nil {
		return nil, err
	}
	if err := s.K.Net.WaitListener(netstack.DomainIP, "80", 5*time.Second, nil); err != nil {
		s.RootSh.Kill(child.PID())
		s.RootSh.Wait(child.PID())
		return nil, fmt.Errorf("core: origin server did not start: %w", err)
	}
	return func() {
		sock := s.K.Net.NewSocket(netstack.DomainIP)
		if cerr := s.K.Net.Connect(sock, "80"); cerr == nil {
			s.K.Net.Send(sock, []byte("GET /__shutdown\n"))
			buf := make([]byte, 16)
			s.K.Net.Recv(sock, buf)
			s.K.Net.Close(sock)
		}
		s.RootSh.Wait(child.PID())
	}, nil
}

// RemovePath unlinks a single file, ignoring errors (bench resets).
func (s *System) RemovePath(path string) {
	dirPath, name := splitParent(path)
	dir, err := s.K.FS.Resolve(dirPath)
	if err != nil {
		return
	}
	s.K.FS.Unlink(dir, name, false)
}

// RemoveTree removes a directory tree, ignoring errors (bench resets).
func (s *System) RemoveTree(path string) {
	s.ClearDir(path)
	dirPath, name := splitParent(path)
	dir, err := s.K.FS.Resolve(dirPath)
	if err != nil {
		return
	}
	s.K.FS.Unlink(dir, name, true)
}

func splitParent(path string) (dir, name string) {
	i := len(path) - 1
	for i > 0 && path[i] != '/' {
		i--
	}
	if i == 0 {
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}
