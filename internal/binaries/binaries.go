// Package binaries implements the simulated native executables the
// paper's case studies run in SHILL sandboxes: coreutils, grep, find, a
// POSIX-ish shell, tar, curl, the OCaml toolchain, gmake, the Apache
// httpd, and support tools. Each binary is an ordinary Go function that
// performs all of its work through the simulated kernel's system calls,
// so the SHILL MAC policy confines it exactly as it would confine a real
// statically compiled program.
package binaries

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/vfs"
)

// Deps maps each binary to the shared libraries it links against; the
// simulated ldd prints these, and pkg_native collects capabilities for
// them (§3.1.4).
var Deps = map[string][]string{
	"cat":       {"libc.so.7"},
	"echo":      {"libc.so.7"},
	"cp":        {"libc.so.7"},
	"mv":        {"libc.so.7"},
	"rm":        {"libc.so.7"},
	"mkdir":     {"libc.so.7"},
	"ls":        {"libc.so.7"},
	"head":      {"libc.so.7"},
	"wc":        {"libc.so.7"},
	"touch":     {"libc.so.7"},
	"install":   {"libc.so.7"},
	"true":      {"libc.so.7"},
	"false":     {"libc.so.7"},
	"sh":        {"libc.so.7", "libedit.so.7"},
	"grep":      {"libc.so.7"},
	"find":      {"libc.so.7"},
	"diff":      {"libc.so.7"},
	"tar":       {"libc.so.7", "libarchive.so.6"},
	"curl":      {"libc.so.7", "libcurl.so.8", "libcrypto.so.6"},
	"ldd":       {"libc.so.7"},
	"jpeginfo":  {"libc.so.7", "libjpeg.so.8"},
	"ocamlc":    {"libc.so.7", "libm.so.5", "libocaml.so.4"},
	"ocamlrun":  {"libc.so.7", "libm.so.5", "libocaml.so.4"},
	"ocamlyacc": {"libc.so.7", "libocaml.so.4"},
	"gmake":     {"libc.so.7"},
	"cc":        {"libc.so.7", "libm.so.5"},
	"httpd":     {"libc.so.7", "libcrypto.so.6", "libpcre.so.3"},
	"ab":        {"libc.so.7", "libcrypto.so.6"},
	"configure": {"libc.so.7"},
	"origind":   {"libc.so.7"},
}

// Names returns every registered binary name, sorted.
func Names() []string {
	names := make([]string, 0, len(Deps))
	for n := range Deps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LibNames returns every library any binary depends on, sorted.
func LibNames() []string {
	set := map[string]bool{}
	for _, libs := range Deps {
		for _, l := range libs {
			set[l] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Register installs every simulated binary into the kernel's registry.
func Register(k *kernel.Kernel) {
	k.RegisterBinary("cat", catMain)
	k.RegisterBinary("echo", echoMain)
	k.RegisterBinary("cp", cpMain)
	k.RegisterBinary("mv", mvMain)
	k.RegisterBinary("rm", rmMain)
	k.RegisterBinary("mkdir", mkdirMain)
	k.RegisterBinary("ls", lsMain)
	k.RegisterBinary("head", headMain)
	k.RegisterBinary("wc", wcMain)
	k.RegisterBinary("touch", touchMain)
	k.RegisterBinary("install", installMain)
	k.RegisterBinary("true", func(*kernel.Proc, []string) int { return 0 })
	k.RegisterBinary("false", func(*kernel.Proc, []string) int { return 1 })
	k.RegisterBinary("sh", shMain)
	k.RegisterBinary("grep", grepMain)
	k.RegisterBinary("find", findMain)
	k.RegisterBinary("diff", diffMain)
	k.RegisterBinary("tar", tarMain)
	k.RegisterBinary("curl", curlMain)
	k.RegisterBinary("ldd", lddMain)
	k.RegisterBinary("jpeginfo", jpeginfoMain)
	k.RegisterBinary("ocamlc", ocamlcMain)
	k.RegisterBinary("ocamlrun", ocamlrunMain)
	k.RegisterBinary("ocamlyacc", ocamlyaccMain)
	k.RegisterBinary("gmake", gmakeMain)
	k.RegisterBinary("cc", ccMain)
	k.RegisterBinary("httpd", httpdMain)
	k.RegisterBinary("ab", abMain)
	k.RegisterBinary("configure", configureMain)
	k.RegisterBinary("origind", origindMain)
}

// --- shared helpers (each binary's "libc") ---

func stdout(p *kernel.Proc, format string, args ...any) {
	p.Write(1, []byte(fmt.Sprintf(format, args...)))
}

func stderr(p *kernel.Proc, format string, args ...any) {
	p.Write(2, []byte(fmt.Sprintf(format, args...)))
}

// readAllFD drains a descriptor.
func readAllFD(p *kernel.Proc, fd int) ([]byte, error) {
	var out []byte
	buf := make([]byte, 32*1024)
	for {
		n, err := p.Read(fd, buf)
		if n > 0 {
			out = append(out, buf[:n]...)
		}
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// readFile opens and reads a whole file by path.
func readFile(p *kernel.Proc, path string) ([]byte, error) {
	fd, err := p.OpenAt(kernel.AtCWD, path, kernel.ORead, 0)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	return readAllFD(p, fd)
}

// writeFile creates/truncates and writes a whole file by path.
func writeFile(p *kernel.Proc, path string, data []byte, mode uint16) error {
	fd, err := p.OpenAt(kernel.AtCWD, path, kernel.OWrite|kernel.OCreate|kernel.OTrunc, mode)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	_, err = p.Write(fd, data)
	return err
}

// appendFile appends to a file by path, creating it if needed.
func appendFile(p *kernel.Proc, path string, data []byte) error {
	fd, err := p.OpenAt(kernel.AtCWD, path, kernel.OWrite|kernel.OAppend|kernel.OCreate, 0o644)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	_, err = p.Write(fd, data)
	return err
}

func isDir(p *kernel.Proc, path string) bool {
	st, err := p.FStatAt(kernel.AtCWD, path, true)
	return err == nil && st.Type == vfs.TypeDir
}

func exists(p *kernel.Proc, path string) bool {
	_, err := p.FStatAt(kernel.AtCWD, path, true)
	return err == nil
}

func joinPath(dir, name string) string {
	if dir == "" {
		return name
	}
	if strings.HasSuffix(dir, "/") {
		return dir + name
	}
	return dir + "/" + name
}

func baseName(path string) string {
	path = strings.TrimRight(path, "/")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func dirName(path string) string {
	path = strings.TrimRight(path, "/")
	i := strings.LastIndexByte(path, '/')
	switch {
	case i < 0:
		return "."
	case i == 0:
		return "/"
	default:
		return path[:i]
	}
}

// resolveExecutable finds a command on a conventional search path and
// returns its vnode for Spawn. The sandbox must hold lookup privileges
// along the way, exactly like a real execvp.
func resolveExecutable(p *kernel.Proc, name string) (*vfs.Vnode, error) {
	paths := []string{name}
	if !strings.Contains(name, "/") {
		paths = []string{"/bin/" + name, "/usr/bin/" + name, "/usr/local/bin/" + name}
	}
	var lastErr error
	for _, path := range paths {
		fd, err := p.OpenAt(kernel.AtCWD, path, kernel.ORead, 0)
		if err != nil {
			lastErr = err
			continue
		}
		desc, _ := p.FD(fd)
		vnode := desc.Vnode()
		p.Close(fd)
		return vnode, nil
	}
	return nil, lastErr
}

// runCommand resolves and runs a command line within the current
// session, inheriting stdio, and returns its exit status.
func runCommand(p *kernel.Proc, argv []string) (int, error) {
	vn, err := resolveExecutable(p, argv[0])
	if err != nil {
		return 127, err
	}
	return p.SpawnWait(vn, argv[1:], kernel.SpawnAttr{})
}
