// Package cap implements SHILL's language-level capabilities (§3.1.1):
// object-like values that encapsulate low-level capabilities (file
// descriptors, sockets, pipe ends) plus the two factory capabilities
// (pipe factory, socket factory) that encapsulate the right to create
// new pipes or sockets.
//
// Every operation checks the capability's grant before calling the
// corresponding system call, so a capability that has passed through a
// contract behaves exactly as the contract's privilege set promises.
// Attenuation (Restrict) never adds rights; the blame chain records
// which contract imposed each restriction so a violation can "indicate
// which part of the script failed to meet its obligations" (§2.2).
package cap

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/vfs"
)

// Kind distinguishes capability flavours.
type Kind int

// Capability kinds. Following Unix convention, file capabilities cover
// files, pipes, and devices (§2.2); Dir capabilities are separate
// because they support a different operation set.
const (
	KindFile Kind = iota
	KindDir
	KindPipeEnd
	KindSocket
	KindPipeFactory
	KindSocketFactory
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindPipeEnd:
		return "pipe"
	case KindSocket:
		return "socket"
	case KindPipeFactory:
		return "pipe-factory"
	case KindSocketFactory:
		return "socket-factory"
	}
	return "unknown"
}

// NoPrivilegeError reports an operation attempted without the required
// privilege. Blame carries the contract chain that attenuated the
// capability, innermost last.
type NoPrivilegeError struct {
	Op      string
	Missing priv.Set
	Blame   []string
}

func (e *NoPrivilegeError) Error() string {
	msg := fmt.Sprintf("capability: operation %q requires privileges %v", e.Op, e.Missing)
	if len(e.Blame) > 0 {
		msg += " (restricted by: " + strings.Join(e.Blame, " <- ") + ")"
	}
	return msg
}

// Unwrap lets errors.Is treat privilege failures as EACCES.
func (e *NoPrivilegeError) Unwrap() error { return errno.EACCES }

// capIDs mints the process-wide capability identities the audit
// subsystem's lineage records refer to. Every constructed or derived
// capability gets a fresh id, so provenance chains never alias.
var capIDs atomic.Uint64

func nextCapID() uint64 { return capIDs.Add(1) }

// Capability is a SHILL capability value. The zero value is invalid;
// construct capabilities with the New* functions or derive them through
// operations.
type Capability struct {
	id    uint64 // audit-lineage identity
	kind  Kind
	grant *priv.Grant
	blame []string

	proc *kernel.Proc // the runtime process whose syscalls implement operations

	vn         *vfs.Vnode // file, dir, device
	pipeObj    *vfs.Pipe  // pipe ends
	pipeRead   bool
	closed     bool
	sockDomain SocketFactoryDomain // socket factories and sockets
	sockObj    *netstack.Socket    // sockets (the shill/sockets extension)

	// lastPath is the last path the capability was known to be
	// accessible at; the path operation falls back to it.
	lastPath string
}

// NewFile wraps a vnode as a file capability with the given grant.
func NewFile(proc *kernel.Proc, vn *vfs.Vnode, g *priv.Grant) *Capability {
	path, _ := proc.Kernel().FS.PathOf(vn)
	return &Capability{id: nextCapID(), kind: KindFile, grant: g, proc: proc, vn: vn, lastPath: path}
}

// NewDir wraps a directory vnode as a directory capability.
func NewDir(proc *kernel.Proc, vn *vfs.Vnode, g *priv.Grant) *Capability {
	path, _ := proc.Kernel().FS.PathOf(vn)
	return &Capability{id: nextCapID(), kind: KindDir, grant: g, proc: proc, vn: vn, lastPath: path}
}

// NewForVnode wraps a vnode with the kind matching its type.
func NewForVnode(proc *kernel.Proc, vn *vfs.Vnode, g *priv.Grant) *Capability {
	if vn.IsDir() {
		return NewDir(proc, vn, g)
	}
	return NewFile(proc, vn, g)
}

// ID returns the capability's audit-lineage identity.
func (c *Capability) ID() uint64 { return c.id }

// auditLog returns the owning kernel's audit log.
func (c *Capability) auditLog() *audit.Log { return c.proc.Kernel().Audit() }

// emitDerive records a lineage link: this capability produced child via
// the named operation.
func (c *Capability) emitDerive(child *Capability, op, object string, rights priv.Set, detail string) {
	c.auditLog().Emit(c.proc.AuditShard(), audit.Event{
		Kind: audit.KindCapDerive, Op: op, Object: object,
		CapID: child.id, Parent: c.id, Rights: rights, Detail: detail,
	})
}

// Announce records the forge that minted this capability (open_dir,
// populate_native_wallet, a policy file, …) as the root of its lineage.
func (c *Capability) Announce(origin string) *Capability {
	c.auditLog().Emit(c.proc.AuditShard(), audit.Event{
		Kind: audit.KindCapNew, Op: "mint", Object: c.lastPath,
		CapID: c.id, Rights: rightsOf(c.grant), Detail: origin,
	})
	return c
}

func rightsOf(g *priv.Grant) priv.Set {
	if g == nil {
		return 0
	}
	return g.Rights
}

// Kind returns the capability's kind.
func (c *Capability) Kind() Kind { return c.kind }

// Grant returns the capability's current privilege grant.
func (c *Capability) Grant() *priv.Grant { return c.grant }

// Vnode returns the wrapped vnode, or nil for non-filesystem
// capabilities.
func (c *Capability) Vnode() *vfs.Vnode { return c.vn }

// Proc returns the runtime process the capability operates through.
func (c *Capability) Proc() *kernel.Proc { return c.proc }

// BlameChain returns the contract names that attenuated this capability.
func (c *Capability) BlameChain() []string { return append([]string(nil), c.blame...) }

// IsFile reports whether the capability is a file-like capability
// (file, pipe end, or device — the Unix convention of §2.2).
func (c *Capability) IsFile() bool {
	return c.kind == KindFile || c.kind == KindPipeEnd
}

// IsDir reports whether the capability is a directory capability.
func (c *Capability) IsDir() bool { return c.kind == KindDir }

// String renders the capability for diagnostics.
func (c *Capability) String() string {
	name := c.lastPath
	if name == "" {
		name = "<anon>"
	}
	return fmt.Sprintf("%s(%s)%v", c.kind, name, c.grant.Rights)
}

// Restrict returns a copy of the capability attenuated to at most g,
// recording blame for the restricting contract. This is the proxy
// mechanism contracts use (§2.2): the body of a function never receives
// the raw capability, only the wrapped one.
func (c *Capability) Restrict(g *priv.Grant, blame string) *Capability {
	out := *c
	out.id = nextCapID()
	out.grant = c.grant.Intersect(g)
	out.blame = append(append([]string(nil), c.blame...), blame)
	c.emitDerive(&out, "restrict", c.lastPath, rightsOf(out.grant), blame)
	return &out
}

// Demand verifies the capability holds every right in need, recording a
// cap-deny audit event on failure exactly like the capability's own
// operations do. External consumers (the sandbox's exec gate) use it so
// their privilege refusals carry the same audited provenance — a denial
// that skips the log would break the conformance oracle's
// deny-provenance property.
func (c *Capability) Demand(op string, need priv.Set) error {
	return c.require(op, need)
}

// require verifies the capability holds every right in need. A failure
// is both recorded in the audit log (kind cap-deny, naming the contract
// chain that attenuated the capability) and returned as a
// NoPrivilegeError carrying the same provenance.
func (c *Capability) require(op string, need priv.Set) error {
	if c.grant.HasAll(need) {
		return nil
	}
	missing := need.Minus(rightsOf(c.grant))
	blame := c.blame
	c.auditLog().Emit(c.proc.AuditShard(), audit.Event{
		Kind: audit.KindCapDeny, Verdict: audit.Deny, Layer: audit.LayerCapability,
		Op: op, Object: c.lastPath, CapID: c.id, Rights: missing,
		Trace: c.proc.TraceID(),
		// The blame-chain join allocates; defer it until a query or a
		// formatted reason actually reads the detail.
		DetailFn: audit.DeferObject(func() string { return strings.Join(blame, " <- ") }),
	})
	return &NoPrivilegeError{Op: op, Missing: missing, Blame: c.blame}
}

// --- file operations ---

// Read returns the full contents of a file capability.
func (c *Capability) Read() ([]byte, error) {
	if err := c.require("read", priv.NewSet(priv.RRead)); err != nil {
		return nil, err
	}
	switch c.kind {
	case KindFile:
		if c.vn.Type() == vfs.TypeCharDev {
			buf := make([]byte, 4096)
			n, err := c.vn.Device().DevRead(buf)
			return buf[:n], err
		}
		fd, err := c.proc.OpenVnode(c.vn, kernel.ORead)
		if err != nil {
			return nil, err
		}
		defer c.proc.Close(fd)
		return readAll(c.proc, fd)
	case KindPipeEnd:
		if !c.pipeRead {
			return nil, errno.EBADF
		}
		buf := make([]byte, 4096)
		n, err := c.pipeObj.Read(buf)
		return buf[:n], err
	}
	return nil, errno.EINVAL
}

func readAll(p *kernel.Proc, fd int) ([]byte, error) {
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

// Write replaces the contents of a file capability.
func (c *Capability) Write(data []byte) error {
	if err := c.require("write", priv.NewSet(priv.RWrite)); err != nil {
		return err
	}
	switch c.kind {
	case KindFile:
		if c.vn.Type() == vfs.TypeCharDev {
			_, err := c.vn.Device().DevWrite(data)
			return err
		}
		flags := kernel.OWrite
		if c.grant.Has(priv.RTruncate) {
			flags |= kernel.OTrunc
		}
		fd, err := c.proc.OpenVnode(c.vn, flags)
		if err != nil {
			return err
		}
		defer c.proc.Close(fd)
		_, err = c.proc.Write(fd, data)
		return err
	case KindPipeEnd:
		if c.pipeRead {
			return errno.EBADF
		}
		_, err := c.pipeObj.Write(data)
		return err
	}
	return errno.EINVAL
}

// Append appends data to a file capability (pipes simply write).
func (c *Capability) Append(data []byte) error {
	if err := c.require("append", priv.NewSet(priv.RAppend)); err != nil {
		return err
	}
	switch c.kind {
	case KindFile:
		if c.vn.Type() == vfs.TypeCharDev {
			_, err := c.vn.Device().DevWrite(data)
			return err
		}
		fd, err := c.proc.OpenVnode(c.vn, kernel.OWrite|kernel.OAppend)
		if err != nil {
			return err
		}
		defer c.proc.Close(fd)
		_, err = c.proc.Write(fd, data)
		return err
	case KindPipeEnd:
		if c.pipeRead {
			return errno.EBADF
		}
		_, err := c.pipeObj.Write(data)
		return err
	}
	return errno.EINVAL
}

// Stat returns metadata.
func (c *Capability) Stat() (vfs.Stat, error) {
	if err := c.require("stat", priv.NewSet(priv.RStat)); err != nil {
		return vfs.Stat{}, err
	}
	if c.vn == nil {
		return vfs.Stat{}, errno.EINVAL
	}
	return c.vn.Stat(), nil
}

// Path returns an accessible path for the capability via the path
// syscall, falling back to the last known path (§3.1.3).
func (c *Capability) Path() (string, error) {
	if err := c.require("path", priv.NewSet(priv.RPath)); err != nil {
		return "", err
	}
	if c.vn == nil {
		return "", errno.EINVAL
	}
	if path, ok := c.proc.Kernel().FS.PathOf(c.vn); ok {
		return path, nil
	}
	if c.lastPath != "" {
		return c.lastPath, nil
	}
	return "", errno.ENOENT
}

// Name returns the capability's base name (no privilege required; names
// are not ambient authority).
func (c *Capability) Name() string {
	path := c.lastPath
	if p, ok := c.proc.Kernel().FS.PathOf(c.vn); ok {
		path = p
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Truncate truncates the file to the given size.
func (c *Capability) Truncate(size int64) error {
	if err := c.require("truncate", priv.NewSet(priv.RTruncate)); err != nil {
		return err
	}
	if c.kind != KindFile || c.vn.Type() != vfs.TypeFile {
		return errno.EINVAL
	}
	return c.vn.Truncate(size)
}

// Chmod changes permission bits.
func (c *Capability) Chmod(mode uint16) error {
	if err := c.require("chmod", priv.NewSet(priv.RChmod)); err != nil {
		return err
	}
	if c.vn == nil {
		return errno.EINVAL
	}
	c.vn.Chmod(mode)
	return nil
}

// --- directory operations ---

// Contents lists the directory's entry names.
func (c *Capability) Contents() ([]string, error) {
	if err := c.require("contents", priv.NewSet(priv.RContents)); err != nil {
		return nil, err
	}
	if c.kind != KindDir {
		return nil, errno.ENOTDIR
	}
	return c.proc.Kernel().FS.ReadDir(c.vn)
}

// Lookup derives a capability for the named child. Single-component
// names only — "a script cannot use lookup(cur, \"..\") to obtain the
// parent directory" (§2.1) and the runtime "requires that arguments that
// specify sub-paths contain only a single component" (§3.1.3).
func (c *Capability) Lookup(name string) (*Capability, error) {
	if err := c.require("lookup", priv.NewSet(priv.RLookup)); err != nil {
		return nil, err
	}
	if c.kind != KindDir {
		return nil, errno.ENOTDIR
	}
	if !vfs.ValidName(name) || name == "." || name == ".." {
		return nil, errno.EINVAL
	}
	child, err := c.proc.Kernel().FS.Lookup(c.vn, name)
	if err != nil {
		return nil, err
	}
	derived := c.grant.DerivedGrant(priv.RLookup)
	out := NewForVnode(c.proc, child, derived)
	out.blame = c.blame
	c.emitDerive(out, "lookup", name, rightsOf(derived), "")
	return out, nil
}

// ReadSymlink derives a capability for a symlink's target, resolved
// relative to this directory (single component targets only; others
// yield EINVAL, keeping capability safety).
func (c *Capability) ReadSymlink(name string) (*Capability, error) {
	if err := c.require("read-symlink", priv.NewSet(priv.RReadSymlink)); err != nil {
		return nil, err
	}
	if c.kind != KindDir {
		return nil, errno.ENOTDIR
	}
	link, err := c.proc.Kernel().FS.Lookup(c.vn, name)
	if err != nil {
		return nil, err
	}
	target, err := link.Readlink()
	if err != nil {
		return nil, err
	}
	if !vfs.ValidName(target) || target == "." || target == ".." {
		return nil, errno.EINVAL
	}
	child, err := c.proc.Kernel().FS.Lookup(c.vn, target)
	if err != nil {
		return nil, err
	}
	derived := c.grant.DerivedGrant(priv.RReadSymlink)
	out := NewForVnode(c.proc, child, derived)
	out.blame = c.blame
	c.emitDerive(out, "read-symlink", name, rightsOf(derived), "")
	return out, nil
}

// CreateFile creates a file in the directory and derives a capability
// for it with the create-file modifier's privileges.
func (c *Capability) CreateFile(name string, mode uint16) (*Capability, error) {
	if err := c.require("create-file", priv.NewSet(priv.RCreateFile)); err != nil {
		return nil, err
	}
	if c.kind != KindDir {
		return nil, errno.ENOTDIR
	}
	if !vfs.ValidName(name) || name == "." || name == ".." {
		return nil, errno.EINVAL
	}
	cred := c.proc.Cred()
	vn, err := c.proc.Kernel().FS.Create(c.vn, name, mode, cred.UID, cred.GID)
	if err != nil {
		return nil, err
	}
	derived := c.grant.DerivedGrant(priv.RCreateFile)
	out := NewFile(c.proc, vn, derived)
	out.blame = c.blame
	c.emitDerive(out, "create-file", name, rightsOf(derived), "")
	return out, nil
}

// CreateDir creates a subdirectory and derives a capability for it.
func (c *Capability) CreateDir(name string, mode uint16) (*Capability, error) {
	if err := c.require("create-dir", priv.NewSet(priv.RCreateDir)); err != nil {
		return nil, err
	}
	if c.kind != KindDir {
		return nil, errno.ENOTDIR
	}
	if !vfs.ValidName(name) || name == "." || name == ".." {
		return nil, errno.EINVAL
	}
	cred := c.proc.Cred()
	vn, err := c.proc.Kernel().FS.Mkdir(c.vn, name, mode, cred.UID, cred.GID)
	if err != nil {
		return nil, err
	}
	derived := c.grant.DerivedGrant(priv.RCreateDir)
	out := NewDir(c.proc, vn, derived)
	out.blame = c.blame
	c.emitDerive(out, "create-dir", name, rightsOf(derived), "")
	return out, nil
}

// Unlink removes the named entry from the directory. The required
// privilege depends on the entry's type (+unlink-file or +unlink-dir).
func (c *Capability) Unlink(name string) error {
	if c.kind != KindDir {
		return errno.ENOTDIR
	}
	if !vfs.ValidName(name) || name == "." || name == ".." {
		return errno.EINVAL
	}
	child, err := c.proc.Kernel().FS.Lookup(c.vn, name)
	if err != nil {
		return err
	}
	if child.IsDir() {
		if err := c.require("unlink-dir", priv.NewSet(priv.RUnlinkDir)); err != nil {
			return err
		}
		return c.proc.Kernel().FS.Unlink(c.vn, name, true)
	}
	if err := c.require("unlink-file", priv.NewSet(priv.RUnlinkFile)); err != nil {
		return err
	}
	return c.proc.Kernel().FS.Unlink(c.vn, name, false)
}

// UnlinkCap removes the entry only if it still refers to the given file
// capability (funlinkat semantics), requiring +unlink on the file.
func (c *Capability) UnlinkCap(name string, file *Capability) error {
	if c.kind != KindDir {
		return errno.ENOTDIR
	}
	if err := file.require("unlink", priv.NewSet(priv.RUnlink)); err != nil {
		return err
	}
	if err := c.require("lookup", priv.NewSet(priv.RLookup)); err != nil {
		return err
	}
	return c.proc.Kernel().FS.UnlinkIfSame(c.vn, name, file.vn)
}

// Link installs a hard link to the file capability at dir/name
// (flinkat semantics: +link on the file, +add-link on the directory).
func (c *Capability) Link(name string, file *Capability) error {
	if c.kind != KindDir {
		return errno.ENOTDIR
	}
	if err := c.require("add-link", priv.NewSet(priv.RAddLink)); err != nil {
		return err
	}
	if err := file.require("link", priv.NewSet(priv.RLink)); err != nil {
		return err
	}
	return c.proc.Kernel().FS.Link(c.vn, name, file.vn)
}

// Rename moves srcName from this directory to dstDir/dstName
// (frenameat-style, both ends named by capabilities).
func (c *Capability) Rename(srcName string, dstDir *Capability, dstName string) error {
	if c.kind != KindDir || dstDir.kind != KindDir {
		return errno.ENOTDIR
	}
	if err := c.require("unlink-file", priv.NewSet(priv.RUnlinkFile)); err != nil {
		return err
	}
	if err := dstDir.require("add-link", priv.NewSet(priv.RAddLink)); err != nil {
		return err
	}
	return c.proc.Kernel().FS.Rename(c.vn, srcName, dstDir.vn, dstName)
}

// CreateSymlink creates a symlink in the directory.
func (c *Capability) CreateSymlink(name, target string) error {
	if err := c.require("create-symlink", priv.NewSet(priv.RCreateSymlink)); err != nil {
		return err
	}
	if c.kind != KindDir {
		return errno.ENOTDIR
	}
	cred := c.proc.Cred()
	_, err := c.proc.Kernel().FS.Symlink(c.vn, name, target, cred.UID, cred.GID)
	return err
}
