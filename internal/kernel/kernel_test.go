package kernel

import (
	"errors"
	"testing"

	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/priv"
	"repro/internal/vfs"
)

// testWorld builds a kernel with a small filesystem image:
//
//	/home/alice/dog.jpg  (0644, alice=uid 1001)
//	/home/bob            (cwd for tests, uid 1002)
//	/etc/passwd
//	/tmp                 (1777)
func testWorld(t *testing.T, install bool) (*Kernel, *Proc) {
	t.Helper()
	k := New()
	if install {
		k.InstallShillModule()
	}
	t.Cleanup(k.Shutdown)
	mk := func(path string, mode uint16, uid int) {
		if _, err := k.FS.MkdirAll(path, mode, uid, uid); err != nil {
			t.Fatal(err)
		}
	}
	mk("/home/alice", 0o755, 1001)
	mk("/home/bob", 0o755, 1002)
	mk("/tmp", 0o777, 0)
	if _, err := k.FS.WriteFile("/home/alice/dog.jpg", []byte("JFIFdata"), 0o644, 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if _, err := k.FS.WriteFile("/etc/passwd", []byte("root:0\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := k.NewProc(1002, 1002)
	if err := p.Chdir("/home/bob"); err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestOpenReadClose(t *testing.T) {
	_, p := testWorld(t, false)
	fd, err := p.OpenAt(AtCWD, "/home/alice/dog.jpg", ORead, 0)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	buf := make([]byte, 4)
	n, err := p.Read(fd, buf)
	if err != nil || string(buf[:n]) != "JFIF" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); !errors.Is(err, errno.EBADF) {
		t.Fatal("double close should EBADF")
	}
}

func TestOpenCreateWriteRead(t *testing.T) {
	_, p := testWorld(t, false)
	fd, err := p.OpenAt(AtCWD, "notes.txt", ORead|OWrite|OCreate, 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := p.Write(fd, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Seek(fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := p.Read(fd, buf)
	if string(buf[:n]) != "data" {
		t.Fatalf("read back %q", buf[:n])
	}
}

func TestDACDeniesOtherUsersWrite(t *testing.T) {
	_, p := testWorld(t, false)
	// bob (uid 1002) cannot write alice's file.
	if _, err := p.OpenAt(AtCWD, "/home/alice/dog.jpg", OWrite, 0); !errors.Is(err, errno.EACCES) {
		t.Fatalf("open for write = %v, want EACCES", err)
	}
	// but can read it (0644).
	if _, err := p.OpenAt(AtCWD, "/home/alice/dog.jpg", ORead, 0); err != nil {
		t.Fatalf("open for read: %v", err)
	}
}

func TestRelativeAndDotDotResolution(t *testing.T) {
	_, p := testWorld(t, false)
	fd, err := p.OpenAt(AtCWD, "../alice/dog.jpg", ORead, 0)
	if err != nil {
		t.Fatalf("relative open: %v", err)
	}
	p.Close(fd)
}

func TestSymlinkFollowAndNoFollow(t *testing.T) {
	k, p := testWorld(t, false)
	if err := p.SymlinkAt("/home/alice/dog.jpg", AtCWD, "link"); err != nil {
		t.Fatal(err)
	}
	fd, err := p.OpenAt(AtCWD, "link", ORead, 0)
	if err != nil {
		t.Fatalf("open through symlink: %v", err)
	}
	p.Close(fd)
	if _, err := p.OpenAt(AtCWD, "link", ORead|ONoFollow, 0); !errors.Is(err, errno.ELOOP) {
		t.Fatalf("O_NOFOLLOW = %v, want ELOOP", err)
	}
	// Symlink loop detection.
	if err := p.SymlinkAt("loopb", AtCWD, "loopa"); err != nil {
		t.Fatal(err)
	}
	if err := p.SymlinkAt("loopa", AtCWD, "loopb"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenAt(AtCWD, "loopa", ORead, 0); !errors.Is(err, errno.ELOOP) {
		t.Fatalf("symlink loop = %v, want ELOOP", err)
	}
	_ = k
}

func TestPathSyscall(t *testing.T) {
	_, p := testWorld(t, false)
	fd, _ := p.OpenAt(AtCWD, "/home/alice/dog.jpg", ORead, 0)
	path, err := p.Path(fd)
	if err != nil || path != "/home/alice/dog.jpg" {
		t.Fatalf("Path = %q, %v", path, err)
	}
}

func TestFMkdirAtReturnsUsableFD(t *testing.T) {
	_, p := testWorld(t, false)
	dfd, err := p.FMkdirAt(AtCWD, "work", 0o755)
	if err != nil {
		t.Fatalf("FMkdirAt: %v", err)
	}
	if _, err := p.OpenAt(dfd, "inner.txt", OCreate|OWrite, 0o644); err != nil {
		t.Fatalf("create inside new dir: %v", err)
	}
}

func TestFLinkAtAndFUnlinkAt(t *testing.T) {
	_, p := testWorld(t, false)
	ffd, err := p.OpenAt(AtCWD, "orig", OCreate|OWrite, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p.Write(ffd, []byte("x"))
	dfd, err := p.OpenAt(AtCWD, ".", ORead|ODirectory, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FLinkAt(ffd, dfd, "alias"); err != nil {
		t.Fatalf("FLinkAt: %v", err)
	}
	st, err := p.FStatAt(AtCWD, "alias", true)
	if err != nil || st.Size != 1 {
		t.Fatalf("stat alias: %+v, %v", st, err)
	}
	// funlinkat only removes when the name still matches the fd.
	if err := p.FUnlinkAt(dfd, ffd, "alias"); err != nil {
		t.Fatalf("FUnlinkAt: %v", err)
	}
	if err := p.UnlinkAt(AtCWD, "orig", false); err != nil {
		t.Fatal(err)
	}
	if err := p.FUnlinkAt(dfd, ffd, "orig"); !errors.Is(err, errno.ENOENT) {
		t.Fatalf("FUnlinkAt gone = %v", err)
	}
}

func TestFRenameAt(t *testing.T) {
	_, p := testWorld(t, false)
	ffd, _ := p.OpenAt(AtCWD, "src", OCreate|OWrite, 0o644)
	dfd, _ := p.OpenAt(AtCWD, ".", ORead|ODirectory, 0)
	if err := p.FRenameAt(ffd, dfd, "src", dfd, "dst"); err != nil {
		t.Fatalf("FRenameAt: %v", err)
	}
	if _, err := p.FStatAt(AtCWD, "dst", true); err != nil {
		t.Fatal("dst missing after frenameat")
	}
	// Stale source name now fails.
	if err := p.FRenameAt(ffd, dfd, "src", dfd, "other"); !errors.Is(err, errno.ENOENT) {
		t.Fatalf("stale frenameat = %v", err)
	}
}

func TestSpawnWaitEcho(t *testing.T) {
	k, p := testWorld(t, false)
	k.RegisterBinary("true", func(p *Proc, argv []string) int { return 0 })
	vn, err := k.FS.WriteFile("/bin/true", []byte("#!bin:true\n"), 0o755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.SpawnWait(vn, nil, SpawnAttr{})
	if err != nil || code != 0 {
		t.Fatalf("SpawnWait = %d, %v", code, err)
	}
}

// TestSpawnWaitContainsPanic: a binary that panics kills only its own
// process, which exits 134 (SIGABRT); the Go process and the kernel
// live on.
func TestSpawnWaitContainsPanic(t *testing.T) {
	k, p := testWorld(t, false)
	k.RegisterBinary("crash", func(p *Proc, argv []string) int { panic("boom") })
	k.RegisterBinary("true", func(p *Proc, argv []string) int { return 0 })
	crash, _ := k.FS.WriteFile("/bin/crash", []byte("#!bin:crash\n"), 0o755, 0, 0)
	ok, _ := k.FS.WriteFile("/bin/true", []byte("#!bin:true\n"), 0o755, 0, 0)
	if code, err := p.SpawnWait(crash, nil, SpawnAttr{}); err != nil || code != 134 {
		t.Fatalf("SpawnWait(crash) = %d, %v; want 134, nil", code, err)
	}
	if code, err := p.SpawnWait(ok, nil, SpawnAttr{}); err != nil || code != 0 {
		t.Fatalf("SpawnWait(true) after the crash = %d, %v", code, err)
	}
}

func TestSpawnStdioPipes(t *testing.T) {
	k, p := testWorld(t, false)
	k.RegisterBinary("upper", func(p *Proc, argv []string) int {
		buf := make([]byte, 64)
		n, _ := p.Read(0, buf)
		out := make([]byte, n)
		for i := 0; i < n; i++ {
			c := buf[i]
			if 'a' <= c && c <= 'z' {
				c -= 32
			}
			out[i] = c
		}
		p.Write(1, out)
		return 0
	})
	vn, _ := k.FS.WriteFile("/bin/upper", []byte("#!bin:upper\n"), 0o755, 0, 0)

	inR, inW, _ := p.MakePipe()
	outR, outW, _ := p.MakePipe()
	p.Write(inW, []byte("hi"))
	p.Close(inW)

	inFD, _ := p.FD(inR)
	outFD, _ := p.FD(outW)
	child, err := p.Spawn(vn, nil, SpawnAttr{Stdin: inFD, Stdout: outFD})
	if err != nil {
		t.Fatal(err)
	}
	p.Close(outW) // drop parent's write end so EOF propagates
	if _, err := p.Wait(child.PID()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := p.Read(outR, buf)
	if string(buf[:n]) != "HI" {
		t.Fatalf("child output = %q", buf[:n])
	}
}

func TestUlimitNoFile(t *testing.T) {
	_, p := testWorld(t, false)
	lim := p.Limits()
	lim.MaxOpenFiles = 3
	p.SetLimits(lim)
	var fds []int
	for i := 0; i < 3; i++ {
		fd, err := p.OpenAt(AtCWD, "/etc/passwd", ORead, 0)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		fds = append(fds, fd)
	}
	if _, err := p.OpenAt(AtCWD, "/etc/passwd", ORead, 0); !errors.Is(err, errno.EMFILE) {
		t.Fatalf("over-limit open = %v, want EMFILE", err)
	}
	for _, fd := range fds {
		p.Close(fd)
	}
}

func TestUlimitFileSize(t *testing.T) {
	_, p := testWorld(t, false)
	lim := p.Limits()
	lim.MaxFileSize = 4
	p.SetLimits(lim)
	fd, _ := p.OpenAt(AtCWD, "big", OCreate|OWrite, 0o644)
	if _, err := p.Write(fd, []byte("12345")); !errors.Is(err, errno.EFBIG) {
		t.Fatalf("oversized write = %v, want EFBIG", err)
	}
}

// --- sandbox session behaviour ---

// sandboxProc forks p into an entered session holding the given grants.
func sandboxProc(t *testing.T, p *Proc, grants map[string]*priv.Grant) *Proc {
	t.Helper()
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.ShillInit(SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	for path, g := range grants {
		vn := p.Kernel().FS.MustResolve(path)
		if err := child.ShillGrant(vn, g); err != nil {
			t.Fatalf("grant %s: %v", path, err)
		}
	}
	if err := child.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	return child
}

// TestFigure8LookupPropagation reproduces both panels of Figure 8:
// resolving open("../alice/dog.jpg", O_RDONLY) from /home/bob in a
// sandbox.
func TestFigure8LookupPropagation(t *testing.T) {
	lookupWithRead := priv.NewGrant(priv.RLookup).
		WithDerived(priv.RLookup, priv.NewGrant(priv.RRead, priv.RLookup).
			WithDerived(priv.RLookup, priv.NewGrant(priv.RRead)))

	t.Run("left: no privilege on /home, open fails", func(t *testing.T) {
		_, p := testWorld(t, true)
		sb := sandboxProc(t, p, map[string]*priv.Grant{
			"/home/alice": lookupWithRead,
			"/home/bob":   priv.NewGrant(priv.RLookup),
		})
		_, err := sb.OpenAt(AtCWD, "../alice/dog.jpg", ORead, 0)
		if !errors.Is(err, errno.EACCES) {
			t.Fatalf("open = %v, want EACCES", err)
		}
	})

	t.Run("right: +lookup on /home, open succeeds and propagates", func(t *testing.T) {
		k, p := testWorld(t, true)
		sb := sandboxProc(t, p, map[string]*priv.Grant{
			"/home/alice": lookupWithRead,
			"/home/bob":   priv.NewGrant(priv.RLookup),
			"/home":       priv.NewGrant(priv.RLookup),
		})
		fd, err := sb.OpenAt(AtCWD, "../alice/dog.jpg", ORead, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		buf := make([]byte, 4)
		if _, err := sb.Read(fd, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		// The +read privilege must have been propagated to dog.jpg.
		dog := k.FS.MustResolve("/home/alice/dog.jpg")
		g := k.Policy.SessionGrantOn(sb.Session(), dog)
		if !g.Has(priv.RRead) {
			t.Fatalf("dog.jpg grant = %v, want +read", g)
		}
		// But /home must NOT have gained privileges via "..".
		home := k.FS.MustResolve("/home")
		hg := k.Policy.SessionGrantOn(sb.Session(), home)
		if hg == nil || hg.Rights != priv.NewSet(priv.RLookup) {
			t.Fatalf("/home grant = %v, want exactly +lookup", hg)
		}
	})
}

func TestDotLookupDoesNotAmplify(t *testing.T) {
	k, p := testWorld(t, true)
	// Footnote 5: +lookup with {+stat} on d, then openat(d, ".") must not
	// give the session +stat on d itself.
	g := priv.NewGrant(priv.RLookup).WithDerived(priv.RLookup, priv.NewGrant(priv.RStat))
	sb := sandboxProc(t, p, map[string]*priv.Grant{"/home/bob": g})
	_, err := sb.OpenAt(AtCWD, ".", ORead|ODirectory, 0)
	if err != nil {
		t.Fatalf("open .: %v", err)
	}
	bob := k.FS.MustResolve("/home/bob")
	got := k.Policy.SessionGrantOn(sb.Session(), bob)
	if got.Has(priv.RStat) {
		t.Fatal("\".\" lookup amplified privileges on the directory")
	}
}

func TestSandboxDeniesUnlabelled(t *testing.T) {
	_, p := testWorld(t, true)
	sb := sandboxProc(t, p, nil)
	if _, err := sb.OpenAt(AtCWD, "/etc/passwd", ORead, 0); !errors.Is(err, errno.EACCES) {
		t.Fatalf("unlabelled open = %v, want EACCES", err)
	}
}

func TestWriteRequiresWriteAndAppend(t *testing.T) {
	k, p := testWorld(t, true)
	if _, err := k.FS.WriteFile("/home/bob/out.txt", nil, 0o666, 1002, 1002); err != nil {
		t.Fatal(err)
	}
	// Only +write, no +append: the conservative MAC rule (§3.2.3) denies.
	sb := sandboxProc(t, p, map[string]*priv.Grant{
		"/home/bob":         priv.NewGrant(priv.RLookup),
		"/home/bob/out.txt": priv.NewGrant(priv.RWrite),
	})
	if _, err := sb.OpenAt(AtCWD, "out.txt", OWrite, 0); !errors.Is(err, errno.EACCES) {
		t.Fatalf("write-only open = %v, want EACCES", err)
	}
	sb2 := sandboxProc(t, p, map[string]*priv.Grant{
		"/home/bob":         priv.NewGrant(priv.RLookup),
		"/home/bob/out.txt": priv.NewGrant(priv.RWrite, priv.RAppend),
	})
	fd, err := sb2.OpenAt(AtCWD, "out.txt", OWrite, 0)
	if err != nil {
		t.Fatalf("write+append open: %v", err)
	}
	if _, err := sb2.Write(fd, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestCreateFileModifierGrantsOnlyModifierRights(t *testing.T) {
	k, p := testWorld(t, true)
	// Grading-directory contract: create append-only files.
	g := priv.NewGrant(priv.RLookup, priv.RCreateFile).
		WithDerived(priv.RCreateFile, priv.NewGrant(priv.RWrite, priv.RAppend, priv.RStat))
	sb := sandboxProc(t, p, map[string]*priv.Grant{"/home/bob": g})
	fd, err := sb.OpenAt(AtCWD, "grade.log", OCreate|OWrite, 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := sb.Write(fd, []byte("A+")); err != nil {
		t.Fatalf("append to created file: %v", err)
	}
	// Reading the created file must fail: the modifier gave no +read.
	if _, err := sb.OpenAt(AtCWD, "grade.log", ORead, 0); !errors.Is(err, errno.EACCES) {
		t.Fatalf("read created file = %v, want EACCES", err)
	}
	vn := k.FS.MustResolve("/home/bob/grade.log")
	got := k.Policy.SessionGrantOn(sb.Session(), vn)
	if got.Has(priv.RRead) {
		t.Fatal("created file has +read it should not have")
	}
}

func TestNoMergeOfConflictingCreateModifiers(t *testing.T) {
	k, p := testWorld(t, true)
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.ShillInit(SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	bob := k.FS.MustResolve("/home/bob")
	readOnlyCreate := priv.NewGrant(priv.RCreateFile).
		WithDerived(priv.RCreateFile, priv.NewGrant(priv.RRead, priv.RStat, priv.RPath))
	writeCreate := priv.NewGrant(priv.RCreateFile).
		WithDerived(priv.RCreateFile, priv.NewGrant(priv.RWrite))
	if err := child.ShillGrant(bob, readOnlyCreate); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillGrant(bob, writeCreate); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	got := k.Policy.SessionGrantOn(child.Session(), bob)
	sub := got.DerivedGrant(priv.RCreateFile)
	if sub.Has(priv.RWrite) {
		t.Fatalf("conflicting create-file modifiers were merged: %v", sub)
	}
	if !sub.Has(priv.RRead) {
		t.Fatalf("original modifier lost: %v", sub)
	}
}

func TestSubSessionAttenuationOnly(t *testing.T) {
	k, p := testWorld(t, true)
	dog := k.FS.MustResolve("/home/alice/dog.jpg")
	sb := sandboxProc(t, p, map[string]*priv.Grant{
		"/home/alice/dog.jpg": priv.NewGrant(priv.RRead, priv.RStat),
	})
	// The sandboxed process spawns a sub-session. It may grant at most
	// what it has.
	sub, err := sb.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.ShillInit(SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sub.ShillGrant(dog, priv.NewGrant(priv.RRead)); err != nil {
		t.Fatalf("attenuated grant: %v", err)
	}
	if err := sub.ShillGrant(dog, priv.NewGrant(priv.RWrite)); !errors.Is(err, errno.EPERM) {
		t.Fatalf("amplified grant = %v, want EPERM", err)
	}
}

// TestParentSessionOutlivesChild is the regression test for the session
// lifetime rule: when the only process of S1 moves into child session
// S2, S1's privilege maps must survive (S2's grants are checked against
// them) until S2 itself is gone.
func TestParentSessionOutlivesChild(t *testing.T) {
	k, p := testWorld(t, true)
	dog := k.FS.MustResolve("/home/alice/dog.jpg")
	sb := sandboxProc(t, p, map[string]*priv.Grant{
		"/home/alice/dog.jpg": priv.NewGrant(priv.RRead, priv.RStat),
	})
	parent := sb.Session()
	if _, err := sb.ShillInit(SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	// Give the async cleaner every chance to misbehave.
	for i := 0; i < 100; i++ {
		if g := k.Policy.SessionGrantOn(parent, dog); g == nil {
			t.Fatal("parent session privileges scrubbed while child session lives")
		}
	}
	// Attenuated grants still check out against the live parent.
	if err := sb.ShillGrant(dog, priv.NewGrant(priv.RRead)); err != nil {
		t.Fatalf("grant from parent session: %v", err)
	}
	if err := sb.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	child := sb.Session()
	// When both the child and its process are gone, the chain unwinds.
	sb.Exit(0)
	p.Wait(sb.PID())
	k.Shutdown() // drain cleanup
	if g := k.Policy.SessionGrantOn(child, dog); g != nil {
		t.Fatal("child session privileges survived teardown")
	}
	if g := k.Policy.SessionGrantOn(parent, dog); g != nil {
		t.Fatal("parent session privileges survived teardown")
	}
}

func TestGrantAfterEnterRejected(t *testing.T) {
	k, p := testWorld(t, true)
	sb := sandboxProc(t, p, nil)
	dog := k.FS.MustResolve("/home/alice/dog.jpg")
	if err := sb.ShillGrant(dog, priv.NewGrant(priv.RRead)); !errors.Is(err, errno.EPERM) {
		t.Fatalf("grant after enter = %v, want EPERM", err)
	}
}

func TestProcessConfinement(t *testing.T) {
	k, p := testWorld(t, true)
	k.RegisterBinary("sleepish", func(p *Proc, argv []string) int {
		<-p.Done() // run until killed
		return 0
	})
	vn, _ := k.FS.WriteFile("/bin/sleepish", []byte("#!bin:sleepish\n"), 0o755, 0, 0)
	outsider, err := p.Spawn(vn, nil, SpawnAttr{})
	if err != nil {
		t.Fatal(err)
	}
	sb := sandboxProc(t, p, nil)
	// A sandboxed process cannot signal a process outside its session.
	if err := sb.Kill(outsider.PID()); !errors.Is(err, errno.EPERM) {
		t.Fatalf("cross-session kill = %v, want EPERM", err)
	}
	outsider.Exit(0)
	p.Wait(outsider.PID())
}

func TestFigure7SystemResources(t *testing.T) {
	_, p := testWorld(t, true)
	sb := sandboxProc(t, p, nil)

	// Sysctl: read-only in the sandbox.
	if _, err := sb.SysctlGet("kern.ostype"); err != nil {
		t.Fatalf("sandbox sysctl read: %v", err)
	}
	if err := sb.SysctlSet("kern.ostype", "evil"); !errors.Is(err, errno.EPERM) {
		t.Fatalf("sandbox sysctl write = %v, want EPERM", err)
	}
	// Kernel environment: denied.
	if _, err := sb.KenvGet("kernelname"); !errors.Is(err, errno.EPERM) {
		t.Fatalf("sandbox kenv read = %v, want EPERM", err)
	}
	// Kernel modules: denied — including unloading the MAC module.
	if err := sb.KldUnload("shill.ko"); !errors.Is(err, errno.EPERM) {
		t.Fatalf("sandbox kld unload = %v, want EPERM", err)
	}
	// POSIX and System V IPC: denied.
	if err := sb.SemOpen("/sem", 1); !errors.Is(err, errno.EPERM) {
		t.Fatalf("sandbox sem_open = %v, want EPERM", err)
	}
	if err := sb.ShmGet(42, 128); !errors.Is(err, errno.EPERM) {
		t.Fatalf("sandbox shmget = %v, want EPERM", err)
	}

	// Outside a sandbox all of these pass the MAC layer (DAC may still
	// apply).
	if _, err := p.SysctlGet("kern.ostype"); err != nil {
		t.Fatalf("ambient sysctl: %v", err)
	}
	if _, err := p.KenvGet("kernelname"); err != nil {
		t.Fatalf("ambient kenv: %v", err)
	}
	if err := p.SemOpen("/sem", 1); err != nil {
		t.Fatalf("ambient sem_open: %v", err)
	}
}

func TestDebugSessionAutoGrants(t *testing.T) {
	k, p := testWorld(t, true)
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.ShillInit(SessionOptions{Debug: true}); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	// With no grants at all, a debug session can still open the file —
	// and the log records what would have been needed.
	fd, err := child.OpenAt(AtCWD, "/home/alice/dog.jpg", ORead, 0)
	if err != nil {
		t.Fatalf("debug open: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := child.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	ag := child.Session().Log().AutoGrants()
	if len(ag) == 0 {
		t.Fatal("no auto-grants recorded")
	}
	var sawLookup, sawRead bool
	for _, e := range ag {
		if e.Rights.Has(priv.RLookup) {
			sawLookup = true
		}
		if e.Rights.Has(priv.RRead) {
			sawRead = true
		}
	}
	if !sawLookup || !sawRead {
		t.Fatalf("auto-grants missing lookup/read: %v", ag)
	}
	_ = k
}

func TestSessionTeardownScrubsPrivmaps(t *testing.T) {
	k, p := testWorld(t, true)
	dog := k.FS.MustResolve("/home/alice/dog.jpg")
	child, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.ShillInit(SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillGrant(dog, priv.NewGrant(priv.RRead)); err != nil {
		t.Fatal(err)
	}
	if err := child.ShillEnter(); err != nil {
		t.Fatal(err)
	}
	sess := child.Session()
	child.Exit(0)
	if _, err := p.Wait(child.PID()); err != nil {
		t.Fatal(err)
	}
	k.Shutdown() // drain the async cleaner
	if g := k.Policy.SessionGrantOn(sess, dog); g != nil {
		t.Fatalf("privilege map entry survived teardown: %v", g)
	}
}

func TestShillInstalledNoSessionIsTransparent(t *testing.T) {
	_, p := testWorld(t, true)
	// With the module installed but no session, everything DAC allows
	// works (the "SHILL installed" configuration).
	fd, err := p.OpenAt(AtCWD, "/home/alice/dog.jpg", ORead, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := p.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
}

func TestExecRequiresPrivilege(t *testing.T) {
	k, p := testWorld(t, true)
	k.RegisterBinary("true", func(p *Proc, argv []string) int { return 0 })
	vn, _ := k.FS.WriteFile("/bin/true", []byte("#!bin:true\n"), 0o755, 0, 0)
	sb := sandboxProc(t, p, nil)
	if _, err := sb.SpawnWait(vn, nil, SpawnAttr{}); !errors.Is(err, errno.EACCES) {
		t.Fatalf("exec without +exec = %v, want EACCES", err)
	}
	sb2 := sandboxProc(t, p, map[string]*priv.Grant{
		"/bin/true": priv.NewGrant(priv.RExec, priv.RRead, priv.RStat),
	})
	code, err := sb2.SpawnWait(vn, nil, SpawnAttr{})
	if err != nil || code != 0 {
		t.Fatalf("exec with +exec = %d, %v", code, err)
	}
}

func TestSpawnedChildSharesSession(t *testing.T) {
	k, p := testWorld(t, true)
	var childSession *Session
	k.RegisterBinary("probe", func(p *Proc, argv []string) int {
		childSession = p.Session()
		return 0
	})
	vn, _ := k.FS.WriteFile("/bin/probe", []byte("#!bin:probe\n"), 0o755, 0, 0)
	sb := sandboxProc(t, p, map[string]*priv.Grant{
		"/bin/probe": priv.NewGrant(priv.RExec, priv.RRead, priv.RStat),
	})
	if _, err := sb.SpawnWait(vn, nil, SpawnAttr{}); err != nil {
		t.Fatal(err)
	}
	if childSession != sb.Session() {
		t.Fatal("spawned child not placed in parent's session")
	}
}

func TestMACFrameworkComposition(t *testing.T) {
	k, p := testWorld(t, false)
	denyAll := &denyPolicy{}
	if err := k.MAC.Register(denyAll); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenAt(AtCWD, "/etc/passwd", ORead, 0); !errors.Is(err, errno.EACCES) {
		t.Fatalf("deny policy not consulted: %v", err)
	}
	if err := k.MAC.Unregister("deny"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenAt(AtCWD, "/etc/passwd", ORead, 0); err != nil {
		t.Fatalf("open after unregister: %v", err)
	}
}

type denyPolicy struct{ mac.BasePolicy }

func (*denyPolicy) Name() string { return "deny" }
func (*denyPolicy) VnodeCheck(*mac.Cred, mac.Labeled, mac.VnodeOp, string) error {
	return errno.EACCES
}

func TestSingleComponentValidName(t *testing.T) {
	if vfs.ValidName("alice/dog.jpg") {
		t.Fatal("multi-component name reported valid")
	}
	if !vfs.ValidName("alice") {
		t.Fatal("single component rejected")
	}
}
