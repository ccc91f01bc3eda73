package repro

// Layer microbenchmarks that no paper figure covers: lookup
// propagation, sandbox setup, contract application, interpreter startup
// and pkg_native. The paper's figures (7, 9, 10, 11, the §4.1 line
// counts and the §4.2 depth sweep) are regenerated by cmd/benchfig
// alone; the serving benchmark is perfbench.

import (
	"context"
	"testing"

	"repro/internal/binaries"
	"repro/internal/contract"
	"repro/internal/kernel"
	"repro/internal/priv"
	"repro/shill"
)

// bg: benchmarks run without deadlines.
var bg = context.Background()

// benchMachine builds a machine, failing the benchmark on error.
func benchMachine(b *testing.B, opts ...shill.Option) *shill.Machine {
	b.Helper()
	m, err := shill.NewMachine(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// sandboxedWorld builds the nested-directory world the ablation walks
// and returns a proc inside an entered session that holds a
// read-everything capability on /data (lookup inherits), as if the
// sandbox had been handed that directory capability.
func sandboxedWorld(b *testing.B) (*kernel.Kernel, *kernel.Proc) {
	b.Helper()
	k := kernel.New()
	k.InstallShillModule()
	b.Cleanup(k.Shutdown)
	if _, err := k.FS.WriteFile("/data/a/b/c/d/deep.bin", []byte("0123456789"), 0o666, 0, 0); err != nil {
		b.Fatal(err)
	}
	child, err := k.NewProc(0, 0).Fork()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := child.ShillInit(kernel.SessionOptions{}); err != nil {
		b.Fatal(err)
	}
	if err := child.ShillGrant(k.FS.MustResolve("/"), priv.NewGrant(priv.RLookup, priv.RStat, priv.RPath)); err != nil {
		b.Fatal(err)
	}
	if err := child.ShillGrant(k.FS.MustResolve("/data"), priv.GrantOf(priv.ReadOnlyDir)); err != nil {
		b.Fatal(err)
	}
	// Set the working directory while the session still accepts
	// configuration, as sandbox.Exec does.
	if err := child.Chdir("/data"); err != nil {
		b.Fatal(err)
	}
	if err := child.ShillEnter(); err != nil {
		b.Fatal(err)
	}
	return k, child
}

// --- Ablations ---

// BenchmarkAblationPropagation compares lookup-heavy opens with
// propagation enabled (normal), disabled with per-object grants
// (the configuration propagation replaces), and shows the check-only
// cost.
func BenchmarkAblationPropagation(b *testing.B) {
	b.Run("propagation", func(b *testing.B) {
		_, p := sandboxedWorld(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fd, err := p.OpenAt(kernel.AtCWD, "a/b/c/d/deep.bin", kernel.ORead, 0)
			if err != nil {
				b.Fatal(err)
			}
			p.Close(fd)
		}
	})
	b.Run("static-grants", func(b *testing.B) {
		k, p := sandboxedWorld(b)
		k.Policy.SetPropagation(false)
		b.Cleanup(func() { k.Policy.SetPropagation(true) })
		// Without propagation every object needs an explicit grant; this
		// is the configuration the post_lookup hook exists to avoid.
		sess := p.Session()
		for _, path := range []string{"/data/a", "/data/a/b", "/data/a/b/c", "/data/a/b/c/d", "/data/a/b/c/d/deep.bin"} {
			k.Policy.GrantToSession(sess, k.FS.MustResolve(path), priv.GrantOf(priv.ReadOnlyDir))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fd, err := p.OpenAt(kernel.AtCWD, "a/b/c/d/deep.bin", kernel.ORead, 0)
			if err != nil {
				b.Fatal(err)
			}
			p.Close(fd)
		}
	})
}

// BenchmarkSandboxSetup isolates the cost of creating one sandbox (the
// unit cost behind Grading's 5,371 and Find's 15,292 setups). It works
// on a bare kernel: the sandbox lifecycle is below the embedding API.
func BenchmarkSandboxSetup(b *testing.B) {
	k := kernel.New()
	binaries.Register(k)
	k.InstallShillModule()
	b.Cleanup(k.Shutdown)
	if _, err := k.FS.WriteFile("/bin/true", []byte("#!bin:true\n"), 0o755, 0, 0); err != nil {
		b.Fatal(err)
	}
	runtime := k.NewProc(1001, 1001)
	vn := k.FS.MustResolve("/bin/true")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := runtime.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := child.ShillInit(kernel.SessionOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := child.ShillGrant(vn, priv.GrantOf(priv.ExecFile)); err != nil {
			b.Fatal(err)
		}
		if err := child.ShillEnter(); err != nil {
			b.Fatal(err)
		}
		if err := child.Exec(vn, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := runtime.Wait(child.PID()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContractCheck isolates contract-application cost: the
// pkg_native result contract, checked once per sandbox, dominates
// contract time in the paper's profile.
func BenchmarkContractCheck(b *testing.B) {
	s := benchMachine(b)
	defer s.Close()
	c := &contract.FuncC{
		Params: []contract.Param{{Name: "args", C: contract.IsList}},
		Result: contract.IsNum,
	}
	fn := benchCallable{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrapped, err := c.Apply(fn, contract.Blame{Pos: "bench", Neg: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wrapped.(contract.Callable).Call([]contract.Value{[]contract.Value{}}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

type benchCallable struct{}

func (benchCallable) FuncName() string { return "bench" }
func (benchCallable) Call([]contract.Value, map[string]contract.Value) (contract.Value, error) {
	return float64(0), nil
}

// BenchmarkInterpreterStartup measures the fixed per-run cost the paper
// calls "Racket startup" — the dominant cost of the Download and
// Uninstall benchmarks (§4.2).
func BenchmarkInterpreterStartup(b *testing.B) {
	s := benchMachine(b)
	defer s.Close()
	sess := s.DefaultSession()
	src := "#lang shill/ambient\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(bg, shill.Script{Name: "empty.ambient", Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPkgNative measures wallet construction plus pkg_native — the
// per-tool packaging cost, including the ldd sandbox.
func BenchmarkPkgNative(b *testing.B) {
	s := benchMachine(b, shill.WithConsoleLimit(1<<20))
	defer s.Close()
	s.AddScript("pkg.cap", `#lang shill/cap
require shill/native;

provide pack : {wallet : native_wallet} -> any;
pack = fun(wallet) { pkg_native("grep", wallet); };
`)
	ambient := `#lang shill/ambient
require shill/native;
require "pkg.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory());
pack(wallet);
`
	sess := s.DefaultSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(bg, shill.Script{Name: "bench.ambient", Source: ambient}); err != nil {
			b.Fatal(err)
		}
	}
}
