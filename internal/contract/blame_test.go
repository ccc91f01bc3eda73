package contract_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cap"
	"repro/internal/contract"
	"repro/internal/kernel"
	"repro/internal/priv"
)

// blameWorld builds a kernel, an unprivileged process, and a full-grant
// capability for a staged file.
func blameWorld(t *testing.T) (*kernel.Kernel, *cap.Capability) {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	if _, err := k.FS.WriteFile("/w/doc.txt", []byte("text"), 0o666, 1001, 1001); err != nil {
		t.Fatal(err)
	}
	proc := k.NewProc(1001, 1001)
	return k, cap.NewFile(proc, k.FS.MustResolve("/w/doc.txt"), priv.FullGrant()).Announce("test")
}

// TestBlameChainNamesEveryRestrictingContract: a capability attenuated
// by a stack of labelled contracts reports the whole chain, outermost
// first, in both the script-visible error and the audited denial — so
// "which contract took this privilege away" is always answerable.
func TestBlameChainNamesEveryRestrictingContract(t *testing.T) {
	k, file := blameWorld(t)

	outer := &contract.CapC{Mask: contract.MaskFile,
		Grant: priv.GrantOf(priv.NewSet(priv.RRead, priv.RAppend, priv.RStat)), Label: "outer-policy"}
	inner := &contract.CapC{Mask: contract.MaskFile,
		Grant: priv.GrantOf(priv.NewSet(priv.RRead, priv.RStat)), Label: "inner-readonly"}

	v1, err := outer.Apply(file, contract.Blame{Pos: "provider.cap", Neg: "client"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := inner.Apply(v1, contract.Blame{Pos: "provider.cap", Neg: "client"})
	if err != nil {
		t.Fatal(err)
	}
	restricted := v2.(*cap.Capability)

	if got := restricted.BlameChain(); len(got) != 2 || got[0] != "outer-policy" || got[1] != "inner-readonly" {
		t.Fatalf("blame chain = %v, want [outer-policy inner-readonly]", got)
	}

	// Reads stay allowed; a write must fail naming the chain.
	if _, err := restricted.Read(); err != nil {
		t.Fatalf("read through the restricted capability: %v", err)
	}
	seq := k.Audit().Seq()
	werr := restricted.Write([]byte("nope"))
	if werr == nil {
		t.Fatal("write through a read-only chain succeeded")
	}
	var np *cap.NoPrivilegeError
	if !errors.As(werr, &np) {
		t.Fatalf("want NoPrivilegeError, got %T: %v", werr, werr)
	}
	if len(np.Blame) != 2 || np.Blame[0] != "outer-policy" || np.Blame[1] != "inner-readonly" {
		t.Fatalf("error blame = %v, want the full restriction chain", np.Blame)
	}
	if !np.Missing.Has(priv.RWrite) {
		t.Fatalf("missing = %v, want +write", np.Missing)
	}
	msg := werr.Error()
	if !strings.Contains(msg, "outer-policy") || !strings.Contains(msg, "inner-readonly") {
		t.Fatalf("rendered error must name the restricting contracts: %q", msg)
	}

	// The audited denial carries the same chain.
	reasons := k.Audit().DenyReasonsSince(seq)
	found := false
	for _, d := range reasons {
		d.Resolve() // blame is described lazily; force it for field reads
		if d.Layer == audit.LayerCapability && d.Missing.Has(priv.RWrite) {
			found = true
			if len(d.Blame) == 0 || !strings.Contains(d.Blame[0], "outer-policy") ||
				!strings.Contains(d.Blame[0], "inner-readonly") {
				t.Fatalf("audited denial blame = %v, want the restriction chain", d.Blame)
			}
		}
	}
	if !found {
		t.Fatalf("no audited capability denial recorded; window: %v", reasons)
	}
}

// TestFuncContractBlameParties: a function contract blames the right
// party — the consumer for a bad argument, the provider for a bad
// result — and the violation names the offending parameter.
func TestFuncContractBlameParties(t *testing.T) {
	_, file := blameWorld(t)

	fc := &contract.FuncC{
		Params: []contract.Param{{Name: "n", C: contract.IsNum}},
		Result: contract.IsString,
	}
	badResult := callable{name: "bad", fn: func(args []contract.Value) (contract.Value, error) {
		return 42.0, nil // violates the is_string postcondition
	}}
	wrapped, err := fc.Apply(badResult, contract.Blame{Pos: "provider.cap", Neg: "client"})
	if err != nil {
		t.Fatal(err)
	}
	fn := wrapped.(contract.Callable)

	// Bad argument: the consumer (negative party) is blamed.
	_, aerr := fn.Call([]contract.Value{file}, nil)
	v := asViolation(t, aerr)
	if v.Blamed != "client" {
		t.Fatalf("argument violation blames %q, want the consumer %q", v.Blamed, "client")
	}
	if !strings.Contains(v.Message, `argument "n"`) {
		t.Fatalf("violation must name the offending parameter: %q", v.Message)
	}

	// Bad result: the provider (positive party) is blamed.
	_, rerr := fn.Call([]contract.Value{1.0}, nil)
	v = asViolation(t, rerr)
	if v.Blamed != "provider.cap" {
		t.Fatalf("result violation blames %q, want the provider %q", v.Blamed, "provider.cap")
	}
}

type callable struct {
	name string
	fn   func(args []contract.Value) (contract.Value, error)
}

func (c callable) FuncName() string { return c.name }
func (c callable) Call(args []contract.Value, named map[string]contract.Value) (contract.Value, error) {
	return c.fn(args)
}

func asViolation(t *testing.T, err error) *contract.Violation {
	t.Helper()
	var v *contract.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want contract.Violation, got %T: %v", err, err)
	}
	return v
}
