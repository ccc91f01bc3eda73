package contract

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/priv"
	"repro/internal/wallet"
)

// world builds a kernel with a file and a directory plus full-privilege
// capabilities for them.
func world(t *testing.T) (*kernel.Kernel, *cap.Capability, *cap.Capability) {
	t.Helper()
	k := kernel.New()
	t.Cleanup(k.Shutdown)
	if _, err := k.FS.WriteFile("/d/f.txt", []byte("hello"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := k.NewProc(0, 0)
	dir := cap.NewDir(p, k.FS.MustResolve("/d"), priv.FullGrant())
	file := cap.NewFile(p, k.FS.MustResolve("/d/f.txt"), priv.FullGrant())
	return k, dir, file
}

var testBlame = Blame{Pos: "provider", Neg: "consumer"}

func TestPredicates(t *testing.T) {
	_, dir, file := world(t)
	cases := []struct {
		p    *Pred
		v    Value
		want bool
	}{
		{IsFile, file, true},
		{IsFile, dir, false},
		{IsDir, dir, true},
		{IsDir, file, false},
		{IsBool, true, true},
		{IsBool, "no", false},
		{IsString, "s", true},
		{IsNum, 3.0, true},
		{IsNum, 3, false}, // language numbers are float64
		{IsList, []Value{}, true},
		{IsWallet, wallet.New(), true},
		{Any, nil, true},
	}
	for _, c := range cases {
		if got := c.p.Fn(c.v); got != c.want {
			t.Errorf("%s(%v) = %v, want %v", c.p.Name, Describe(c.v), got, c.want)
		}
	}
}

func TestPredApplyBlamesProvider(t *testing.T) {
	_, _, file := world(t)
	_, err := IsDir.Apply(file, testBlame)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want Violation, got %v", err)
	}
	if v.Blamed != "provider" {
		t.Fatalf("blamed %q, want provider", v.Blamed)
	}
}

func TestCapCAttenuates(t *testing.T) {
	_, _, file := world(t)
	c := &CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead, priv.RPath)}
	out, err := c.Apply(file, testBlame)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := out.(*cap.Capability)
	if _, err := wrapped.Read(); err != nil {
		t.Fatalf("read within contract: %v", err)
	}
	if err := wrapped.Write([]byte("x")); err == nil {
		t.Fatal("write beyond contract succeeded")
	}
	// The original capability is unchanged (proxy semantics).
	if err := file.Write([]byte("y")); err != nil {
		t.Fatalf("original capability attenuated: %v", err)
	}
}

func TestCapCRejectsWrongKind(t *testing.T) {
	_, dir, _ := world(t)
	c := &CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead)}
	if _, err := c.Apply(dir, testBlame); err == nil {
		t.Fatal("dir accepted by file contract")
	}
	if _, err := c.Apply("not a capability", testBlame); err == nil {
		t.Fatal("string accepted by file contract")
	}
}

func TestCapCDemandsPromisedPrivileges(t *testing.T) {
	_, _, file := world(t)
	weak := file.Restrict(priv.NewGrant(priv.RRead), "weak")
	c := &CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead, priv.RWrite)}
	_, err := c.Apply(weak, testBlame)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("under-privileged capability accepted: %v", err)
	}
	if !strings.Contains(v.Message, "write") {
		t.Fatalf("violation does not name the missing privilege: %s", v.Message)
	}
}

func TestOrContractPicksBranch(t *testing.T) {
	_, dir, file := world(t)
	c := &OrC{Branches: []Contract{
		&CapC{Mask: MaskDir, Grant: priv.NewGrant(priv.RContents)},
		&CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead)},
	}}
	if _, err := c.Apply(dir, testBlame); err != nil {
		t.Fatalf("dir branch: %v", err)
	}
	if _, err := c.Apply(file, testBlame); err != nil {
		t.Fatalf("file branch: %v", err)
	}
	if _, err := c.Apply(3.0, testBlame); err == nil {
		t.Fatal("number accepted")
	}
}

func TestAndContractComposesWrapping(t *testing.T) {
	_, _, file := world(t)
	c := &AndC{Branches: []Contract{
		IsFile,
		&CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead, priv.RWrite, priv.RAppend, priv.RTruncate)},
		&CapC{Mask: MaskFile, Grant: priv.NewGrant(priv.RRead)},
	}}
	out, err := c.Apply(file, testBlame)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := out.(*cap.Capability)
	// The conjunction intersects: only +read survives.
	if !wrapped.Grant().Rights.Has(priv.RRead) || wrapped.Grant().Rights.Has(priv.RWrite) {
		t.Fatalf("grant after && = %v", wrapped.Grant())
	}
}

func TestListContract(t *testing.T) {
	c := &ListC{Elem: IsString}
	if _, err := c.Apply([]Value{"a", "b"}, testBlame); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply([]Value{"a", 1.0}, testBlame); err == nil {
		t.Fatal("mixed list accepted")
	}
	if _, err := c.Apply("not a list", testBlame); err == nil {
		t.Fatal("non-list accepted")
	}
}

func TestVoidCoerces(t *testing.T) {
	out, err := Void.Apply(42.0, testBlame)
	if err != nil || out != nil {
		t.Fatalf("Void.Apply = %v, %v", out, err)
	}
}

// fn is a test callable.
type fn struct {
	name string
	f    func(args []Value, named map[string]Value) (Value, error)
}

func (f fn) FuncName() string { return f.name }
func (f fn) Call(args []Value, named map[string]Value) (Value, error) {
	return f.f(args, named)
}

func TestFuncContractChecksArgsAndResult(t *testing.T) {
	id := fn{"id", func(args []Value, _ map[string]Value) (Value, error) { return args[0], nil }}
	c := &FuncC{
		Params: []Param{{Name: "x", C: IsString}},
		Result: IsString,
	}
	out, err := c.Apply(id, testBlame)
	if err != nil {
		t.Fatal(err)
	}
	g := out.(Callable)
	if res, err := g.Call([]Value{"ok"}, nil); err != nil || res != "ok" {
		t.Fatalf("call = %v, %v", res, err)
	}
	// Bad argument blames the consumer.
	_, err = g.Call([]Value{1.0}, nil)
	var v *Violation
	if !errors.As(err, &v) || v.Blamed != "consumer" {
		t.Fatalf("bad argument: %v", err)
	}
	// Wrong arity blames the consumer.
	if _, err := g.Call(nil, nil); err == nil {
		t.Fatal("arity violation accepted")
	}
}

func TestFuncContractBlamesProviderForResult(t *testing.T) {
	bad := fn{"bad", func([]Value, map[string]Value) (Value, error) { return 7.0, nil }}
	c := &FuncC{Params: []Param{{Name: "x", C: Any}}, Result: IsString}
	g, _ := c.Apply(bad, testBlame)
	_, err := g.(Callable).Call([]Value{nil}, nil)
	var v *Violation
	if !errors.As(err, &v) || v.Blamed != "provider" {
		t.Fatalf("result violation: %v", err)
	}
}

func TestFuncContractNamedArgs(t *testing.T) {
	echo := fn{"echo", func(_ []Value, named map[string]Value) (Value, error) {
		return named["out"], nil
	}}
	c := &FuncC{
		Params: []Param{{Name: "x", C: Any}},
		Named:  map[string]Contract{"out": IsString},
		Result: Any,
	}
	g, _ := c.Apply(echo, testBlame)
	if res, err := g.(Callable).Call([]Value{nil}, map[string]Value{"out": "v"}); err != nil || res != "v" {
		t.Fatalf("named call = %v, %v", res, err)
	}
	if _, err := g.(Callable).Call([]Value{nil}, map[string]Value{"out": 1.0}); err == nil {
		t.Fatal("bad named argument accepted")
	}
	if _, err := g.(Callable).Call([]Value{nil}, map[string]Value{"unknown": "v"}); err == nil {
		t.Fatal("undeclared named argument accepted")
	}
}

// TestPolySealUnseal exercises the §2.4.2 sealing semantics directly.
func TestPolySealUnseal(t *testing.T) {
	_, dir, _ := world(t)
	bound := priv.NewGrant(priv.RLookup, priv.RContents)

	// body receives the sealed capability and hands it to the callback.
	var sealedSeen *Sealed
	body := fn{"body", func(args []Value, _ map[string]Value) (Value, error) {
		s, ok := args[0].(*Sealed)
		if !ok {
			t.Fatalf("body got %T, want *Sealed", args[0])
		}
		sealedSeen = s
		cb := args[1].(Callable)
		return cb.Call([]Value{s}, nil)
	}}

	pc := &PolyC{
		Var:   "X",
		Bound: bound,
		Body: func(sealVar, unsealVar Contract) *FuncC {
			return &FuncC{
				Params: []Param{
					{Name: "cur", C: sealVar},
					{Name: "cb", C: &FuncC{Params: []Param{{Name: "_", C: unsealVar}}, Result: Any}},
				},
				Result: Any,
			}
		},
	}
	wrapped, err := pc.Apply(body, testBlame)
	if err != nil {
		t.Fatal(err)
	}
	var unsealedSeen *cap.Capability
	cb := fn{"cb", func(args []Value, _ map[string]Value) (Value, error) {
		unsealedSeen = args[0].(*cap.Capability)
		return nil, nil
	}}
	if _, err := wrapped.(Callable).Call([]Value{dir, cb}, nil); err != nil {
		t.Fatal(err)
	}
	// Inside the body the view is attenuated to the bound.
	if sealedSeen.View.Grant().Rights.Has(priv.RRead) {
		t.Fatal("sealed view kept +read beyond the bound")
	}
	// The callback sees the original full privileges.
	if !unsealedSeen.Grant().Rights.Has(priv.RRead) {
		t.Fatal("unsealed capability lost its privileges")
	}
}

func TestPolyRejectsUnderprivilegedArgument(t *testing.T) {
	_, dir, _ := world(t)
	weak := dir.Restrict(priv.NewGrant(priv.RContents), "weak") // lacks +lookup
	pc := &PolyC{
		Var:   "X",
		Bound: priv.NewGrant(priv.RLookup, priv.RContents),
		Body: func(sealVar, _ Contract) *FuncC {
			return &FuncC{Params: []Param{{Name: "cur", C: sealVar}}, Result: Any}
		},
	}
	body := fn{"body", func(args []Value, _ map[string]Value) (Value, error) { return nil, nil }}
	wrapped, _ := pc.Apply(body, testBlame)
	if _, err := wrapped.(Callable).Call([]Value{weak}, nil); err == nil {
		t.Fatal("capability below the bound accepted")
	}
}

func TestPolyRejectsForeignSeal(t *testing.T) {
	_, dir, _ := world(t)
	foreign := SealCapability(&SealKey{}, dir, priv.NewGrant(priv.RLookup), "other")
	pc := &PolyC{
		Var:   "X",
		Bound: priv.NewGrant(priv.RLookup),
		Body: func(_, unsealVar Contract) *FuncC {
			return &FuncC{Params: []Param{{Name: "v", C: unsealVar}}, Result: Any}
		},
	}
	body := fn{"body", func(args []Value, _ map[string]Value) (Value, error) { return nil, nil }}
	wrapped, _ := pc.Apply(body, testBlame)
	if _, err := wrapped.(Callable).Call([]Value{foreign}, nil); err == nil {
		t.Fatal("value sealed under a different key accepted at an unseal position")
	}
}

func TestWalletContract(t *testing.T) {
	_, dir, _ := world(t)
	w := wallet.New()
	w.Put(wallet.KeyPath, dir)
	w.Put(wallet.KeyLibPath, dir)

	// Missing pipe factory: the native-wallet contract rejects.
	if _, err := NativeWallet.Apply(w, testBlame); err == nil {
		t.Fatal("wallet without a pipe factory accepted as native")
	}
	w.Put(wallet.KeyPipeFactory, dir) // any capability satisfies presence
	if _, err := NativeWallet.Apply(w, testBlame); err != nil {
		t.Fatalf("native wallet rejected: %v", err)
	}

	// Keyed contracts attenuate wallet entries.
	wc := &WalletC{
		Name: "w",
		Keys: map[string]Contract{
			wallet.KeyPath: &CapC{Mask: MaskDir, Grant: priv.NewGrant(priv.RLookup)},
		},
	}
	out, err := wc.Apply(w, testBlame)
	if err != nil {
		t.Fatal(err)
	}
	restricted := out.(*wallet.Wallet).Get(wallet.KeyPath)[0]
	if restricted.Grant().Rights.Has(priv.RRead) {
		t.Fatal("wallet key contract did not attenuate")
	}
	// The original wallet is untouched.
	if !w.Get(wallet.KeyPath)[0].Grant().Rights.Has(priv.RRead) {
		t.Fatal("original wallet attenuated in place")
	}
}
