// Package contract implements SHILL's contract system (§2.2, §2.4.2):
// declarative security policies attached to the functions a script
// provides. Contracts follow the Design by Contract discipline with
// blame — every contract application records a provider (positive party)
// and a consumer (negative party); a violated precondition blames the
// consumer, a violated postcondition blames the provider, and the error
// "indicates which part of the script failed to meet its obligations".
//
// Capability contracts wrap capabilities in attenuating proxies (the
// paper uses Racket chaperones; here cap.Capability.Restrict plays that
// role). Function contracts wrap callables. Bounded parametric
// polymorphic contracts ("forall X with {…} . {…} → …") dynamically seal
// capabilities as they flow into a function body and unseal them as they
// flow out to function-typed arguments (§2.4.2).
package contract

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/cap"
	"repro/internal/priv"
	"repro/internal/wallet"
)

// Value is any SHILL language value.
type Value = any

// Callable is any SHILL function value: closures, builtins, and
// contract-wrapped functions all implement it.
type Callable interface {
	// Call invokes the function with positional and named arguments.
	Call(args []Value, named map[string]Value) (Value, error)
	// FuncName returns a human-readable name for blame messages.
	FuncName() string
}

// Violation is a contract violation: execution aborts and the blamed
// party is reported (§2.2).
type Violation struct {
	Contract string // contract description
	Blamed   string // party that failed its obligation
	Message  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("contract violation: %s\n  contract: %s\n  blaming: %s", v.Message, v.Contract, v.Blamed)
}

// Blame tracks the two parties to a contract agreement. Pos is the
// provider of the value (server), Neg the consumer (client).
type Blame struct {
	Pos string
	Neg string
}

// Swap returns the blame with parties exchanged — applied at function
// argument positions, where the consumer becomes the provider of the
// argument value.
func (b Blame) Swap() Blame { return Blame{Pos: b.Neg, Neg: b.Pos} }

// Contract is a SHILL contract. Apply checks v against the contract and
// returns the (possibly proxied) value to hand onward.
type Contract interface {
	// String renders the contract in SHILL syntax for documentation and
	// violation messages.
	String() string
	Apply(v Value, b Blame) (Value, error)
}

func violate(c Contract, b Blame, format string, args ...any) error {
	return &Violation{Contract: c.String(), Blamed: b.Pos, Message: fmt.Sprintf(format, args...)}
}

// --- flat (predicate) contracts ---

// Pred is a flat first-order contract: a named predicate over values.
// User-defined predicates written in SHILL itself become Preds (§2.4.2:
// "users can define their own contracts ... and user-defined predicates
// written in SHILL").
type Pred struct {
	Name string
	Fn   func(Value) bool
}

func (p *Pred) String() string { return p.Name }

// Apply checks the predicate; flat contracts never wrap.
func (p *Pred) Apply(v Value, b Blame) (Value, error) {
	if p.Fn(v) {
		return v, nil
	}
	return nil, violate(p, b, "value %v does not satisfy %s", Describe(v), p.Name)
}

// Builtin flat contracts.
var (
	IsFile = &Pred{Name: "is_file", Fn: func(v Value) bool {
		c, ok := unwrapCap(v)
		return ok && c.IsFile()
	}}
	IsDir = &Pred{Name: "is_dir", Fn: func(v Value) bool {
		c, ok := unwrapCap(v)
		return ok && c.IsDir()
	}}
	IsPipe = &Pred{Name: "is_pipe", Fn: func(v Value) bool {
		c, ok := unwrapCap(v)
		return ok && c.Kind() == cap.KindPipeEnd
	}}
	IsPipeFactory = &Pred{Name: "is_pipe_factory", Fn: func(v Value) bool {
		c, ok := v.(*cap.Capability)
		return ok && c.Kind() == cap.KindPipeFactory
	}}
	IsSocketFactory = &Pred{Name: "is_socket_factory", Fn: func(v Value) bool {
		c, ok := v.(*cap.Capability)
		return ok && c.Kind() == cap.KindSocketFactory
	}}
	IsBool   = &Pred{Name: "is_bool", Fn: func(v Value) bool { _, ok := v.(bool); return ok }}
	IsString = &Pred{Name: "is_string", Fn: func(v Value) bool { _, ok := v.(string); return ok }}
	IsNum    = &Pred{Name: "is_num", Fn: func(v Value) bool { _, ok := v.(float64); return ok }}
	IsList   = &Pred{Name: "is_list", Fn: func(v Value) bool { _, ok := v.([]Value); return ok }}
	IsFunc   = &Pred{Name: "is_func", Fn: func(v Value) bool { _, ok := v.(Callable); return ok }}
	IsWallet = &Pred{Name: "is_wallet", Fn: func(v Value) bool { _, ok := v.(*wallet.Wallet); return ok }}
	Any      = &Pred{Name: "any", Fn: func(Value) bool { return true }}
	// Void discards the function body's value: a void postcondition
	// promises the caller receives nothing.
	Void Contract = voidC{}
)

// voidC is the void result contract: it accepts any value and coerces it
// to nothing, so "-> void" functions never leak values (or capabilities)
// to their callers.
type voidC struct{}

func (voidC) String() string { return "void" }

// Apply discards the value.
func (voidC) Apply(v Value, b Blame) (Value, error) { return nil, nil }

// unwrapCap extracts a capability from a raw or sealed value. Sealed
// capabilities expose their attenuated view, so predicates observe what
// the body may use.
func unwrapCap(v Value) (*cap.Capability, bool) {
	switch t := v.(type) {
	case *cap.Capability:
		return t, true
	case *Sealed:
		return t.View, true
	}
	return nil, false
}

// Describe renders a value for violation messages without exposing
// capability internals.
func Describe(v Value) string {
	switch t := v.(type) {
	case nil:
		return "void"
	case *cap.Capability:
		return t.Kind().String() + " capability"
	case *Sealed:
		return "sealed capability"
	case *wallet.Wallet:
		return "wallet"
	case Callable:
		return "function " + t.FuncName()
	case string:
		return fmt.Sprintf("%q", t)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// --- capability contracts ---

// CapKindMask selects which capability kinds a CapC accepts.
type CapKindMask uint8

// Kind masks.
const (
	MaskFile CapKindMask = 1 << iota
	MaskDir
	MaskPipe
	MaskPipeFactory
	MaskSocketFactory
)

func (m CapKindMask) match(k cap.Kind) bool {
	switch k {
	case cap.KindFile:
		return m&MaskFile != 0
	case cap.KindDir:
		return m&MaskDir != 0
	case cap.KindPipeEnd:
		return m&(MaskFile|MaskPipe) != 0 // pipes are file capabilities (§2.2)
	case cap.KindPipeFactory:
		return m&MaskPipeFactory != 0
	case cap.KindSocketFactory:
		return m&MaskSocketFactory != 0
	}
	return false
}

func (m CapKindMask) String() string {
	var parts []string
	if m&MaskFile != 0 {
		parts = append(parts, "file")
	}
	if m&MaskDir != 0 {
		parts = append(parts, "dir")
	}
	if m&MaskPipe != 0 {
		parts = append(parts, "pipe")
	}
	if m&MaskPipeFactory != 0 {
		parts = append(parts, "pipe_factory")
	}
	if m&MaskSocketFactory != 0 {
		parts = append(parts, "socket_factory")
	}
	return strings.Join(parts, "|")
}

// CapC is a capability contract with a privilege set: "file(+read,+path)"
// or "dir(+create_dir with full_privileges)". Applying it wraps the
// capability in an attenuating proxy limited to the stated grant: the
// provider promises at least these privileges; the consumer may use at
// most them (§2.2).
type CapC struct {
	Mask  CapKindMask
	Grant *priv.Grant
	// Label names the contract in blame chains; defaults to String().
	Label string
}

func (c *CapC) String() string {
	g := ""
	if c.Grant != nil {
		g = "(" + strings.TrimPrefix(strings.TrimSuffix(c.Grant.String(), "}"), "{") + ")"
	}
	return c.Mask.String() + g
}

// Apply verifies kind and wraps the capability. The outcome — pass or
// violation — is recorded in the audit log so a trace shows which
// contract admitted or rejected each capability.
func (c *CapC) Apply(v Value, b Blame) (Value, error) {
	capv, ok := v.(*cap.Capability)
	if !ok {
		return nil, violate(c, b, "expected a %s capability, got %s", c.Mask, Describe(v))
	}
	if !c.Mask.match(capv.Kind()) {
		auditOutcome(capv, c.String(), b, false, "kind mismatch")
		return nil, violate(c, b, "expected a %s capability, got a %s capability", c.Mask, capv.Kind())
	}
	if c.Grant == nil {
		auditOutcome(capv, c.String(), b, true, "")
		return capv, nil
	}
	// The provider must supply at least the promised privileges.
	if !capv.Grant().Covers(c.Grant) {
		missing := c.Grant.Rights.Minus(capv.Grant().Rights)
		auditOutcome(capv, c.String(), b, false, fmt.Sprintf("lacks promised privileges %v", missing))
		return nil, violate(c, b, "capability lacks promised privileges %v", missing)
	}
	label := c.Label
	if label == "" {
		label = c.String()
	}
	auditOutcome(capv, label, b, true, "")
	return capv.Restrict(c.Grant, label), nil
}

// auditOutcome records a capability contract check in the audit log of
// the kernel the capability belongs to.
func auditOutcome(capv *cap.Capability, contractName string, b Blame, pass bool, detail string) {
	p := capv.Proc()
	if p == nil {
		return
	}
	verdict := audit.Allow
	if !pass {
		verdict = audit.Deny
		if detail == "" {
			detail = "violation"
		}
		detail += ", blaming " + b.Pos
	}
	p.Kernel().Audit().Emit(p.AuditShard(), audit.Event{
		Kind: audit.KindContract, Verdict: verdict, Layer: audit.LayerContract,
		Op: "cap-contract", Object: contractName, CapID: capv.ID(), Detail: detail,
	})
}

// --- combinators ---

// OrC accepts a value satisfying any branch; the first branch whose
// first-order check passes wins ("is_dir ∨ is_file").
type OrC struct{ Branches []Contract }

func (o *OrC) String() string {
	parts := make([]string, len(o.Branches))
	for i, c := range o.Branches {
		parts[i] = c.String()
	}
	return strings.Join(parts, " \\/ ")
}

// Apply tries each branch in order.
func (o *OrC) Apply(v Value, b Blame) (Value, error) {
	var firstErr error
	for _, c := range o.Branches {
		out, err := c.Apply(v, b)
		if err == nil {
			return out, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = violate(o, b, "no branch accepts %s", Describe(v))
	}
	return nil, &Violation{Contract: o.String(), Blamed: b.Pos,
		Message: "no branch of the disjunction accepts " + Describe(v)}
}

// AndC requires every branch; wrapping composes left to right
// ("is_file && readonly").
type AndC struct{ Branches []Contract }

func (a *AndC) String() string {
	parts := make([]string, len(a.Branches))
	for i, c := range a.Branches {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Apply threads the value through every branch.
func (a *AndC) Apply(v Value, b Blame) (Value, error) {
	cur := v
	for _, c := range a.Branches {
		out, err := c.Apply(cur, b)
		if err != nil {
			return nil, err
		}
		cur = out
	}
	return cur, nil
}

// ListC applies an element contract to every member of a list.
type ListC struct{ Elem Contract }

func (l *ListC) String() string { return "listof " + l.Elem.String() }

// Apply checks each element.
func (l *ListC) Apply(v Value, b Blame) (Value, error) {
	list, ok := v.([]Value)
	if !ok {
		return nil, violate(l, b, "expected a list, got %s", Describe(v))
	}
	out := make([]Value, len(list))
	for i, e := range list {
		we, err := l.Elem.Apply(e, b)
		if err != nil {
			return nil, err
		}
		out[i] = we
	}
	return out, nil
}

// --- wallet contracts ---

// WalletC describes contracts for the capabilities associated with
// individual wallet keys (§2.4.1: "SHILL provides wallet contracts,
// which describe contracts for the capabilities associated with
// individual keys or groups of keys"). Keys listed in Require must be
// present; each present key's capabilities pass through its contract.
type WalletC struct {
	Name    string // e.g. "native_wallet"
	Keys    map[string]Contract
	Require []string
}

func (w *WalletC) String() string {
	if w.Name != "" {
		return w.Name
	}
	return "wallet"
}

// Apply verifies the wallet shape and attenuates each keyed capability.
func (w *WalletC) Apply(v Value, b Blame) (Value, error) {
	wal, ok := v.(*wallet.Wallet)
	if !ok {
		return nil, violate(w, b, "expected a wallet, got %s", Describe(v))
	}
	for _, key := range w.Require {
		if !wal.Has(key) {
			return nil, violate(w, b, "wallet is missing required key %q", key)
		}
	}
	if len(w.Keys) == 0 {
		return wal, nil
	}
	var applyErr error
	out := wal.Restrict(w.String(), func(key string, c *cap.Capability) *cap.Capability {
		kc, ok := w.Keys[key]
		if !ok || applyErr != nil {
			return c
		}
		wrapped, err := kc.Apply(c, b)
		if err != nil {
			applyErr = err
			return c
		}
		wc, ok := wrapped.(*cap.Capability)
		if !ok {
			applyErr = violate(w, b, "wallet key %q contract did not yield a capability", key)
			return c
		}
		return wc
	})
	if applyErr != nil {
		return nil, applyErr
	}
	return out, nil
}

// NativeWallet is the stock native-wallet contract used by scripts such
// as Figure 4's jpeginfo.
var NativeWallet = &WalletC{
	Name:    "native_wallet",
	Require: []string{wallet.KeyPath, wallet.KeyLibPath, wallet.KeyPipeFactory},
}
