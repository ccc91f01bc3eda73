package contract

import (
	"fmt"
	"strings"

	"repro/internal/cap"
	"repro/internal/priv"
)

// Param is one named parameter of a function contract.
type Param struct {
	Name string
	C    Contract
}

// FuncC is a function contract "{x : C1, y : C2} → R" (§2.2). Applying
// it to a callable wraps the callable in a proxy that checks each
// argument against its precondition (blaming the consumer, since the
// caller provides arguments) and the result against the postcondition
// (blaming the provider).
type FuncC struct {
	Params []Param
	// Named are optional keyword parameters (e.g. exec's "stdout =").
	Named  map[string]Contract
	Result Contract
}

func (f *FuncC) String() string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.Name + " : " + p.C.String()
	}
	res := "void"
	if f.Result != nil {
		res = f.Result.String()
	}
	return "{" + strings.Join(parts, ", ") + "} -> " + res
}

// Apply wraps a callable value.
func (f *FuncC) Apply(v Value, b Blame) (Value, error) {
	fn, ok := v.(Callable)
	if !ok {
		return nil, violate(f, b, "expected a function, got %s", Describe(v))
	}
	return &guardedFunc{contract: f, inner: fn, blame: b}, nil
}

// guardedFunc is the proxy a FuncC wraps around a callable.
type guardedFunc struct {
	contract *FuncC
	inner    Callable
	blame    Blame
}

// FuncName names the wrapped function for blame messages.
func (g *guardedFunc) FuncName() string { return g.inner.FuncName() }

// Inner returns the wrapped callable (tests).
func (g *guardedFunc) Inner() Callable { return g.inner }

// Call checks arguments, invokes the wrapped function, and checks the
// result.
func (g *guardedFunc) Call(args []Value, named map[string]Value) (Value, error) {
	f := g.contract
	if len(args) != len(f.Params) {
		return nil, &Violation{
			Contract: f.String(),
			Blamed:   g.blame.Neg,
			Message: fmt.Sprintf("%s expects %d arguments, got %d",
				g.inner.FuncName(), len(f.Params), len(args)),
		}
	}
	wrapped := make([]Value, len(args))
	argBlame := g.blame.Swap() // caller provides arguments
	for i, a := range args {
		w, err := f.Params[i].C.Apply(a, argBlame)
		if err != nil {
			return nil, prefixViolation(err, fmt.Sprintf("argument %q of %s: ", f.Params[i].Name, g.inner.FuncName()))
		}
		wrapped[i] = w
	}
	var wrappedNamed map[string]Value
	if len(named) > 0 {
		wrappedNamed = make(map[string]Value, len(named))
		for k, a := range named {
			nc, ok := f.Named[k]
			if !ok {
				return nil, &Violation{
					Contract: f.String(),
					Blamed:   g.blame.Neg,
					Message:  fmt.Sprintf("%s does not accept named argument %q", g.inner.FuncName(), k),
				}
			}
			w, err := nc.Apply(a, argBlame)
			if err != nil {
				return nil, prefixViolation(err, fmt.Sprintf("named argument %q of %s: ", k, g.inner.FuncName()))
			}
			wrappedNamed[k] = w
		}
	}
	out, err := g.inner.Call(wrapped, wrappedNamed)
	if err != nil {
		return nil, err
	}
	if f.Result == nil {
		return out, nil
	}
	res, err := f.Result.Apply(out, g.blame)
	if err != nil {
		return nil, prefixViolation(err, fmt.Sprintf("result of %s: ", g.inner.FuncName()))
	}
	return res, nil
}

func prefixViolation(err error, prefix string) error {
	if v, ok := err.(*Violation); ok {
		return &Violation{Contract: v.Contract, Blamed: v.Blamed, Message: prefix + v.Message}
	}
	return err
}

// --- bounded parametric polymorphism (§2.4.2) ---

// SealKey is the fresh key a polymorphic contract mints per application.
type SealKey struct{ name string }

// Sealed is a capability sealed under a polymorphic contract variable:
// inside the function body only the bound privileges are visible; at
// X-typed argument positions of function-typed parameters the value is
// unsealed back to its full privileges.
type Sealed struct {
	Key *SealKey
	// Inner is the original capability with its full privileges.
	Inner *cap.Capability
	// View is the attenuated proxy the body operates through.
	View *cap.Capability
}

// String renders the sealed capability.
func (s *Sealed) String() string { return "sealed[" + s.Key.name + "]" + s.View.String() }

// SealCapability seals c under key with the given bound.
func SealCapability(key *SealKey, c *cap.Capability, bound *priv.Grant, blame string) *Sealed {
	return &Sealed{Key: key, Inner: c, View: c.Restrict(bound, blame)}
}

// Derive reproduces a derivation (e.g. lookup) under the seal: the
// derived inner keeps full derived privileges while the view stays
// attenuated, so recursion like find(child, …) keeps working and
// unsealing at filter/cmd restores full privileges (§2.4.2).
func (s *Sealed) Derive(inner, view *cap.Capability) *Sealed {
	return &Sealed{Key: s.Key, Inner: inner, View: view}
}

// PolyVar is an occurrence of the quantified variable X inside a
// polymorphic contract. Seal reports whether this occurrence seals
// (positive position: values flowing into the body) or unseals
// (negative position: values flowing out to filter/cmd).
type PolyVar struct {
	Name string
	key  **SealKey    // shared per-application key cell
	bnd  **priv.Grant // shared bound
	Seal bool
}

func (p *PolyVar) String() string { return p.Name }

// Apply seals or unseals.
func (p *PolyVar) Apply(v Value, b Blame) (Value, error) {
	if p.Seal {
		switch t := v.(type) {
		case *cap.Capability:
			if !t.Grant().Covers(*p.bnd) {
				missing := (*p.bnd).Rights.Minus(t.Grant().Rights)
				return nil, violate(p, b, "capability bound to %s lacks required privileges %v", p.Name, missing)
			}
			return SealCapability(*p.key, t, *p.bnd, "forall "+p.Name), nil
		case *Sealed:
			// Already sealed under this application (recursive call
			// through the wrapped provide): keep as is if keys match.
			if t.Key == *p.key {
				return t, nil
			}
			return nil, violate(p, b, "value sealed under a different contract variable")
		default:
			return nil, violate(p, b, "expected a capability for %s, got %s", p.Name, Describe(v))
		}
	}
	sealed, ok := v.(*Sealed)
	if !ok {
		return nil, violate(p, b, "expected a value sealed by %s, got %s", p.Name, Describe(v))
	}
	if sealed.Key != *p.key {
		return nil, violate(p, b, "value sealed under a different instantiation of %s", p.Name)
	}
	return sealed.Inner, nil
}

// PolyC is a bounded polymorphic function contract:
//
//	forall X with {+lookup, +contents} . {cur : X, …} → R
//
// Each call of the wrapped function mints a fresh seal key, seals
// X-positions in the precondition, and unseals X-positions nested inside
// function-typed parameters.
type PolyC struct {
	Var   string
	Bound *priv.Grant
	// Body builds the function contract given the two PolyVar
	// occurrences (sealing and unsealing).
	Body func(sealVar, unsealVar Contract) *FuncC
}

func (p *PolyC) String() string {
	body := p.Body(&PolyVar{Name: p.Var, Seal: true, key: new(*SealKey), bnd: new(*priv.Grant)},
		&PolyVar{Name: p.Var, Seal: false, key: new(*SealKey), bnd: new(*priv.Grant)})
	return "forall " + p.Var + " with " + p.Bound.String() + " . " + body.String()
}

// Apply wraps the callable so each invocation instantiates X freshly.
func (p *PolyC) Apply(v Value, b Blame) (Value, error) {
	fn, ok := v.(Callable)
	if !ok {
		return nil, violate(p, b, "expected a function, got %s", Describe(v))
	}
	return &polyFunc{contract: p, inner: fn, blame: b}, nil
}

type polyFunc struct {
	contract *PolyC
	inner    Callable
	blame    Blame
}

// FuncName names the wrapped function.
func (pf *polyFunc) FuncName() string { return pf.inner.FuncName() }

// Call instantiates the quantifier and delegates to the built function
// contract.
func (pf *polyFunc) Call(args []Value, named map[string]Value) (Value, error) {
	key := &SealKey{name: pf.contract.Var}
	bound := pf.contract.Bound
	keyCell, bndCell := &key, &bound
	sealVar := &PolyVar{Name: pf.contract.Var, Seal: true, key: keyCell, bnd: bndCell}
	unsealVar := &PolyVar{Name: pf.contract.Var, Seal: false, key: keyCell, bnd: bndCell}
	fc := pf.contract.Body(sealVar, unsealVar)
	wrapped, err := fc.Apply(pf.inner, pf.blame)
	if err != nil {
		return nil, err
	}
	return wrapped.(Callable).Call(args, named)
}
