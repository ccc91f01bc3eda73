package oracle

import (
	"context"

	"repro/internal/gen"
	"repro/shill"
)

// CheckTampered is CheckExclusive with a seeded escape: after the
// sandboxed variant runs, the protected tree is mutated before the
// oracle takes its post-run snapshot. A sound no-escape check must
// flag it — this is the non-vacuousness proof for property 1.
func CheckTampered(ctx context.Context, p *gen.Program) (*PairResult, error) {
	return checkTampered(ctx, p, false)
}

// CheckExclusiveSlow is CheckExclusive with the O(tree) walk-and-diff
// no-escape implementation — the cross-check arm of the fast/slow
// equivalence test.
func CheckExclusiveSlow(ctx context.Context, p *gen.Program) (*PairResult, error) {
	m, err := shill.NewMachine()
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := StageProtected(m); err != nil {
		return nil, err
	}
	s := m.NewSession()
	defer s.Close()
	c := &Checker{M: m, Exclusive: true, slowSnapshots: true}
	return c.CheckProgram(ctx, s, p, Instance{Base: "/gen/p0", PortBase: 21000}), nil
}

// CheckTamperedSlow is CheckTampered against the O(tree) walk-and-diff
// no-escape implementation, so both paths stay proven non-vacuous.
func CheckTamperedSlow(ctx context.Context, p *gen.Program) (*PairResult, error) {
	return checkTampered(ctx, p, true)
}

func checkTampered(ctx context.Context, p *gen.Program, slow bool) (*PairResult, error) {
	m, err := shill.NewMachine()
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := StageProtected(m); err != nil {
		return nil, err
	}
	s := m.NewSession()
	defer s.Close()
	c := &Checker{M: m, Exclusive: true, slowSnapshots: slow}
	c.tamper = func() {
		_ = m.WriteFile(ProtectedRoot+"/leak.txt", []byte("TAMPERED"), 0o644, 0)
	}
	return c.CheckProgram(ctx, s, p, Instance{Base: "/gen/p0", PortBase: 21000}), nil
}
