package lang

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Loader resolves required script files to their source text.
type Loader interface {
	Load(name string) (string, error)
}

// MapLoader is an in-memory Loader keyed by file name.
type MapLoader map[string]string

// Load implements Loader.
func (m MapLoader) Load(name string) (string, error) {
	src, ok := m[name]
	if !ok {
		return "", fmt.Errorf("lang: no script %q", name)
	}
	return src, nil
}

// Module is a loaded capability-safe script: its exports are
// contract-wrapped values.
type Module struct {
	Name    string
	Dialect Dialect
	Exports map[string]Value
}

// Interp evaluates SHILL scripts against a simulated kernel. The Runtime
// process is the interpreter's own (ambient, unsandboxed) process; the
// capability layer issues system calls through it, and sandboxes fork
// from it.
type Interp struct {
	Runtime *kernel.Proc
	Loader  Loader
	Prof    *prof.Collector

	// ConsolePath is the device the ambient stdin/stdout/stderr
	// builtins bind to ("" means /dev/console). Parallel session
	// runners point it at the session's private console so builtin
	// output cannot interleave across sessions.
	ConsolePath string

	// ParseCache, when set, memoizes parsed scripts and modules by
	// content hash. A machine shares one cache across all its sessions.
	ParseCache *ParseCache

	modules map[string]*Module
	loading map[string]bool // modules mid-load, to reject require cycles
	globals *Env

	// callDepth tracks live closure invocations (atomically, since a
	// module's exports may be called from several goroutines) so
	// runaway recursion is cut off at maxCallDepth.
	callDepth atomic.Int32

	// runCtx, when set, is polled at every statement boundary and
	// closure call, so cancelling the context stops the eval loop of a
	// runaway script. Stored atomically because the fuzz/race harnesses
	// drive one interpreter from several goroutines.
	runCtx atomic.Pointer[context.Context]

	// socks registers every socket the run mints so leftovers can be
	// closed when the run ends (see sockets.go).
	socks sockTracker

	// Trace, when non-nil, receives compile and eval spans (children of
	// TraceParent) for the request-tracing layer. Both fields are set by
	// the run owner before RunAmbient; a nil Trace costs one nil check
	// per run, not per statement.
	Trace       *trace.Ref
	TraceParent uint64
}

// SetContext installs (or, with nil, removes) the context the eval loop
// polls for cancellation. The interpreter only observes Done/Err; the
// caller remains responsible for interrupting any kernel-level waits the
// script's process may be parked in (kernel.Proc.Interrupt).
func (it *Interp) SetContext(ctx context.Context) {
	if ctx == nil {
		it.runCtx.Store(nil)
		return
	}
	it.runCtx.Store(&ctx)
}

// checkCancel returns the cancellation error once the installed context
// is done. The fast path is one atomic load.
func (it *Interp) checkCancel() error {
	ctxp := it.runCtx.Load()
	if ctxp == nil {
		return nil
	}
	ctx := *ctxp
	select {
	case <-ctx.Done():
		return fmt.Errorf("script canceled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

// NewInterp builds an interpreter. Construction cost is attributed to
// prof.Startup — the analogue of the paper's "Racket startup" row in
// Figure 10.
func NewInterp(runtime *kernel.Proc, loader Loader, collector *prof.Collector) *Interp {
	start := time.Now()
	it := &Interp{
		Runtime: runtime,
		Loader:  loader,
		Prof:    collector,
		modules: make(map[string]*Module),
	}
	it.globals = it.coreEnv()
	collector.Add(prof.Startup, time.Since(start))
	return it
}

// LoadModule loads (and caches) a capability-safe script or a standard
// library module by name.
func (it *Interp) LoadModule(name string, isFile bool) (*Module, error) {
	if m, ok := it.modules[name]; ok {
		return m, nil
	}
	// A module that (transitively) requires itself would recurse here
	// forever; the module cache only fills in after evaluation.
	if it.loading[name] {
		return nil, fmt.Errorf("%s: require cycle", name)
	}
	if it.loading == nil {
		it.loading = make(map[string]bool)
	}
	it.loading[name] = true
	defer delete(it.loading, name)
	if !isFile {
		m, err := it.stdlibModule(name)
		if err != nil {
			return nil, err
		}
		it.modules[name] = m
		return m, nil
	}
	src, err := it.Loader.Load(name)
	if err != nil {
		return nil, err
	}
	script, _, err := it.parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if script.Dialect != DialectCap {
		// "Capability-safe scripts cannot import ambient scripts" (§2.5).
		return nil, fmt.Errorf("%s: cannot require an ambient script", name)
	}
	m, err := it.evalCapModule(name, script)
	if err != nil {
		return nil, err
	}
	it.modules[name] = m
	return m, nil
}

// evalCapModule evaluates a capability-safe script and wraps its
// provides in their contracts.
func (it *Interp) evalCapModule(name string, script *Script) (*Module, error) {
	env := NewEnv(it.globals)
	var provides []*ProvideStmt
	for _, s := range script.Stmts {
		switch st := s.(type) {
		case *ProvideStmt:
			provides = append(provides, st)
		case *RequireStmt:
			if err := it.importInto(env, st); err != nil {
				return nil, fmt.Errorf("%s: line %d: %w", name, st.Pos(), err)
			}
		default:
			if _, err := it.evalStmt(s, env); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	m := &Module{Name: name, Dialect: DialectCap, Exports: make(map[string]Value)}
	for _, pr := range provides {
		v, ok := env.Lookup(pr.Name)
		if !ok {
			return nil, fmt.Errorf("%s: provide %s: no such binding", name, pr.Name)
		}
		if pr.Contract != nil {
			c, err := it.evalContract(pr.Contract, env, polarityOut, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: provide %s: %w", name, pr.Name, err)
			}
			wrapped, err := c.Apply(v, contract.Blame{Pos: name, Neg: "client of " + name})
			if err != nil {
				return nil, err
			}
			v = wrapped
		}
		m.Exports[pr.Name] = v
	}
	return m, nil
}

// importInto binds a module's exports into env. Exports are imported
// in sorted name order so that when several collide with existing
// bindings, the reported duplicate is deterministic (the goldens
// compare error text byte for byte).
func (it *Interp) importInto(env *Env, st *RequireStmt) error {
	m, err := it.LoadModule(st.Module, st.IsFile)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m.Exports))
	for name := range m.Exports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := env.Define(name, m.Exports[name]); err != nil {
			return fmt.Errorf("require %s: %w", st.Module, err)
		}
	}
	return nil
}

// RunAmbient parses and executes an ambient script (§2.5). The ambient
// dialect is restricted to straight-line code: requires, immutable
// bindings, and function invocations. Control flow, function
// definitions, and provides are rejected.
func (it *Interp) RunAmbient(name, src string) error {
	csp := it.Trace.Start(it.TraceParent, trace.KindCompile, "parse")
	script, hit, err := it.parse(src)
	if hit {
		csp.SetDetail("cache=hit")
	} else {
		csp.SetDetail("cache=miss")
	}
	csp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if script.Dialect != DialectAmbient {
		return fmt.Errorf("%s: not an ambient script", name)
	}
	esp := it.Trace.Start(it.TraceParent, trace.KindEval, "eval")
	defer esp.End()
	env := NewEnv(it.globals)
	it.bindAmbient(env)
	for _, s := range script.Stmts {
		switch st := s.(type) {
		case *RequireStmt:
			if err := it.importInto(env, st); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, st.Pos(), err)
			}
		case *BindStmt:
			if _, ok := st.Expr.(*FunLit); ok {
				return fmt.Errorf("%s: line %d: ambient scripts cannot define functions", name, st.Pos())
			}
			if _, err := it.evalStmt(st, env); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		case *ExprStmt:
			if _, err := it.evalStmt(st, env); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		default:
			return fmt.Errorf("%s: line %d: statement not allowed in an ambient script", name, s.Pos())
		}
	}
	return nil
}

// --- statement and expression evaluation ---

func (it *Interp) evalBlock(stmts []Stmt, env *Env) (Value, error) {
	var last Value
	for _, s := range stmts {
		v, err := it.evalStmt(s, env)
		if err != nil {
			return nil, err
		}
		last = v
	}
	return last, nil
}

func (it *Interp) evalStmt(s Stmt, env *Env) (Value, error) {
	// Every statement — including each iteration of a for body — is a
	// cancellation point, so a context deadline stops even a pure
	// compute loop that never enters the kernel.
	if err := it.checkCancel(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *BindStmt:
		v, err := it.evalExpr(st.Expr, env)
		if err != nil {
			return nil, err
		}
		if cl, ok := v.(*Closure); ok && cl.name == "" {
			cl.name = st.Name // name anonymous functions by their binding
		}
		if err := env.Define(st.Name, v); err != nil {
			return nil, fmt.Errorf("line %d: %w", st.Pos(), err)
		}
		return nil, nil
	case *ExprStmt:
		return it.evalExpr(st.Expr, env)
	case *IfStmt:
		cond, err := it.evalExpr(st.Cond, env)
		if err != nil {
			return nil, err
		}
		b, err := truthy(cond, "if condition")
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", st.Pos(), err)
		}
		if b {
			return it.evalBlock(st.Then, NewEnv(env))
		}
		if st.Else != nil {
			return it.evalBlock(st.Else, NewEnv(env))
		}
		return nil, nil
	case *ForStmt:
		seq, err := it.evalExpr(st.Seq, env)
		if err != nil {
			return nil, err
		}
		list, ok := seq.([]Value)
		if !ok {
			return nil, fmt.Errorf("line %d: for expects a list, got %s", st.Pos(), FormatValue(seq))
		}
		for _, item := range list {
			frame := NewEnv(env)
			if err := frame.Define(st.Var, item); err != nil {
				return nil, err
			}
			if _, err := it.evalBlock(st.Body, frame); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *RequireStmt:
		return nil, fmt.Errorf("line %d: require is only allowed at the top of a script", st.Pos())
	case *ProvideStmt:
		return nil, fmt.Errorf("line %d: provide is only allowed at the top level of a capability-safe script", st.Pos())
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

func (it *Interp) evalExpr(e Expr, env *Env) (Value, error) {
	switch ex := e.(type) {
	case *Ident:
		v, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, fmt.Errorf("line %d: unbound identifier %q", ex.Pos(), ex.Name)
		}
		return v, nil
	case *StringLit:
		return ex.Value, nil
	case *NumberLit:
		return ex.Value, nil
	case *BoolLit:
		return ex.Value, nil
	case *ListLit:
		out := make([]Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := it.evalExpr(el, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *FunLit:
		return &Closure{params: ex.Params, body: ex.Body, env: env, interp: it}, nil
	case *UnaryExpr:
		x, err := it.evalExpr(ex.X, env)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "!":
			b, err := truthy(x, "operator !")
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ex.Pos(), err)
			}
			return !b, nil
		case "-":
			n, ok := x.(float64)
			if !ok {
				return nil, fmt.Errorf("line %d: unary - expects a number", ex.Pos())
			}
			return -n, nil
		}
		return nil, fmt.Errorf("line %d: unknown unary operator %q", ex.Pos(), ex.Op)
	case *BinaryExpr:
		return it.evalBinary(ex, env)
	case *CallExpr:
		fn, err := it.evalExpr(ex.Fn, env)
		if err != nil {
			return nil, err
		}
		callable, ok := fn.(contract.Callable)
		if !ok {
			return nil, fmt.Errorf("line %d: %s is not a function", ex.Pos(), FormatValue(fn))
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := it.evalExpr(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		var named map[string]Value
		if len(ex.Named) > 0 {
			named = make(map[string]Value, len(ex.Named))
			for _, na := range ex.Named {
				v, err := it.evalExpr(na.Expr, env)
				if err != nil {
					return nil, err
				}
				named[na.Name] = v
			}
		}
		out, err := callable.Call(args, named)
		if err != nil {
			if _, isViolation := err.(*contract.Violation); isViolation {
				return nil, err
			}
			return nil, fmt.Errorf("line %d: %w", ex.Pos(), err)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func (it *Interp) evalBinary(ex *BinaryExpr, env *Env) (Value, error) {
	// Short-circuit operators first.
	if ex.Op == "&&" || ex.Op == "||" {
		l, err := it.evalExpr(ex.L, env)
		if err != nil {
			return nil, err
		}
		lb, err := truthy(l, "operator "+ex.Op)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ex.Pos(), err)
		}
		if ex.Op == "&&" && !lb {
			return false, nil
		}
		if ex.Op == "||" && lb {
			return true, nil
		}
		r, err := it.evalExpr(ex.R, env)
		if err != nil {
			return nil, err
		}
		rb, err := truthy(r, "operator "+ex.Op)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ex.Pos(), err)
		}
		return rb, nil
	}

	l, err := it.evalExpr(ex.L, env)
	if err != nil {
		return nil, err
	}
	r, err := it.evalExpr(ex.R, env)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case "==":
		return valueEqual(l, r), nil
	case "!=":
		return !valueEqual(l, r), nil
	case "+", "++":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
			return ls + FormatValue(r), nil
		}
		if ll, ok := l.([]Value); ok {
			if rl, ok := r.([]Value); ok {
				return append(append([]Value{}, ll...), rl...), nil
			}
		}
		fallthrough
	case "-", "*", "/", "<", ">", "<=", ">=":
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, fmt.Errorf("line %d: operator %q expects numbers, got %s and %s",
				ex.Pos(), ex.Op, FormatValue(l), FormatValue(r))
		}
		switch ex.Op {
		case "+":
			return ln + rn, nil
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			if rn == 0 {
				return nil, fmt.Errorf("line %d: division by zero", ex.Pos())
			}
			return ln / rn, nil
		case "<":
			return ln < rn, nil
		case ">":
			return ln > rn, nil
		case "<=":
			return ln <= rn, nil
		case ">=":
			return ln >= rn, nil
		}
	}
	return nil, fmt.Errorf("line %d: unknown operator %q", ex.Pos(), ex.Op)
}

func valueEqual(l, r Value) bool {
	switch lt := l.(type) {
	case nil:
		return r == nil
	case bool:
		rb, ok := r.(bool)
		return ok && lt == rb
	case float64:
		rn, ok := r.(float64)
		return ok && lt == rn
	case string:
		rs, ok := r.(string)
		return ok && lt == rs
	case []Value:
		rl, ok := r.([]Value)
		if !ok || len(lt) != len(rl) {
			return false
		}
		for i := range lt {
			if !valueEqual(lt[i], rl[i]) {
				return false
			}
		}
		return true
	case SysError:
		_, ok := r.(SysError)
		return ok
	default:
		return l == r // identity for capabilities, functions, wallets
	}
}
