// Package oracle is the differential security oracle for generated
// SHILL programs (internal/gen): it executes the capability-sandboxed
// and ambient variants of each program on shill.Machine sessions and
// checks the paper's §2.3 property three ways, per operation:
//
//  1. no-escape — zero filesystem + network effects outside the
//     program's manifest (its workspace root, its port range, the
//     session consoles). The default implementation watches a
//     change window over the run (O(dirty paths)); a walk-and-diff
//     slow path (O(tree), test-only) survives as the cross-check
//     that the fast path misses nothing;
//  2. DAC-conjunction — any operation that succeeds under the sandboxed
//     variant also succeeds under the ambient variant: capabilities
//     only ever subtract authority, so MAC can never weaken DAC
//     (generalizing TestMACNeverWeakensDAC from fixed trials to
//     generated programs);
//  3. deny-provenance — the first operation that fails sandboxed but
//     succeeds ambient (a denial attributable to the sandbox, not to
//     DAC) has a matching structured audit.DenyReason naming a
//     privilege absent from the manifest's grant for the denied object;
//     and no capability-layer denial ever claims to lack a privilege
//     the manifest granted.
//
// The ambient run is the reference semantics — the oracle never
// predicts outcomes, it compares them, which is what lets it judge
// arbitrary generated programs (the Smoosh lesson: an executable
// semantics pays off when driven by an observable-behavior oracle).
package oracle

import (
	"context"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/gen"
	"repro/internal/priv"
	"repro/shill"
)

// UserUID is the unprivileged uid generated programs run as.
const UserUID = shill.UserUID

// ProtectedRoot is the tree outside every program's manifest that
// escape attempts target; StageProtected builds it and the no-escape
// check always covers it.
const ProtectedRoot = "/gen/secret"

// Soak port namespace: program instances on a shared machine draw
// their port bases from [SharedPortMin, SharedPortMax) so listener
// escapes are distinguishable from neighbours' legitimate listeners.
const (
	SharedPortMin = 20000
	SharedPortMax = 52000
	// portSlotSpan is the per-variant port budget; the ambient variant
	// uses PortBase+portSlotSpan so paired variants never collide.
	portSlotSpan = 64
)

// runTimeout bounds one variant's execution; a generated program that
// blocks past it is itself an oracle failure (no generated op may
// block indefinitely).
const runTimeout = 30 * time.Second

// Checker drives program pairs on one machine.
type Checker struct {
	M *shill.Machine
	// Exclusive marks the machine as owned by this checker alone:
	// snapshots then cover the entire image outside the program's own
	// roots, and every capability denial in the run window is held to
	// the soundness check. On a shared (soak) machine, snapshots skip
	// other programs' areas under /gen and denial checks are filtered
	// to objects attributable to this program.
	Exclusive bool

	// slowSnapshots selects the O(tree) walk-and-diff implementation of
	// the no-escape check instead of the default O(dirty) change-window
	// fast path. The two are equivalent on every verdict the oracle
	// reports; only the equivalence tests set it, keeping the slow path
	// as the independent cross-check of the fast one.
	slowSnapshots bool

	// tamper, when set, runs after the sandboxed variant finishes and
	// before its post-run no-escape check — a deterministic seam the
	// oracle's own tests use to prove the check actually fires.
	tamper func()
}

// Instance places one program check on the machine: a base directory
// (the sandboxed variant runs under Base/sbx, the ambient under
// Base/amb) and a port base for the program's abstract slots.
type Instance struct {
	Base     string
	PortBase int
}

// Violation is one property failure.
type Violation struct {
	Property string // "no-escape", "conjunction", "deny-provenance", "harness"
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// PairResult reports one checked program pair.
type PairResult struct {
	Seed       int64
	Ops        int
	Violations []Violation
	SbxConsole string
	AmbConsole string
	SbxDenials []*shill.DenyReason
	Divergent  string // first sandbox-only failing op label, if any
	// Canceled marks a check aborted by the caller's context — its
	// (partial) outcome is not a verdict and must not be reported as a
	// property failure.
	Canceled bool
}

// Failed reports whether any property was violated.
func (r *PairResult) Failed() bool { return len(r.Violations) > 0 }

// StageProtected builds the protected tree escape attempts target. It
// is idempotent; every machine the oracle drives stages it once.
func StageProtected(m *shill.Machine) error {
	if err := m.MkdirAll(ProtectedRoot, 0o755, 0); err != nil {
		return err
	}
	if err := m.WriteFile(ProtectedRoot+"/leak.txt", []byte("TOP-SECRET"), 0o644, 0); err != nil {
		return err
	}
	return m.WriteFile(ProtectedRoot+"/shadow", []byte("root-only"), 0o600, 0)
}

// stageWorkspace builds one variant's workspace per the manifest.
func (c *Checker) stageWorkspace(root string, man *gen.Manifest) error {
	if err := c.M.MkdirAll(root, 0o755, UserUID); err != nil {
		return err
	}
	for _, e := range man.Stage {
		uid := UserUID
		if e.Root {
			uid = 0
		}
		path := root + "/" + e.Rel
		if e.Dir {
			if err := c.M.MkdirAll(path, e.Mode, uid); err != nil {
				return err
			}
			continue
		}
		if err := c.M.WriteFile(path, []byte(e.Data), e.Mode, uid); err != nil {
			return err
		}
	}
	return nil
}

// skipFor returns the no-escape skip predicate for one variant: the
// paths the check cannot reason about. In exclusive mode that is only
// the currently-running variant's root and the session consoles; in
// shared mode also everything under /gen except the protected tree
// (other programs legitimately churn their own areas under /gen
// concurrently). The predicate is subtree-closed — skipping a
// directory skips everything under it — which is what lets SnapshotFS
// prune skipped subtrees and the fast path filter touched paths
// individually, and still agree.
func (c *Checker) skipFor(activeRoot string) func(path string) bool {
	return func(path string) bool {
		if path == activeRoot || strings.HasPrefix(path, activeRoot+"/") {
			return true
		}
		if path == "/dev/pts" || strings.HasPrefix(path, "/dev/pts/") {
			return true
		}
		if !c.Exclusive {
			// Shared machine: the only paths under /gen this checker can
			// reason about are the protected tree's.
			if strings.HasPrefix(path, "/gen/") && !underProtected(path) {
				return true
			}
		}
		return false
	}
}

// snapshot captures the no-escape-relevant filesystem state by walking
// the whole image — the slow path.
func (c *Checker) snapshot(activeRoot string) map[string]string {
	return c.M.SnapshotFS(c.skipFor(activeRoot))
}

// filterEscapes reduces a change window's touched paths to the ones the
// no-escape property covers, formatted for the violation message. The
// window is conservative — it reports where writes landed, not whether
// content ended up different — but a benign variant performs no writes
// at all outside its manifest, so "touched" and "changed" coincide on
// every verdict.
func (c *Checker) filterEscapes(touched []string, activeRoot string) []string {
	skip := c.skipFor(activeRoot)
	var out []string
	for _, p := range touched {
		if skip(p) {
			continue
		}
		out = append(out, "touched "+p)
	}
	sort.Strings(out)
	return out
}

func underProtected(path string) bool {
	return path == ProtectedRoot || strings.HasPrefix(path, ProtectedRoot+"/")
}

// diffSnapshots reports paths whose fingerprint changed, appeared, or
// vanished between two snapshots.
func diffSnapshots(before, after map[string]string) []string {
	var out []string
	for path, was := range before {
		now, ok := after[path]
		switch {
		case !ok:
			out = append(out, "removed "+path)
		case now != was:
			out = append(out, "altered "+path)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			out = append(out, "created "+path)
		}
	}
	sort.Strings(out)
	return out
}

// newListeners returns after-run listeners that were not present
// before the run and are not permitted by the program's port range.
func (c *Checker) newListeners(before, after []string, portBase, slots int) []string {
	prev := make(map[string]struct{}, len(before))
	for _, l := range before {
		prev[l] = struct{}{}
	}
	allowed := make(map[string]struct{}, slots)
	for s := 0; s < slots; s++ {
		allowed[fmt.Sprintf("ip!%d", portBase+s)] = struct{}{}
	}
	var out []string
	for _, l := range after {
		if _, ok := prev[l]; ok {
			continue
		}
		if _, ok := allowed[l]; ok {
			continue
		}
		if !c.Exclusive && sharedRangeListener(l) {
			continue // a neighbour's legitimate listener on the shared machine
		}
		out = append(out, l)
	}
	return out
}

func sharedRangeListener(l string) bool {
	var port int
	if _, err := fmt.Sscanf(l, "ip!%d", &port); err != nil {
		return false
	}
	return port >= SharedPortMin && port < SharedPortMax
}

// CheckProgram stages, runs, and checks one program pair on the given
// session. The session is reused across calls; the instance's Base and
// PortBase must be unique per call on a shared machine. The staged
// trees are removed afterwards so long soaks don't grow the image.
func (c *Checker) CheckProgram(ctx context.Context, s *shill.Session, p *gen.Program, inst Instance) *PairResult {
	res := &PairResult{Seed: p.Seed, Ops: p.NumOps()}
	man := &p.Manifest
	if man.Ports > portSlotSpan {
		// The paired-variant port layout (ambient at PortBase+portSlotSpan,
		// soak instances strided 2*portSlotSpan apart) relies on this
		// bound; fail loudly instead of producing baffling listener
		// overlaps if the generator ever outgrows it.
		res.Violations = append(res.Violations, Violation{"harness",
			fmt.Sprintf("program uses %d port slots, exceeding the %d-slot layout", man.Ports, portSlotSpan)})
		return res
	}

	sbxRoot, ambRoot := inst.Base+"/sbx", inst.Base+"/amb"
	defer c.M.RemoveTree(inst.Base)

	type variant struct {
		root     string
		portBase int
		ambient  bool
	}
	variants := []variant{
		{sbxRoot, inst.PortBase, false},
		{ambRoot, inst.PortBase + portSlotSpan, true},
	}

	var consoles [2]string
	var denials [2][]*shill.DenyReason
	var runErrs [2]error
	var sbxSeqBefore uint64
	for i, v := range variants {
		if err := c.stageWorkspace(v.root, man); err != nil {
			res.Violations = append(res.Violations,
				Violation{"harness", fmt.Sprintf("staging %s: %v", v.root, err)})
			return res
		}
		driver, module := p.Render(gen.RenderConfig{
			Root: v.root, Console: s.ConsolePath(),
			PortBase: v.portBase, Ambient: v.ambient,
		})
		var fsBefore map[string]string
		var win *shill.FSWindow
		if c.slowSnapshots {
			fsBefore = c.snapshot(v.root)
		} else {
			win = c.M.OpenFSWindow()
		}
		netBefore := c.M.NetListeners()
		if !v.ambient {
			sbxSeqBefore = c.M.AuditSeq()
		}

		rctx, cancel := context.WithTimeout(ctx, runTimeout)
		r, err := s.Run(rctx, shill.Script{
			Name:     "gen_driver.ambient",
			Source:   driver,
			Resolver: shill.MapResolver{"gen.cap": module},
		})
		cancel()
		runErrs[i] = err
		if r != nil {
			consoles[i] = r.Console
			denials[i] = r.Denials
		}
		if c.tamper != nil && !v.ambient {
			c.tamper()
		}

		// Property 1: no-escape, checked per variant so a sandboxed
		// escape cannot hide behind the ambient run's legitimate churn.
		var diff []string
		if c.slowSnapshots {
			diff = diffSnapshots(fsBefore, c.snapshot(v.root))
		} else {
			touched := win.Touched()
			win.Close()
			diff = c.filterEscapes(touched, v.root)
		}
		if len(diff) > 0 {
			res.Violations = append(res.Violations, Violation{"no-escape",
				fmt.Sprintf("%s variant changed state outside its manifest: %s",
					variantName(v.ambient), strings.Join(head(diff, 6), "; "))})
		}
		if leaks := c.newListeners(netBefore, c.M.NetListeners(), v.portBase, man.Ports); len(leaks) > 0 {
			res.Violations = append(res.Violations, Violation{"no-escape",
				fmt.Sprintf("%s variant left listeners outside its port range: %v",
					variantName(v.ambient), leaks)})
		}
	}
	res.SbxConsole, res.AmbConsole = consoles[0], consoles[1]
	res.SbxDenials = denials[0]

	// Generated programs are defensively rendered: every fallible op is
	// syserror-guarded, so a hard run error in either variant means the
	// harness (or the interpreter) broke, not the program — unless the
	// caller's own context was cancelled (operator shutdown), which is
	// no verdict at all.
	if ctx.Err() != nil {
		res.Canceled = true
		res.Violations = nil
		return res
	}
	for i, err := range runErrs {
		if err != nil {
			res.Violations = append(res.Violations, Violation{"harness",
				fmt.Sprintf("%s variant aborted: %v", variantName(i == 1), err)})
		}
	}
	if runErrs[0] != nil || runErrs[1] != nil {
		return res
	}

	sbxOrder, sbxTok := parseStatuses(consoles[0])
	_, ambTok := parseStatuses(consoles[1])

	// Properties 2 and 3 are judged at the FIRST divergent op only: up
	// to it the two workspaces hold identical state (same staged tree,
	// same op sequence, same outcomes), so a differing outcome there is
	// attributable purely to the authority difference. Past it the
	// states legitimately drift (an op denied sandboxed but performed
	// ambient changes what later ops see), and comparisons stop meaning
	// anything.
	for _, label := range sbxOrder {
		st, at := sbxTok[label], ambTok[label]
		if at == "" {
			// The ambient run never reached this op. Since the runs agree
			// up to here, this can only happen if a guard's nesting
			// structure itself diverged at this very op — treat it as the
			// first divergence with an unreached ambient side.
			break
		}
		if okToken(st) == okToken(at) {
			continue
		}
		res.Divergent = label
		if okToken(st) {
			// Property 2: DAC-conjunction. The sandboxed run performed an
			// operation the same user's ambient authority refused.
			res.Violations = append(res.Violations, Violation{"conjunction",
				fmt.Sprintf("%s succeeded sandboxed (%s) but failed ambient (%s): the sandbox exceeded the user's ambient authority", label, st, at)})
		} else if !c.hasQualifyingDenial(denials[0], man, sbxRoot, s.ConsolePath()) &&
			!c.hasQualifyingDenial(c.retainedDenials(sbxSeqBefore), man, sbxRoot, s.ConsolePath()) {
			// Property 3: deny-provenance. A sandbox-only failure must be
			// explained by an audited denial naming a privilege (or
			// object) absent from the manifest. The Result's window reads
			// the small log-wide denial ring, which a denial-heavy
			// neighbour burst can overrun on a shared machine, so on a
			// miss we re-query the full retained log (session deny
			// side-rings included) before declaring a violation.
			res.Violations = append(res.Violations, Violation{"deny-provenance",
				fmt.Sprintf("%s failed only under the sandbox, but no audited denial names a privilege absent from the manifest (%d denials in window)",
					label, len(denials[0]))})
		}
		break
	}

	// Property 3b (soundness): no capability-layer denial in the
	// sandboxed window may claim to lack a privilege the manifest
	// granted for that object — attenuation must be exact. On a shared
	// machine the window can contain neighbours' denials, so only
	// objects provably this program's (paths under its root) are held
	// to the check there; an exclusive machine checks every denial.
	for _, d := range denials[0] {
		d.Resolve() // force lazily-described objects before field reads
		if d.Layer != audit.LayerCapability {
			continue
		}
		if !c.Exclusive && !underRoot(d.Object, sbxRoot) {
			continue
		}
		granted := grantFor(d.Object, man, sbxRoot, s.ConsolePath())
		if over := d.Missing.Intersect(granted); !over.Empty() {
			res.Violations = append(res.Violations, Violation{"deny-provenance",
				fmt.Sprintf("capability denial for %q on %s claims missing privileges %v that the manifest grants",
					d.Op, d.Object, over)})
		}
	}
	return res
}

func underRoot(object, root string) bool {
	return object == root || strings.HasPrefix(object, root+"/")
}

func variantName(ambient bool) string {
	if ambient {
		return "ambient"
	}
	return "sandboxed"
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return append(xs[:n:n], fmt.Sprintf("... (%d more)", len(xs)-n))
	}
	return xs
}

// parseStatuses extracts "op<k>=token" lines from a run's console in
// first-appearance order. Payload lines ("log<k>=...", executable
// output) are ignored.
func parseStatuses(console string) (order []string, tokens map[string]string) {
	tokens = make(map[string]string)
	for _, line := range strings.Split(console, "\n") {
		if !strings.HasPrefix(line, "op") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			continue
		}
		label, tok := line[:eq], line[eq+1:]
		if !validLabel(label) || tok == "" {
			continue
		}
		if _, seen := tokens[label]; !seen {
			order = append(order, label)
		}
		tokens[label] = tok
	}
	return order, tokens
}

// validLabel accepts op<digits> with an optional one-letter substep
// suffix ("op12", "op12.w").
func validLabel(label string) bool {
	rest := strings.TrimPrefix(label, "op")
	if rest == "" {
		return false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		if i == 0 || len(rest)-i != 2 {
			return false
		}
		rest = rest[:i]
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// okToken reports whether a status token means success: "ok", or an
// exec verdict with exit status zero.
func okToken(tok string) bool { return tok == "ok" || tok == "x0" }

// grantFor attributes a denial object to one of the manifest's
// parameters and returns that parameter's granted privilege set.
// Objects that belong to no parameter (paths outside the workspace —
// escape targets) were granted nothing.
func grantFor(object string, man *gen.Manifest, root, console string) priv.Set {
	switch {
	case underRoot(object, root):
		return man.Grant
	case object == console:
		return man.OutGrant
	case strings.HasPrefix(object, "socket("):
		return man.SockGrant
	case object == man.Exe || object == path.Base(man.Exe):
		return man.ExeGrant
	default:
		return 0
	}
}

// retainedDenials reconstructs the denial view from the machine's full
// retained audit log (global ring, per-session shards, and every deny
// side-ring) after a sequence point — the deep-retention fallback for
// the cheap per-run window.
func (c *Checker) retainedDenials(since uint64) []*shill.DenyReason {
	events := c.M.AuditEvents(shill.AuditFilter{Verdict: shill.AuditDeny, SinceSeq: since})
	out := make([]*shill.DenyReason, 0, len(events))
	for _, e := range events {
		out = append(out, &shill.DenyReason{
			Layer: e.Layer, Policy: e.Policy, Op: e.Op, Object: e.Object,
			Session: e.Session, Missing: e.Rights, CapID: e.CapID, Seq: e.Seq,
		})
	}
	return out
}

// hasQualifyingDenial reports whether the denial window contains a
// MAC/policy/capability denial naming either an object outside the
// manifest or a privilege absent from the denied object's grant — the
// provenance the §2.3 property demands for every sandbox-only failure.
// (On a shared machine a neighbour's denial could in principle supply
// the explanation — a conservative false pass; false failures are what
// the attribution must never produce.)
func (c *Checker) hasQualifyingDenial(window []*shill.DenyReason, man *gen.Manifest, root, console string) bool {
	for _, d := range window {
		d.Resolve() // force lazily-described objects before field reads
		switch d.Layer {
		case audit.LayerCapability, audit.LayerPolicy, audit.LayerMAC:
		default:
			continue // DAC denials bind both variants equally; they cannot explain a sandbox-only failure
		}
		if d.Missing.Empty() {
			// A denial with no recorded privilege set (e.g. a blanket
			// policy refusal of an ungranted object) qualifies when the
			// object itself is outside the workspace.
			if !underRoot(d.Object, root) {
				return true
			}
			continue
		}
		if d.Missing.Intersect(grantFor(d.Object, man, root, console)).Empty() {
			return true
		}
	}
	return false
}
