package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"
)

// This file makes every input of a run from its seed: the source tree
// staged into the golden image, the request schedules, and the tenant
// order. The program under test receives only what is generated here.

// treeRoot is where the seeded source tree lives on every tenant machine.
const treeRoot = "/home/user/src"

// scanPatterns are the grep patterns of heavy scans; each occurs in some
// lines of the seeded tree.
var scanPatterns = []string{"mac_", "vfs_", "cap_", "priv_"}

// fixedPattern is the pattern of the unparameterized heavy scan, whose
// source is the same on every request.
const fixedPattern = "mac_"

var words = []string{"int", "return", "static", "void", "struct", "node", "lock", "buf", "len", "err", "ctx", "flags"}

type file struct {
	path string
	data string
}

// tree is the seeded source tree: dirs × files per dir, mostly .c files
// with a few headers the scans' -name filter skips.
type tree struct {
	files []file // in the order find visits them (sorted per directory)
}

func genTree(seed uint64) tree {
	rng := rand.New(rand.NewPCG(seed, 0x7472656500000001))
	// The shape is the same on every seed, so every seed costs the same:
	// 40 .c files and 8 headers of treeLines lines, two lines of each .c
	// file carrying a pattern, each pattern on 20 lines. Which file is a
	// header, which lines carry which pattern, and the words are seeded.
	const dirs, perDir, headers, treeLines, lineWords = 6, 8, 8, 6, 5
	isHeader := map[int]bool{}
	for _, i := range rng.Perm(dirs * perDir)[:headers] {
		isHeader[i] = true
	}
	var pats []string
	for range 2 * (dirs*perDir - headers) / len(scanPatterns) {
		pats = append(pats, scanPatterns...)
	}
	rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
	var t tree
	for i := range dirs * perDir {
		ext := ".c"
		marked := map[int]string{}
		if isHeader[i] {
			ext = ".h"
		} else {
			lines := rng.Perm(treeLines)
			marked[lines[0]], marked[lines[1]], pats = pats[0], pats[1], pats[2:]
		}
		var b strings.Builder
		for l := range treeLines {
			for w := range lineWords {
				if w > 0 {
					b.WriteByte(' ')
				}
				if w == 1 && marked[l] != "" {
					b.WriteString(marked[l])
				}
				b.WriteString(words[rng.IntN(len(words))])
			}
			b.WriteString(";\n")
		}
		t.files = append(t.files, file{fmt.Sprintf("%s/d%d/f%02d%s", treeRoot, i/perDir, i%perDir, ext), b.String()})
	}
	return t
}

// scanOutput is what `find <root> -name *.c -exec grep -H pat {} ;`
// prints over the tree.
func (t tree) scanOutput(pat string) string {
	var b strings.Builder
	for _, f := range t.files {
		if !strings.HasSuffix(f.path, ".c") {
			continue
		}
		for _, line := range strings.Split(f.data, "\n") {
			if strings.Contains(line, pat) {
				fmt.Fprintf(&b, "%s:%s\n", f.path, line)
			}
		}
	}
	return b.String()
}

// kind is what a request does and so what a correct answer looks like.
type kind uint8

const (
	kindLight     kind = iota // read one file of the tree, print it
	kindHeavy                 // find/grep scan of the tree, fixed source
	kindHeavyP                // the same scan with its pattern passed in args
	kindDeny                  // a capability denial (why_denied)
	kindArgv                  // a native command (cat one file)
	kindAppend                // churn: append a line to the tenant's log, print the count
	kindChurnScan             // churn: the heavy-args scan churnScanRepeat times over
	numKinds
)

var kindNames = [numKinds]string{"light", "heavy", "heavy-args", "deny", "argv", "append", "churn-scan"}

func (k kind) String() string { return kindNames[k] }

// request is one planned request: its tenant and what to run, plus the
// console a correct allowed run prints.
type request struct {
	kind   kind
	tenant string
	file   int    // tree file index (light, argv)
	pat    string // scan pattern (heavy-args, churn-scan)
}

// arrivals draws n arrival offsets of a Poisson process at rate per
// second. The count is fixed (a Poisson process conditioned on n
// arrivals in n/rate seconds has uniform order statistics), so every
// seed offers exactly the same load.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mixTenants are the warm tenants of serve-mix.
const mixTenants = 8

// mixShares is the serve-mix request mix in percent: light allowed
// scripts, heavy scans (half parameterized via args), capability
// denials and native argv commands.
var mixShares = []struct {
	kind kind
	pct  int
}{{kindLight, 50}, {kindHeavy, 10}, {kindHeavyP, 10}, {kindDeny, 20}, {kindArgv, 10}}

// planMix draws n serve-mix requests: the kinds in their exact shares,
// shuffled, each on a random tenant with a random file and pattern.
func planMix(rng *rand.Rand, t tree, n int) []request {
	out := make([]request, 0, n)
	for _, s := range mixShares {
		for range n * s.pct / 100 {
			out = append(out, request{kind: s.kind})
		}
	}
	for len(out) < n {
		out = append(out, request{kind: kindLight})
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].tenant = fmt.Sprintf("m%d", rng.IntN(mixTenants))
		out[i].file = rng.IntN(len(t.files))
		out[i].pat = scanPatterns[rng.IntN(len(scanPatterns))]
	}
	return out
}

// churnTenants is how many tenants serve-churn rotates through.
const churnTenants = 64

// churnOrder is the seeded rotation order of the churn tenants.
func churnOrder(rng *rand.Rand) []string {
	out := make([]string, churnTenants)
	for i, p := range rng.Perm(churnTenants) {
		out[i] = fmt.Sprintf("c%02d", p)
	}
	return out
}

// The shares of serve-churn requests that are capability denials (one in
// churnDenyEvery) and repeated heavy scans (one in churnScanEvery). The
// scans give the tail work of its own, as the heavy scans do on
// serve-mix: were every request a trivial append, p99 (a few ms) would
// be whichever hypervisor stall last held the process.
const (
	churnDenyEvery  = 8
	churnScanEvery  = 16
	churnScanRepeat = 3
)

// planChurn draws n serve-churn requests continuing a rotation at
// position from: tenants round-robin in the seeded order, exactly one
// request in churnDenyEvery a capability denial and one in
// churnScanEvery a repeated scan (at shuffled positions), the rest
// appends.
func planChurn(rng *rand.Rand, order []string, from, n int) []request {
	out := make([]request, n)
	deny, scan := n/churnDenyEvery, n/churnScanEvery
	for i, p := range rng.Perm(n) {
		out[i] = request{kind: kindAppend, tenant: order[(from+i)%len(order)]}
		switch {
		case p < deny:
			out[i].kind = kindDeny
		case p < deny+scan:
			out[i].kind, out[i].pat = kindChurnScan, scanPatterns[p%len(scanPatterns)]
		}
	}
	return out
}
