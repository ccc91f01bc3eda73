package shill

import (
	"sync"
	"testing"
)

// The parse cache is machine-wide and content-hash-keyed: sessions
// share parsed scripts and modules, concurrent warm-up is race-clean,
// and updating a script under the same name can never execute a stale
// parse (a new content hash is a new cache entry).

const cacheHello = "#lang shill/ambient\n\nappend(stdout, \"hi\\n\");\n"

func TestCompileCacheContentHash(t *testing.T) {
	m := newTestMachine(t)
	m.AddScript("hello.ambient", cacheHello)
	s := m.NewSession()
	defer s.Close()

	res, err := s.Run(bg, Script{Name: "hello.ambient"})
	if err != nil || res.Console != "hi\n" {
		t.Fatalf("first run = %q, %v", res.Console, err)
	}
	hits0, misses0 := m.CompileCacheStats()
	if misses0 == 0 {
		t.Fatal("first run recorded no cache miss")
	}

	res, err = s.Run(bg, Script{Name: "hello.ambient"})
	if err != nil || res.Console != "hi\n" {
		t.Fatalf("second run = %q, %v", res.Console, err)
	}
	hits1, misses1 := m.CompileCacheStats()
	if misses1 != misses0 {
		t.Fatalf("second run of identical source re-parsed: misses %d -> %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Fatalf("second run did not hit the cache: hits %d -> %d", hits0, hits1)
	}
}

// warmCap exercises the shared AST under concurrency: closures,
// loops, conditionals and a contract, all evaluated from one parse.
const warmCap = `#lang shill/cap

provide count_to : {out : file(+append), n : is_num} -> void;

count_to = fun(out, n) {
  for i in range(n) {
    label = fun(k) { if k == n - 1 then { "last"; } else { "i" + k; } };
    append(out, label(i) + "\n");
  }
};
`

const warmAmbient = "#lang shill/ambient\n\nrequire \"warm.cap\";\ncount_to(stdout, 3);\n"

func TestTreeWalkWarmsCompileCache(t *testing.T) {
	// Required modules go through the cache as well as the ambient
	// script, and a warm run is labelled a hit on its compile span.
	m := newTestMachine(t)
	m.AddScript("warm.cap", warmCap)
	s := m.NewSession()
	defer s.Close()
	run := func() *Result {
		t.Helper()
		res, err := s.Run(bg, Script{Name: "warm.ambient", Source: warmAmbient})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run()
	hits, misses := m.CompileCacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("cold run: hits=%d misses=%d, want a miss for the script and for its module", hits, misses)
	}
	res := run()
	if hits, misses := m.CompileCacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("warm run: hits=%d misses=%d, want both sources hits", hits, misses)
	}
	var labelled bool
	for _, sp := range res.Trace {
		if sp.Kind == SpanCompile {
			labelled = sp.Detail == "cache=hit"
		}
	}
	if !labelled {
		t.Fatalf("warm run's compile span is not labelled cache=hit: %+v", res.Trace)
	}
}

func TestCompileCacheConcurrentWarmup(t *testing.T) {
	// 16 sessions race to warm the same script and module. Racing
	// first parses may each miss (the cache trades duplicate work for
	// lock-freedom), but every run must succeed with the right output
	// while sharing the cached ASTs, and once warm the miss count stays
	// fixed.
	m := newTestMachine(t)
	m.AddScript("warm.cap", warmCap)
	m.AddScript("warm.ambient", warmAmbient)
	const want = "i0\ni1\nlast\n"

	const sessions = 16
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	consoles := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		s := m.NewSession()
		defer s.Close()
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				res, err := s.Run(bg, Script{Name: "warm.ambient"})
				errs[i] = err
				if res != nil {
					consoles[i] = res.Console
				}
				if err != nil || consoles[i] != want {
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil || consoles[i] != want {
			t.Fatalf("session %d: console %q, err %v", i, consoles[i], errs[i])
		}
	}
	hits, misses := m.CompileCacheStats()
	if hits+misses < 2*3*sessions {
		t.Fatalf("cache saw %d lookups across %d sessions", hits+misses, sessions)
	}

	// The cache is now warm: one more session is a pure hit.
	s := m.NewSession()
	defer s.Close()
	if _, err := s.Run(bg, Script{Name: "warm.ambient"}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := m.CompileCacheStats()
	if misses2 != misses {
		t.Fatalf("warm cache re-parsed: misses %d -> %d", misses, misses2)
	}
	if hits2 <= hits {
		t.Fatalf("warm run did not hit: hits %d -> %d", hits, hits2)
	}
}

func TestCompileCacheScriptUpdateNotStale(t *testing.T) {
	// Re-registering a script under the same name must execute the new
	// source, never a stale parse; re-registering the original source
	// afterwards is a pure content-hash hit.
	v1 := "#lang shill/ambient\n\nappend(stdout, \"v1\\n\");\n"
	v2 := "#lang shill/ambient\n\nappend(stdout, \"v2\\n\");\n"

	m := newTestMachine(t)
	m.AddScript("u.ambient", v1)
	s := m.NewSession()
	defer s.Close()

	run := func(want string) {
		t.Helper()
		res, err := s.Run(bg, Script{Name: "u.ambient"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Console != want {
			t.Fatalf("console = %q, want %q (stale parse executed?)", res.Console, want)
		}
	}
	run("v1\n")
	m.AddScript("u.ambient", v2)
	run("v2\n")
	_, missesAfterV2 := m.CompileCacheStats()

	// Reverting to v1 must not re-parse: the v1 entry is still keyed
	// by its content hash.
	m.AddScript("u.ambient", v1)
	run("v1\n")
	if _, misses := m.CompileCacheStats(); misses != missesAfterV2 {
		t.Fatalf("reverting to cached source re-parsed: misses %d -> %d", missesAfterV2, misses)
	}
}
