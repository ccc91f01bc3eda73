package lang

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseCacheBudget: a stream of distinct sources fills the cache
// up to its byte budget and no further; sources past it still parse
// (every time, as misses) while cached ones keep hitting.
func TestParseCacheBudget(t *testing.T) {
	c := new(ParseCache)
	pad := strings.Repeat("a", 4<<10)
	src := func(i int) string { return fmt.Sprintf("#lang shill/cap\nx = %d;\ny = %q;\n", i, pad) }
	n := 2 * parseCacheBudget / len(src(0))
	for i := 0; i < n; i++ {
		s, hit, err := c.get(src(i))
		if err != nil || hit || len(s.Stmts) != 2 {
			t.Fatalf("source %d: hit=%v err=%v", i, hit, err)
		}
	}
	if b := c.bytes.Load(); b > parseCacheBudget || b < parseCacheBudget-int64(len(src(0))) {
		t.Fatalf("cache holds %d source bytes, want just under the %d budget", b, parseCacheBudget)
	}
	if _, hit, _ := c.get(src(0)); !hit {
		t.Fatal("a source cached before the budget filled no longer hits")
	}
	for r := 0; r < 2; r++ {
		s, hit, err := c.get(src(n - 1))
		if err != nil || hit || len(s.Stmts) != 2 {
			t.Fatalf("over-budget source: hit=%v err=%v", hit, err)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != uint64(n)+2 {
		t.Fatalf("stats: hits=%d misses=%d, want 1 and %d", hits, misses, n+2)
	}
}
