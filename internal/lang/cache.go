package lang

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// parseCacheBudget bounds the source bytes one ParseCache retains; a
// parsed script holds about 4-7 times its source size. Sources past the
// budget are parsed without being cached, so a tenant that sends
// ever-new scripts costs a parse per request instead of growing its
// machine's memory.
const parseCacheBudget = 256 << 10

// ParseCache memoizes parsed scripts by content hash, so a machine's
// sessions parse each distinct source once. Keying by the text itself
// (not its name) means a script updated under the same name can never
// run a stale parse. Parsed scripts are never mutated by evaluation,
// so sessions share them concurrently. It is safe for concurrent use;
// the zero value is an empty cache.
type ParseCache struct {
	entries sync.Map // [32]byte → *parsed
	bytes   atomic.Int64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// parsed is one cache entry. Parse errors are cached too, so a
// repeatedly submitted broken script does not pay a re-parse per
// request.
type parsed struct {
	script *Script
	err    error
}

// Stats reports cache hits and misses.
func (c *ParseCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// get returns the parse of src and whether it came from the cache.
func (c *ParseCache) get(src string) (*Script, bool, error) {
	key := sha256.Sum256([]byte(src))
	if v, ok := c.entries.Load(key); ok {
		c.hits.Add(1)
		p := v.(*parsed)
		return p.script, true, p.err
	}
	c.misses.Add(1)
	script, err := Parse(src)
	cost := int64(len(src))
	if c.bytes.Add(cost) > parseCacheBudget {
		c.bytes.Add(-cost)
		return script, false, err
	}
	if _, raced := c.entries.LoadOrStore(key, &parsed{script, err}); raced {
		c.bytes.Add(-cost) // a concurrent miss stored it first
	}
	return script, false, err
}

// parse parses src through the interpreter's cache when one is
// installed. The bool reports a cache hit, feeding the compile span's
// hit/miss detail.
func (it *Interp) parse(src string) (*Script, bool, error) {
	if it.ParseCache != nil {
		return it.ParseCache.get(src)
	}
	script, err := Parse(src)
	return script, false, err
}
