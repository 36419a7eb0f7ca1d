package clusterdb

import "sync"

// planCache memoizes parse() output keyed on the SQL text. The Rocks hot
// paths — the kickstart CGI's NodeByIP, insert-ethers' NodeByMAC, the
// dbreport queries — repeat a small set of statements thousands of times
// during a reinstall storm or cabinet discovery; re-lexing them each time
// costs more than executing them once indexes answer the lookup.
//
// The cache is generation-capped rather than LRU: statements live in a
// current map, and when that fills the whole map rotates to "previous" and
// a fresh current starts. A hit in the previous generation promotes the
// entry, so the working set survives rotation while one-shot texts (an
// administrator's rocksql statements, a facts report's values) age out after
// at most two generations. This keeps the cache bounded without per-hit
// bookkeeping. A discovery's INSERT never comes here: it is built, not
// parsed (schema.go, insertNodeLocked).
//
// Cached statements are shared across goroutines: the executor never
// mutates an AST, so a parsed statement is immutable after parse() returns.
// Parse errors are never cached — error texts are cheap to recompute and
// malformed statements shouldn't occupy slots.
type planCache struct {
	mu           sync.Mutex
	cur, prev    map[string]statement
	hits, misses uint64
}

// planCacheGeneration is the per-generation entry cap; the cache holds at
// most twice this many statements.
const planCacheGeneration = 512

func (pc *planCache) get(sql string) (statement, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st, ok := pc.cur[sql]; ok {
		pc.hits++
		return st, true
	}
	if st, ok := pc.prev[sql]; ok {
		pc.hits++
		delete(pc.prev, sql)
		pc.promote(sql, st)
		return st, true
	}
	pc.misses++
	return nil, false
}

func (pc *planCache) put(sql string, st statement) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.cur[sql]; ok {
		return
	}
	pc.promote(sql, st)
}

// promote installs an entry in the current generation, rotating first if it
// is full. Callers hold pc.mu.
func (pc *planCache) promote(sql string, st statement) {
	if pc.cur == nil {
		pc.cur = make(map[string]statement)
	}
	if len(pc.cur) >= planCacheGeneration {
		pc.prev = pc.cur
		pc.cur = make(map[string]statement)
	}
	pc.cur[sql] = st
}

// stats returns hit/miss counters and the live entry count.
func (pc *planCache) stats() (hits, misses uint64, entries int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, len(pc.cur) + len(pc.prev)
}
