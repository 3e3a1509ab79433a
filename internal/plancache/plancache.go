// Package plancache caches compiled query plans across executions. The
// mediator's planning pipeline (parse, rewrite, unfold views, optimize) is
// pure given a catalog snapshot and the optimizer configuration, so a plan
// compiled once can serve every later execution of the same statement
// shape until the catalog changes something it read. The cache is a
// sharded LRU keyed by the normalized statement text plus the rest of what
// the compiler consumed that is known before compiling: the optimizer
// options fingerprint and the source-availability mask (circuit breakers
// change which plans are valid without touching the catalog).
//
// An entry may also carry an alternate key, a second text under the same
// options and mask: the engine stores the token key of the statement that
// compiled the plan there, so a later statement of that shape finds the
// plan before it is parsed (see sqlparse.CacheKeys). Both keys name one
// entry: it is counted, aged, evicted and invalidated once.
//
// The catalog is not part of the key: which names a plan read is known
// only after compiling it. The engine stores that with the value, checks
// it against the current catalog snapshot on every hit, and after a
// catalog write retires the plans that read what the write changed with
// one RetireIf scan.
package plancache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one compiled plan. Two executions share a plan only when
// every field matches: same normalized SQL, same optimizer configuration,
// same set of reachable sources.
type Key struct {
	// SQL is the normalized statement text (literals replaced by $n).
	SQL string
	// Options fingerprints the optimizer/runtime options that shape the
	// plan (optimizer on/off, semi-join policy, replica routing, ...).
	Options string
	// Availability masks which sources were reachable at compile time;
	// breaker transitions flip it and naturally miss to a fresh compile.
	Availability string
}

func (k Key) hash() uint64 { return sum(k.SQL, k.Options, k.Availability) }

// sum is FNV-1a over text, a zero byte, options, a zero byte and
// availability: the hash a key, or an alternate key under its entry's
// options and mask, is found by.
func sum[T string | []byte](text T, options, availability string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint64(text[i])) * prime
	}
	h *= prime // the zero byte
	for i := 0; i < len(options); i++ {
		h = (h ^ uint64(options[i])) * prime
	}
	h *= prime
	for i := 0; i < len(availability); i++ {
		h = (h ^ uint64(availability[i])) * prime
	}
	return h
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// DriftInvalidations counts entries dropped because the cardinality-
	// feedback store drifted past its generation-bump threshold after the
	// plan was costed — tracked apart from catalog invalidations so the
	// adaptive loop's cache churn is visible on its own.
	DriftInvalidations uint64 `json:"driftInvalidations"`
	Entries            int    `json:"entries"`
	Capacity           int    `json:"capacity"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

const defaultShards = 16

// An Entry is one cached plan. Its keys and value never change once it is
// stored; replacing a value stores a new entry.
type Entry struct {
	key     Key
	alt     string // the alternate key's text, "" for none
	hash    uint64 // of key
	altHash uint64 // of alt under key's options and mask
	value   any
	// prev and next link the entry into its shard's LRU ring, under the
	// shard's lock; both are nil once it has been removed.
	prev, next *Entry
}

// Value returns the entry's plan.
func (e *Entry) Value() any { return e.value }

// Alt returns the entry's alternate key, "" for none.
func (e *Entry) Alt() string { return e.alt }

// A shard holds the entries whose key hashes to it, found by that hash.
// Two keys with one hash displace each other, which costs a compile and
// never serves a wrong plan: every lookup compares the key itself.
type shard struct {
	mu    sync.Mutex
	items map[uint64]*Entry
	ring  Entry // sentinel: ring.next is the most recently used entry
	cap   int
}

// An altShard indexes, by alternate-key hash, the entries of any shard
// whose alternate key hashes to it. Its lock is taken alone, or after a
// shard's lock, never before one.
type altShard struct {
	mu   sync.Mutex
	alts map[uint64]*Entry
}

// Cache is a concurrency-safe sharded LRU of compiled plans. Values are
// opaque to the cache; the engine stores immutable plan templates, so a
// value handed out by Get is safe to use without copying.
type Cache struct {
	shards []*shard
	alts   []*altShard

	hits               atomic.Uint64
	misses             atomic.Uint64
	evictions          atomic.Uint64
	invalidations      atomic.Uint64
	driftInvalidations atomic.Uint64
}

// New creates a cache holding at most capacity plans (minimum one per
// shard). Capacity <= 0 means a small default of 256.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	n := defaultShards
	if capacity < n {
		n = capacity
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]*shard, n), alts: make([]*altShard, n)}
	for i := range c.shards {
		s := &shard{items: make(map[uint64]*Entry), cap: perShard}
		s.ring.prev, s.ring.next = &s.ring, &s.ring
		c.shards[i] = s
		c.alts[i] = &altShard{alts: make(map[uint64]*Entry)}
	}
	return c
}

func (c *Cache) shardOf(h uint64) *shard { return c.shards[h%uint64(len(c.shards))] }

func (c *Cache) altShardOf(h uint64) *altShard { return c.alts[h%uint64(len(c.alts))] }

// Get returns the cached plan for the key, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	e, ok := c.GetEntry(k)
	if !ok {
		return nil, false
	}
	return e.value, true
}

// GetEntry is Get returning the plan's entry.
func (c *Cache) GetEntry(k Key) (*Entry, bool) {
	h := k.hash()
	s := c.shardOf(h)
	s.mu.Lock()
	e := s.items[h]
	ok := e != nil && e.key == k
	if ok {
		s.touch(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// AttachAlt gives a cached entry without an alternate key one: it
// replaces e, in its place in the LRU order, with an entry under the same
// key carrying alt and the value v, and reports whether it did. It does
// nothing once e has been removed or replaced, or when e has an alternate
// key. No counter moves: the cache holds the same plans.
func (c *Cache) AttachAlt(e *Entry, alt string, v any) bool {
	if alt == "" || e.alt != "" {
		return false
	}
	ne := &Entry{key: e.key, alt: alt, hash: e.hash, altHash: sum(alt, e.key.Options, e.key.Availability), value: v}
	s := c.shardOf(e.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.items[e.hash] != e {
		return false
	}
	ne.prev, ne.next = e.prev, e.next
	ne.prev.next, ne.next.prev = ne, ne
	e.prev, e.next = nil, nil
	s.items[e.hash] = ne
	as := c.altShardOf(ne.altHash)
	as.mu.Lock()
	as.alts[ne.altHash] = ne
	as.mu.Unlock()
	return true
}

// PeekAlt returns the entry whose alternate key is alt under k's options
// and availability mask (k.SQL is not read). It neither marks the entry
// used nor counts the lookup: a caller that serves the entry's plan calls
// Hit, and one that does not looks the plan up again by its key, which
// counts once, as a hit or a miss.
func (c *Cache) PeekAlt(alt []byte, k Key) (*Entry, bool) {
	h := sum(alt, k.Options, k.Availability)
	as := c.altShardOf(h)
	as.mu.Lock()
	e := as.alts[h]
	ok := e != nil && e.alt == string(alt) && e.key.Options == k.Options && e.key.Availability == k.Availability
	as.mu.Unlock()
	return e, ok
}

// Hit counts a hit on an entry PeekAlt returned and marks it most
// recently used, unless it has been removed since.
func (c *Cache) Hit(e *Entry) {
	s := c.shardOf(e.hash)
	s.mu.Lock()
	if e.next != nil {
		s.touch(e)
	}
	s.mu.Unlock()
	c.hits.Add(1)
}

// Put stores a plan under the key, evicting the least recently used entry
// of the shard if it is full. Storing an existing key replaces its value.
func (c *Cache) Put(k Key, v any) { c.PutAlt(k, "", v) }

// PutAlt stores a plan like Put, with alt as its alternate key ("" for
// none) under k's options and availability mask.
func (c *Cache) PutAlt(k Key, alt string, v any) {
	e := &Entry{key: k, alt: alt, hash: k.hash(), value: v}
	if alt != "" {
		e.altHash = sum(alt, k.Options, k.Availability)
	}
	s := c.shardOf(e.hash)
	evicted := 0
	s.mu.Lock()
	if old := s.items[e.hash]; old != nil {
		c.unlink(s, old)
		if old.key != k {
			evicted++
		}
	}
	s.items[e.hash] = e
	e.prev, e.next = &s.ring, s.ring.next
	e.prev.next, e.next.prev = e, e
	if alt != "" {
		as := c.altShardOf(e.altHash)
		as.mu.Lock()
		as.alts[e.altHash] = e
		as.mu.Unlock()
	}
	if len(s.items) > s.cap {
		c.unlink(s, s.ring.prev)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// touch moves a linked entry to the front of s's ring; s.mu is held.
func (s *shard) touch(e *Entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = &s.ring, s.ring.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes a linked entry from s and from the alternate-key index;
// s.mu is held. The index slot is left alone if another entry whose
// alternate key hashes alike has taken it.
func (c *Cache) unlink(s *shard, e *Entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(s.items, e.hash)
	if e.alt != "" {
		as := c.altShardOf(e.altHash)
		as.mu.Lock()
		if as.alts[e.altHash] == e {
			delete(as.alts, e.altHash)
		}
		as.mu.Unlock()
	}
}

// Invalidate removes one entry the caller found stale on lookup — the
// engine calls it for a plan compiled against a catalog snapshot that a
// later write made stale before the plan was stored. Reported under
// Invalidations.
func (c *Cache) Invalidate(k Key) bool {
	ok := c.remove(k)
	if ok {
		c.invalidations.Add(1)
	}
	return ok
}

// InvalidateDrift removes one entry whose costing inputs drifted — the
// engine calls it when an adaptive lookup finds a plan compiled under a
// feedback-store generation that has since been bumped. Reported under
// DriftInvalidations, not Invalidations: catalog churn and estimate
// drift are different operational signals.
func (c *Cache) InvalidateDrift(k Key) bool {
	ok := c.remove(k)
	if ok {
		c.driftInvalidations.Add(1)
	}
	return ok
}

func (c *Cache) remove(k Key) bool {
	h := k.hash()
	s := c.shardOf(h)
	s.mu.Lock()
	e := s.items[h]
	ok := e != nil && e.key == k
	if ok {
		c.unlink(s, e)
	}
	s.mu.Unlock()
	return ok
}

// RetireIf removes every entry whose value satisfies stale, in one scan,
// and returns how many it removed, counted under Invalidations. The engine
// calls it after a catalog write with a predicate naming the plans that
// read what the write changed. stale runs under a shard lock: it must not
// call back into the cache.
func (c *Cache) RetireIf(stale func(v any) bool) int {
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for e := s.ring.next; e != &s.ring; {
			next := e.next
			if stale(e.value) {
				c.unlink(s, e)
				removed++
			}
			e = next
		}
		s.mu.Unlock()
	}
	if removed > 0 {
		c.invalidations.Add(uint64(removed))
	}
	return removed
}

// Purge empties the cache, counting every removed entry as invalidated.
func (c *Cache) Purge() int {
	return c.RetireIf(func(any) bool { return true })
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	capTotal := 0
	for _, s := range c.shards {
		capTotal += s.cap
	}
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Evictions:          c.evictions.Load(),
		Invalidations:      c.invalidations.Load(),
		DriftInvalidations: c.driftInvalidations.Load(),
		Entries:            c.Len(),
		Capacity:           capTotal,
	}
}
