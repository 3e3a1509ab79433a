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
// The catalog is not part of the key: which names a plan read is known
// only after compiling it. The engine stores that with the value, checks
// it against the current catalog snapshot on every hit, and after a
// catalog write retires the plans that read what the write changed with
// one RetireIf scan.
package plancache

import (
	"container/list"
	"hash/fnv"
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

func (k Key) hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.SQL))
	h.Write([]byte{0})
	h.Write([]byte(k.Options))
	h.Write([]byte{0})
	h.Write([]byte(k.Availability))
	return h.Sum64()
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

type entry struct {
	key   Key
	value any
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*list.Element
	order *list.List // front = most recently used
	cap   int
}

// Cache is a concurrency-safe sharded LRU of compiled plans. Values are
// opaque to the cache; the engine stores immutable plan templates, so a
// value handed out by Get is safe to use without copying.
type Cache struct {
	shards []*shard

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
	c := &Cache{shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{
			items: make(map[Key]*list.Element),
			order: list.New(),
			cap:   perShard,
		}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return c.shards[k.hash()%uint64(len(c.shards))]
}

// Get returns the cached plan for the key, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.items[k]
	var v any
	if ok {
		s.order.MoveToFront(el)
		v = el.Value.(*entry).value // under the lock: Put may replace it
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// Put stores a plan under the key, evicting the least recently used entry
// of the shard if it is full. Storing an existing key replaces its value.
func (c *Cache) Put(k Key, v any) {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		el.Value.(*entry).value = v
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[k] = s.order.PushFront(&entry{key: k, value: v})
	var evicted bool
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*entry).key)
			evicted = true
		}
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
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
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.items[k]
	if ok {
		s.order.Remove(el)
		delete(s.items, k)
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
		for el := s.order.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*entry); stale(e.value) {
				s.order.Remove(el)
				delete(s.items, e.key)
				removed++
			}
			el = next
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
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		removed += s.order.Len()
		s.items = make(map[Key]*list.Element)
		s.order.Init()
		s.mu.Unlock()
	}
	if removed > 0 {
		c.invalidations.Add(uint64(removed))
	}
	return removed
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
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
