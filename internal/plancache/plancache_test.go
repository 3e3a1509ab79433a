package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func key(sql string) Key {
	return Key{SQL: sql, Options: "opt", Availability: "all"}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(8)
	k := key("SELECT 1")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "plan-a")
	v, ok := c.Get(k)
	if !ok || v.(string) != "plan-a" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

func TestKeyDimensionsAreDistinct(t *testing.T) {
	c := New(32)
	base := key("SELECT 1")
	c.Put(base, "a")
	for _, k := range []Key{
		{SQL: "SELECT 2", Options: "opt", Availability: "all"},
		{SQL: "SELECT 1", Options: "naive", Availability: "all"},
		{SQL: "SELECT 1", Options: "opt", Availability: "crm-down"},
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %+v unexpectedly hit", k)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 1 collapses to a single one-entry shard, which makes the
	// eviction order observable.
	c := New(1)
	c.Put(key("q1"), 1)
	c.Put(key("q2"), 2)
	if _, ok := c.Get(key("q1")); ok {
		t.Fatal("q1 should have been evicted")
	}
	if _, ok := c.Get(key("q2")); !ok {
		t.Fatal("q2 missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	// White-box: collect three keys that map to the same shard (cap 2),
	// then check that touching the oldest redirects eviction.
	c := New(32)
	target := c.shardOf(key("q0").hash())
	var ks []Key
	for i := 0; len(ks) < 3; i++ {
		k := key(fmt.Sprintf("q%d", i))
		if c.shardOf(k.hash()) == target {
			ks = append(ks, k)
		}
	}
	c.Put(ks[0], 0)
	c.Put(ks[1], 1)
	c.Get(ks[0]) // refresh: ks[1] is now least recently used
	c.Put(ks[2], 2)
	if _, ok := c.Get(ks[1]); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(8)
	k := key("q")
	c.Put(k, "old")
	c.Put(k, "new")
	if v, _ := c.Get(k); v.(string) != "new" {
		t.Fatalf("Get = %v, want new", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestRetireIf(t *testing.T) {
	c := New(64)
	for v := 1; v <= 4; v++ {
		c.Put(key(fmt.Sprintf("q%d", v)), v)
	}
	if removed := c.RetireIf(func(v any) bool { return v.(int) < 3 }); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if _, ok := c.Get(key("q2")); ok {
		t.Fatal("retired entry survived")
	}
	if _, ok := c.Get(key("q3")); !ok {
		t.Fatal("unaffected entry dropped")
	}
	if !c.Invalidate(key("q4")) || c.Invalidate(key("q4")) {
		t.Fatal("Invalidate must remove a present entry exactly once")
	}
	if st := c.Stats(); st.Invalidations != 3 || st.Entries != 1 {
		t.Fatalf("invalidations = %d, entries = %d, want 3 and 1", st.Invalidations, st.Entries)
	}
}

func TestPurge(t *testing.T) {
	c := New(64)
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprintf("q%d", i)), i)
	}
	if removed := c.Purge(); removed != 10 {
		t.Fatalf("purged %d, want 10", removed)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after purge", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(fmt.Sprintf("q%d", i%50))
				if v, ok := c.Get(k); ok {
					if v.(string) != k.SQL {
						t.Errorf("wrong value for %s: %v", k.SQL, v)
						return
					}
				} else {
					c.Put(k, k.SQL)
				}
				if i%100 == 0 {
					c.RetireIf(func(v any) bool { return v.(string) < "q2" })
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Entries != c.Len() {
		t.Fatalf("stats entries %d != len %d", st.Entries, c.Len())
	}
}

// TestAltKey: an entry is found by its alternate key under its own
// options and mask only; PeekAlt counts nothing and Hit counts one hit;
// removing the entry by any path drops its alternate key too.
func TestAltKey(t *testing.T) {
	c := New(64)
	k := key("SELECT a FROM t WHERE b = $1")
	c.PutAlt(k, "tok", "plan")
	if _, ok := c.PeekAlt([]byte("tok"), Key{Options: "opt", Availability: "crm-down"}); ok {
		t.Fatal("alternate key found under another availability mask")
	}
	e, ok := c.PeekAlt([]byte("tok"), key(""))
	if !ok || e.Value().(string) != "plan" {
		t.Fatalf("PeekAlt = %v, %v", e, ok)
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("PeekAlt counted a lookup: %+v", st)
	}
	c.Hit(e)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats after Hit = %+v", st)
	}
	for name, remove := range map[string]func(){
		"Invalidate":      func() { c.Invalidate(k) },
		"InvalidateDrift": func() { c.InvalidateDrift(k) },
		"RetireIf":        func() { c.RetireIf(func(any) bool { return true }) },
		"Purge":           func() { c.Purge() },
		"Put":             func() { c.Put(k, "plan") },
	} {
		c.PutAlt(k, "tok", "plan")
		remove()
		if _, ok := c.PeekAlt([]byte("tok"), key("")); ok {
			t.Errorf("%s left the alternate key behind", name)
		}
	}
}

// TestAltKeyEvictsWithItsEntry: an evicted entry's alternate key goes
// with it, and an alternate key two entries share names the later one.
func TestAltKeyEvictsWithItsEntry(t *testing.T) {
	c := New(1)
	c.PutAlt(key("q1"), "tok", 1)
	c.PutAlt(key("q2"), "tok", 2)
	if e, ok := c.PeekAlt([]byte("tok"), key("")); !ok || e.Value().(int) != 2 {
		t.Fatalf("shared alternate key names %v, %v; want the later entry", e, ok)
	}
	c.PutAlt(key("q3"), "other", 3)
	if _, ok := c.PeekAlt([]byte("tok"), key("")); ok {
		t.Fatal("evicted entry still found by its alternate key")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// An entry evicted while a caller holds it from PeekAlt still counts
	// the hit, and is not linked back in.
	e, _ := c.PeekAlt([]byte("other"), key(""))
	c.Put(key("q4"), 4)
	c.Hit(e)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after a hit on an evicted entry", c.Len())
	}
}

// TestHashCollisionDisplaces: two keys with one hash displace each other
// and never serve each other's plan.
func TestHashCollisionDisplaces(t *testing.T) {
	c := New(64)
	a, b := key("a"), key("b")
	h := a.hash()
	s := c.shardOf(h)
	c.Put(a, "plan-a")
	// Plant b in a's slot, as a key with a's hash would land.
	s.mu.Lock()
	s.items[h].key = b
	s.mu.Unlock()
	if _, ok := c.Get(a); ok {
		t.Fatal("a lookup served the plan of another key with its hash")
	}
	c.Put(a, "plan-a2")
	if v, ok := c.Get(a); !ok || v.(string) != "plan-a2" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the displaced entry counted as evicted", st)
	}
}

// TestAltKeyConcurrent races lookups by both keys against puts, removals
// and sweeps; run under -race it checks the two-lock protocol.
func TestAltKeyConcurrent(t *testing.T) {
	c := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				n := (i*7 + w) % 40
				k, alt := key(fmt.Sprintf("q%d", n)), fmt.Sprintf("t%d", n)
				if e, ok := c.PeekAlt([]byte(alt), k); ok {
					if e.Value().(string) != k.SQL {
						t.Errorf("alternate key %s found %v", alt, e.Value())
						return
					}
					c.Hit(e)
				} else if _, ok := c.Get(k); !ok {
					c.PutAlt(k, alt, k.SQL)
				}
				switch i % 97 {
				case 0:
					c.RetireIf(func(v any) bool { return v.(string) < "q2" })
				case 1:
					c.Invalidate(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != c.Len() || st.Entries > st.Capacity {
		t.Fatalf("stats = %+v, Len %d", st, c.Len())
	}
}
