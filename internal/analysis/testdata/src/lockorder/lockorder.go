// Fixture for the lockorder analyzer: blocking under a held mutex,
// interprocedural blocking through the call graph, lock-order cycles,
// and the ignore-directive escape hatch.
package fixture

import (
	"context"
	"sync"

	"repro/internal/netsim"
)

type store struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// hitSendUnderLock blocks on a channel send while holding mu.
func (s *store) hitSendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while holding fixture.store.mu"
	s.mu.Unlock()
}

// hitTransferUnderLock performs a named blocking transfer while the
// deferred unlock keeps mu held to the end of the function.
func (s *store) hitTransferUnderLock(ctx context.Context, l *netsim.Link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = l.Transfer(ctx, 64) // want "call to Transfer while holding fixture.store.mu"
}

// blockingHelper blocks, but holds nothing itself: clean in isolation.
func blockingHelper(ctx context.Context, l *netsim.Link) {
	_, _ = l.Transfer(ctx, 64)
}

// hitCallUnderLock holds mu across a call whose body blocks; the facts
// layer reports it at this call site.
func (s *store) hitCallUnderLock(ctx context.Context, l *netsim.Link) {
	s.mu.Lock()
	blockingHelper(ctx, l) // want "while holding fixture.store.mu blocks"
	s.mu.Unlock()
}

var (
	muA sync.Mutex
	muB sync.Mutex
)

// hitCycleAB and hitCycleBA acquire the same two locks in opposite
// orders; the global pass anchors the cycle at the earliest edge.
func hitCycleAB() {
	muA.Lock()
	muB.Lock() // want "lock-order cycle between fixture.muA, fixture.muB"
	muB.Unlock()
	muA.Unlock()
}

func hitCycleBA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

type rec struct{ mu sync.Mutex }

// hitRecursive acquires a second lock of the same class while one is
// already held: a self-loop in the class graph.
func (r *rec) hitRecursive(other *rec) {
	r.mu.Lock()
	other.mu.Lock() // want "is acquired while already held"
	other.mu.Unlock()
	r.mu.Unlock()
}

// missUnlockFirst releases the lock before the blocking operation.
func (s *store) missUnlockFirst() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- 1
}

// missDeferNoBlock holds the lock to function end but never blocks.
func (s *store) missDeferNoBlock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

var (
	muC sync.Mutex
	muD sync.Mutex
)

// missOrderedPair acquires C then D on every path: a consistent order is
// not a cycle.
func missOrderedPair() {
	muC.Lock()
	muD.Lock()
	muD.Unlock()
	muC.Unlock()
}

func missOrderedPairAgain() {
	muC.Lock()
	muD.Lock()
	muD.Unlock()
	muC.Unlock()
}

// ignoredSendUnderLock demonstrates a reasoned waiver.
func (s *store) ignoredSendUnderLock() {
	s.mu.Lock()
	//lint:ignore lockorder fixture: the channel is buffered and owned by this store
	s.ch <- 1
	s.mu.Unlock()
}
