// Fixture for the ctxpropagate analyzer: stray context roots (rule 1)
// and exported context-dropping wrappers in the fetch path (rule 2).
package fixture

import (
	"context"
	ctxalias "context"
)

// --- rule 1: minted root contexts ---

func hitBackground() context.Context {
	return context.Background() // want "context.Background() outside an approved root"
}

func hitTODO() context.Context {
	return context.TODO() // want "context.TODO() outside an approved root"
}

func hitRenamedImport() context.Context {
	return ctxalias.Background() // want "context.Background() outside an approved root"
}

func missThreadedCtx(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancel(ctx) // deriving from a caller ctx is the point
	defer cancel()
	return ctx
}

func missIgnoredRoot() context.Context {
	//lint:ignore ctxpropagate fixture: a justified compatibility root
	return context.Background()
}

// --- rule 2: exported wrappers that sever cancellation ---

func fetch(ctx context.Context, n int) (int, error) { return n, ctx.Err() }

type Link struct{}

// Transfer is the context-aware primitive rule 2 wants callers to use.
func (l *Link) Transfer(ctx context.Context, n int) (int, error) { return fetch(ctx, n) }

// Send drops the context on the floor: both rules fire on the call.
func (l *Link) Send(n int) (int, error) {
	return l.Transfer(context.Background(), n) // want "exported Send takes no context.Context but calls Transfer" // want "context.Background() outside an approved root"
}

// Ship is a plain exported function with the same hole.
func Ship(ctx context.Context, n int) (int, error) { return fetch(ctx, n) }

func ShipAll(ns []int) (total int, err error) {
	for _, n := range ns {
		var got int
		//lint:ignore ctxpropagate fixture: justified context-free compatibility wrapper
		got, err = Ship(context.Background(), n)
		if err != nil {
			return 0, err
		}
		total += got
	}
	return total, nil
}

// CtxForward already takes a context; calling ctx-taking functions is fine.
func CtxForward(ctx context.Context, l *Link, n int) (int, error) {
	return l.Transfer(ctx, n)
}

type internalIter struct{ ctx context.Context }

// NextBatch is a method on an unexported type: internal plumbing that
// carries its ctx as a field, out of rule 2's scope.
func (it *internalIter) NextBatch() (int, error) { return fetch(it.ctx, 1) }

// Spawn only reaches the ctx-taking call through a function literal, which
// captures the maker's context; the declared API surface is unchanged.
func Spawn(l *Link) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) { return l.Transfer(ctx, 1) }
}
