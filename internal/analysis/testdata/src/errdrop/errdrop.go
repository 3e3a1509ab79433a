// Fixture for the errdrop analyzer: hit, miss, and ignore cases.
package fixture

import (
	"context"

	"repro/internal/netsim"
)

type errCloser struct{}

func (errCloser) Close() error { return nil }

type plainCloser struct{}

func (plainCloser) Close() {}

func hitBareCall(ctx context.Context, l *netsim.Link) {
	l.Transfer(ctx, 64) // want "result of Transfer discarded"
}

func hitBlankedError(ctx context.Context, l *netsim.Link) {
	_, _ = l.Transfer(ctx, 64) // want "error from Transfer assigned to _"
}

type fragmentSource struct{}

func (fragmentSource) ExecuteCtx(context.Context) ([]int, error) { return nil, nil }

func hitBlankedExecuteError(ctx context.Context, s fragmentSource) {
	_, _ = s.ExecuteCtx(ctx) // want "error from ExecuteCtx assigned to _"
}

func hitBareClose(c errCloser) {
	c.Close() // want "result of Close discarded"
}

func hitDeferredClose(c errCloser) {
	defer c.Close() // want "deferred Close discards its error"
}

func hitGoClose(c errCloser) {
	go c.Close() // want "go Close discards its error"
}

func missChecked(ctx context.Context, l *netsim.Link) error {
	if _, err := l.Transfer(ctx, 64); err != nil {
		return err
	}
	cost, err := l.Transfer(ctx, 1)
	_ = cost // discarding the non-error result is fine
	return err
}

func missErrorlessClose(c plainCloser) {
	c.Close() // Close without an error result is not watched
}

func ignored(ctx context.Context, l *netsim.Link) {
	//lint:ignore errdrop fixture: best-effort accounting, failure already counted by the link
	l.Transfer(ctx, 64)
}
