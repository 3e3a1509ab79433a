package analysis

// The goroleak analyzer guards the E15 contract: cancellation is
// goroutine-leak-free. Every `go` statement outside tests must have a
// statically reachable exit, traced through the spawned function and
// everything it calls:
//
//   - an exit signal tied to a channel — a select with a receive case
//     (the ctx.Done / done-channel pattern), a direct receive, or a
//     range over a channel (closed channel terminates it); or
//   - WaitGroup discipline (the goroutine performs wg.Done, so whoever
//     Waits observes its lifetime and a hang is a visible test failure,
//     not a silent leak); or
//   - a provably finite body: no unguarded channel send and no
//     condition-less loop without a reachable exit, transitively — a
//     goroutine that cannot hang cannot leak.
//
// The facts layer supplies all three transitively: `go consume(ch)` is
// accepted when consume's body (or its callees') ranges over ch.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement needs a reachable exit: ctx/channel signal, WaitGroup discipline, or a finite body",
	Run:  runGoroLeak,
}

func runGoroLeak(p *Pass) {
	for _, f := range p.Facts.PkgFuncs[p.Path] {
		for _, sp := range f.Spawns {
			if sp.Target == "" {
				p.Reportf(sp.Pos, "goroutine target cannot be statically resolved: spawn a named function or a literal so its exit can be traced")
				continue
			}
			tf := p.Facts.Funcs[sp.Target]
			if tf == nil {
				p.Reportf(sp.Pos, "goroutine runs %s, which is outside the analysis universe: its exit cannot be traced", sp.Target.short())
				continue
			}
			if tf.WGDone || p.Facts.TransExit(sp.Target) {
				continue
			}
			if hz := p.Facts.TransHazard(sp.Target); hz != "" {
				p.Reportf(sp.Pos, "goroutine can leak: %s, with no ctx/channel exit signal and no WaitGroup discipline", hz)
			}
			// No hazard and no signal: the body provably runs to
			// completion, which is exit enough.
		}
	}
}
