// Fixture for the retain analyzer's arena/scratch provenance rule: hit,
// miss, and ignore cases.
package fixture

import (
	"repro/internal/arena"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

type holder struct {
	sel   *sqlparse.Select
	plan  plan.Node
	rows  []datum.Row
	cells []datum.Datum
	pred  *exec.Expr
	expr  sqlparse.Expr
}

var lastPred *exec.Expr

var globalSel *sqlparse.Select

var rowCh = make(chan []datum.Row, 1)

var lastRows []datum.Row

func (h *holder) hitFieldStoreParse(a *sqlparse.Arena, sql string) error {
	sel, err := sqlparse.ParseArena(a, sql)
	if err != nil {
		return err
	}
	h.sel = sel // want "storing an arena-backed value into struct field \"sel\""
	return nil
}

func (h *holder) hitDirectFieldStore(s *exec.Scratch) {
	h.cells = exec.Make[datum.Datum](s, 8) // want "storing an arena-backed value into struct field \"cells\""
}

func (h *holder) hitBoundPlanStore(a *sqlparse.Arena, n plan.Node, params []datum.Datum) error {
	bound, err := plan.BindParamsIn(a, n, params)
	if err != nil {
		return err
	}
	h.plan = bound // want "storing an arena-backed value into struct field \"plan\""
	return nil
}

func hitGlobalStore(a *sqlparse.Arena, sql string) {
	sel, _ := sqlparse.ParseArena(a, sql)
	globalSel = sel // want "storing an arena-backed value into package variable \"globalSel\""
}

func hitChannelSend(it exec.BatchIterator, s *exec.Scratch) error {
	rows, err := exec.DrainBatchesScratch(it, s)
	if err != nil {
		return err
	}
	rowCh <- rows // want "storing an arena-backed value into a channel"
	return nil
}

func (h *holder) hitSlicedScratchStore(s *exec.Scratch) {
	rows := exec.Make[datum.Row](s, 16)
	h.rows = rows[:4] // want "storing an arena-backed value into struct field \"rows\""
}

// hitScratchCopyIntoHeapField: a result copied into a query's scratch
// (how a peer fragment hands rows to its coordinator) kept in heap state.
func (h *holder) hitScratchCopyIntoHeapField(s *exec.Scratch, rows []datum.Row) {
	h.rows = exec.CloneRows(s, rows) // want "storing an arena-backed value into struct field \"rows\""
}

func hitScratchCopyIntoGlobal(s *exec.Scratch, rows []datum.Row) {
	copied := exec.CloneRows(s, rows)
	lastRows = copied[1:] // want "storing an arena-backed value into package variable \"lastRows\""
}

// hitCompiledIntoHeapField: a predicate compiled into the query scratch
// kept in heap state past the query.
func (h *holder) hitCompiledIntoHeapField(s *exec.Scratch, cond sqlparse.Expr, cols []plan.ColMeta) error {
	pred, err := exec.Compile(s, cond, cols)
	if err != nil {
		return err
	}
	h.pred = pred // want "storing an arena-backed value into struct field \"pred\""
	return nil
}

func hitCompiledIntoGlobal(s *exec.Scratch, cond sqlparse.Expr, cols []plan.ColMeta) {
	lastPred, _ = exec.Compile(s, cond, cols) // want "storing an arena-backed value into package variable \"lastPred\""
}

// hitRewriteIntoHeapField: an expression rewritten into the query arena
// (a bound parameter, say) kept in heap state past the query.
func (h *holder) hitRewriteIntoHeapField(a *sqlparse.Arena, e sqlparse.Expr, fn func(sqlparse.Expr) (sqlparse.Expr, error)) error {
	out, err := sqlparse.RewriteIn(a, e, fn)
	if err != nil {
		return err
	}
	h.expr = out // want "storing an arena-backed value into struct field \"expr\""
	return nil
}

func (h *holder) hitMapChildrenIntoHeapField(a *sqlparse.Arena, e sqlparse.Expr, fn func(sqlparse.Expr) (sqlparse.Expr, error)) {
	h.expr, _ = sqlparse.MapChildren(a, e, fn) // want "storing an arena-backed value into struct field \"expr\""
}

func (h *holder) hitLiteralStore(a *sqlparse.Arena, v datum.Datum) {
	lit := sqlparse.New(a, sqlparse.Literal{Value: v})
	var e sqlparse.Expr = lit
	_ = e
	h.sel = nil
	h.plan = nil
	h.cells = nil
	globalSel = nil
	h.rows = exec.CloneRows(nil, rows(a)) // heap copy at the boundary: fine
}

func rows(*sqlparse.Arena) []datum.Row { return nil }

// hitArenaNodeIntoHeapField: a node drawn from the query arena kept in
// heap state past the query.
func (h *holder) hitArenaNodeIntoHeapField(a *sqlparse.Arena, v datum.Datum) {
	h.expr = sqlparse.New(a, sqlparse.Literal{Value: v}) // want "storing an arena-backed value into struct field \"expr\""
}

// hitSetDrawIntoHeapField: values drawn from a slab set kept in heap
// state past the set's Reset.
func (h *holder) hitSetDrawIntoHeapField(s *arena.Set) {
	h.cells = arena.Make[datum.Datum](s, 8) // want "storing an arena-backed value into struct field \"cells\""
}

func missHeapParse(h *holder, sql string) error {
	sel, err := sqlparse.Parse(sql) // retain-safe heap parse
	if err != nil {
		return err
	}
	h.sel = sel
	return nil
}

func missLocalUse(a *sqlparse.Arena, sql string) int {
	sel, err := sqlparse.ParseArena(a, sql)
	if err != nil {
		return 0
	}
	return len(sel.Items) // locals die with the frame; no escape
}

func missHeapCopy(it exec.BatchIterator, s *exec.Scratch, h *holder) error {
	scratchRows, err := exec.DrainBatchesScratch(it, s)
	if err != nil {
		return err
	}
	h.rows = exec.CloneRows(nil, scratchRows) // heap copy: the scratch can recycle
	return nil
}

// missScratchCopyReturned: the copy goes back to a caller running in the
// same scratch, and dies with it.
func missScratchCopyReturned(s *exec.Scratch, rows []datum.Row) []datum.Row {
	return exec.CloneRows(s, rows)
}

// missScratchCopyIntoSameScratch: an object from the same scratch holds
// the copy; both die together.
func missScratchCopyIntoSameScratch(s *exec.Scratch, rows []datum.Row) *holder {
	h := exec.New(s, holder{})
	h.rows = exec.CloneRows(s, rows)
	return h
}

// missNilAllocators: a literal nil scratch allocates on the heap.
func (h *holder) missNilAllocators(it exec.BatchIterator, cond sqlparse.Expr, cols []plan.ColMeta) error {
	h.cells = exec.Make[datum.Datum](nil, 8)
	pred, err := exec.Compile(nil, cond, cols)
	if err != nil {
		return err
	}
	h.pred = pred
	lastPred, _ = exec.Compile(nil, cond, cols)
	rows, err := exec.DrainBatchesScratch(it, nil)
	lastRows = rows
	return err
}

// missNilSetDraws: a draw from a literal nil set, or a literal nil query
// arena, allocates on the heap.
func (h *holder) missNilSetDraws(v datum.Datum) {
	h.cells = arena.Make[datum.Datum](nil, 8)
	h.expr = arena.New(nil, sqlparse.Literal{Value: v})
	h.expr = sqlparse.New(nil, sqlparse.Literal{Value: v})
}

// missNilArenaRewrites: a rewrite handed a literal nil arena allocates on
// the heap.
func (h *holder) missNilArenaRewrites(e sqlparse.Expr, fn func(sqlparse.Expr) (sqlparse.Expr, error)) {
	h.expr, _ = sqlparse.RewriteIn(nil, e, fn)
	h.expr, _ = sqlparse.MapChildren(nil, e, fn)
}

func (h *holder) ignoreOwnedContainer(s *exec.Scratch) {
	//lint:ignore retain holder is itself per-query state released before PutArena
	h.cells = exec.Make[datum.Datum](s, 8)
}
