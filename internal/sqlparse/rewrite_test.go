package sqlparse

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datum"
)

type keySetStub struct{}

func (keySetStub) ContainsHash(uint64) bool { return true }
func (keySetStub) WireSize() int            { return 8 }
func (keySetStub) Describe() string         { return "stub" }

// mapChildrenCorpus holds one expression of every variant with children,
// each non-child field set away from its zero value, and old among the
// children.
func mapChildrenCorpus(old Expr) []Expr {
	lit := &Literal{Value: datum.NewInt(1)}
	col := &ColumnRef{Table: "t", Column: "c"}
	sub := &Select{Items: []SelectItem{{Expr: lit}}}
	return []Expr{
		&BinaryExpr{Op: OpLt, Left: col, Right: old},
		&UnaryExpr{Op: "-", Child: old},
		&IsNullExpr{Child: old, Not: true},
		&InExpr{Child: col, List: []Expr{lit, old, col}, Not: true},
		&InSubquery{Child: old, Query: sub, Not: true},
		&BetweenExpr{Child: col, Lo: lit, Hi: old, Not: true},
		&FuncExpr{Name: "COUNT", Distinct: true, Star: true, Args: []Expr{old, lit}},
		&CaseExpr{Whens: []CaseWhen{{Cond: col, Result: lit}, {Cond: old, Result: col}}, Else: lit},
		&CaseExpr{Whens: []CaseWhen{{Cond: col, Result: lit}}, Else: old},
		&CastExpr{Child: old, Type: datum.KindFloat},
		&KeyFilterExpr{Child: old, Set: keySetStub{}},
	}
}

// children lists e's children in MapChildren's order.
func children(e Expr) []Expr {
	var out []Expr
	MapChildren(nil, e, func(c Expr) (Expr, error) {
		out = append(out, c)
		return c, nil
	})
	return out
}

// TestMapChildrenPreservesFields pins the expression tree's traversal
// protocol for every variant: an identity map returns the node itself; a
// changed child copies exactly that node, keeping every other field and
// sharing every other child; the input is never written.
func TestMapChildrenPreservesFields(t *testing.T) {
	old, repl := &ColumnRef{Column: "old"}, &ColumnRef{Column: "new"}
	swap := func(c Expr) (Expr, error) {
		if c == old {
			return repl, nil
		}
		return c, nil
	}
	for _, a := range []*Arena{nil, NewArena()} {
		for _, e := range mapChildrenCorpus(old) {
			before, kids := e.SQL(), children(e)
			if out, err := MapChildren(a, e, func(c Expr) (Expr, error) { return c, nil }); err != nil || out != e {
				t.Errorf("%T: identity MapChildren = %p, %v; want the node itself", e, out, err)
			}
			out, err := MapChildren(a, e, swap)
			if err != nil || out == e || reflect.TypeOf(out) != reflect.TypeOf(e) {
				t.Fatalf("%T: a changed child gave %T %p, %v; want a copy", e, out, out, err)
			}
			if e.SQL() != before || !reflect.DeepEqual(children(e), kids) {
				t.Errorf("%T: MapChildren wrote into its input", e)
			}
			if got, want := out.SQL(), strings.Replace(before, "old", "new", 1); got != want {
				t.Errorf("%T: copy renders %q, want %q", e, got, want)
			}
			if len(children(out)) != len(kids) {
				t.Fatalf("%T: the copy has %d children, want %d", e, len(children(out)), len(kids))
			}
			for i, k := range children(out) {
				if want := kids[i]; k != want && !(want == Expr(old) && k == Expr(repl)) {
					t.Errorf("%T: child %d is %v, want %v", e, i, k, want)
				}
			}
			// Non-child fields (Op, Not, Name, Distinct, Star, Type,
			// Query, Set) carry over as they were.
			in, cp := reflect.ValueOf(e).Elem(), reflect.ValueOf(out).Elem()
			for i := 0; i < in.NumField(); i++ {
				switch in.Field(i).Interface().(type) {
				case Expr, []Expr, []CaseWhen:
					continue
				}
				if !reflect.DeepEqual(in.Field(i).Interface(), cp.Field(i).Interface()) {
					t.Errorf("%T: field %s changed from %v to %v", e, in.Type().Field(i).Name, in.Field(i), cp.Field(i))
				}
			}
		}
	}

	// Leaves have no children, and a nil child is a leaf that fn never
	// sees.
	sub := &Select{}
	for _, e := range []Expr{&Literal{}, &Param{Index: 1}, &ColumnRef{Column: "c"}, &ExistsExpr{Query: sub}, nil,
		&CaseExpr{Whens: []CaseWhen{}}} {
		if kids := children(e); len(kids) != 0 {
			t.Errorf("%T has children %v, want none", e, kids)
		}
	}
	if kids := children(&CaseExpr{Whens: []CaseWhen{{Cond: old, Result: repl}}}); len(kids) != 2 {
		t.Errorf("CASE without ELSE has %d children, want 2", len(kids))
	}

	// The first error stops the traversal.
	stop := errors.New("stop")
	calls := 0
	_, err := MapChildren(nil, &BetweenExpr{Child: old, Lo: old, Hi: old}, func(Expr) (Expr, error) {
		calls++
		return nil, stop
	})
	if err != stop || calls != 1 {
		t.Errorf("MapChildren after an error: err %v after %d calls, want %v after 1", err, calls, stop)
	}
}
