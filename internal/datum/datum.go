// Package datum implements the typed value system shared by every layer of
// the engine: storage, expression evaluation, the network simulator and the
// federated wrappers all traffic in Datum values.
//
// A Datum is a small immutable value of one of the SQL types supported by
// the engine. NULL is represented as a Datum with Kind KindNull; every
// comparison involving NULL follows SQL three-valued logic at the expression
// layer, while the total ordering used by sorts and ordered indexes places
// NULL first.
package datum

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types a Datum can hold.
type Kind uint8

// The supported SQL types.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Datum is a single SQL value. The zero value is NULL.
//
// A Datum is 32 bytes: a kind tag, one payload word and a string header.
// The word i carries every payload but STRING's — the integer itself, a
// float's IEEE bits, 0 or 1 for BOOL, Unix microseconds for TIME — so a
// row is half the width a field per kind would make it. Datum is not
// comparable with ==, which on the payload word would order floats by
// their bits (-0 != +0, NaN == NaN); Compare and Equal are the equalities.
type Datum struct {
	_    [0]func()
	kind Kind
	i    int64
	s    string
}

// Null is the NULL value.
var Null = Datum{kind: KindNull}

// NewBool returns a BOOL datum.
func NewBool(v bool) Datum {
	d := Datum{kind: KindBool}
	if v {
		d.i = 1
	}
	return d
}

// NewInt returns an INT datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a STRING datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewTime returns a TIME datum with microsecond truncation so round-trips
// through the wire format are exact.
func NewTime(v time.Time) Datum {
	return Datum{kind: KindTime, i: v.UTC().Truncate(time.Microsecond).UnixMicro()}
}

// b, f and t decode the payload word; the caller has checked the kind.
func (d Datum) b() bool      { return d.i != 0 }
func (d Datum) f() float64   { return math.Float64frombits(uint64(d.i)) }
func (d Datum) t() time.Time { return time.UnixMicro(d.i).UTC() }

// Kind reports the datum's runtime type.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Bool returns the boolean payload; it panics if the kind is not BOOL.
func (d Datum) Bool() bool {
	d.mustBe(KindBool)
	return d.b()
}

// Int returns the integer payload; it panics if the kind is not INT.
func (d Datum) Int() int64 {
	d.mustBe(KindInt)
	return d.i
}

// Float returns the float payload; it panics if the kind is not FLOAT.
func (d Datum) Float() float64 {
	d.mustBe(KindFloat)
	return d.f()
}

// Str returns the string payload; it panics if the kind is not STRING.
func (d Datum) Str() string {
	d.mustBe(KindString)
	return d.s
}

// Time returns the time payload; it panics if the kind is not TIME.
func (d Datum) Time() time.Time {
	d.mustBe(KindTime)
	return d.t()
}

func (d Datum) mustBe(k Kind) {
	if d.kind != k {
		panic(fmt.Sprintf("datum: %s accessed as %s", d.kind, k))
	}
}

// AsFloat converts numeric datums to float64. ok is false for non-numeric
// or NULL datums.
func (d Datum) AsFloat() (v float64, ok bool) {
	switch d.kind {
	case KindInt:
		return float64(d.i), true
	case KindFloat:
		return d.f(), true
	default:
		return 0, false
	}
}

// AsInt converts numeric datums to int64 (floats truncate toward zero).
func (d Datum) AsInt() (v int64, ok bool) {
	switch d.kind {
	case KindInt:
		return d.i, true
	case KindFloat:
		return int64(d.f()), true
	default:
		return 0, false
	}
}

// String renders the datum for display and for the SQL deparser. Strings are
// single-quoted with embedded quotes doubled, matching SQL literal syntax.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.b() {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(d.s, "'", "''") + "'"
	case KindTime:
		return "'" + d.t().Format(time.RFC3339Nano) + "'"
	default:
		return fmt.Sprintf("Datum(%d)", uint8(d.kind))
	}
}

// AppendSQL appends the SQL-literal rendering of d to b and returns the
// extended slice. The deparser uses it to render literals without a
// per-value allocation. Unlike String (display), whole-number floats keep
// a ".0" marker so the rendering lexes back as a float.
func (d Datum) AppendSQL(b []byte) []byte {
	switch d.kind {
	case KindNull:
		return append(b, "NULL"...)
	case KindBool:
		if d.b() {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	case KindInt:
		return strconv.AppendInt(b, d.i, 10)
	case KindFloat:
		return appendFloatSQL(b, d.f())
	case KindString:
		b = append(b, '\'')
		for i := 0; i < len(d.s); i++ {
			b = append(b, d.s[i])
			if d.s[i] == '\'' {
				b = append(b, '\'')
			}
		}
		return append(b, '\'')
	case KindTime:
		b = append(b, '\'')
		b = d.t().AppendFormat(b, time.RFC3339Nano)
		return append(b, '\'')
	default:
		return fmt.Appendf(b, "Datum(%d)", uint8(d.kind))
	}
}

// appendFloatSQL renders a float so it lexes back as a float: shortest
// 'g' form, with ".0" appended when that form carries neither a decimal
// point nor an exponent (e.g. 2 for 2.0), which would otherwise re-parse
// as an integer literal and break deparse round-trips.
func appendFloatSQL(b []byte, f float64) []byte {
	mark := len(b)
	b = strconv.AppendFloat(b, f, 'g', -1, 64)
	for _, c := range b[mark:] {
		if c == '.' || c == 'e' || c == 'E' || c == 'N' || c == 'I' || c == 'n' {
			return b
		}
	}
	return append(b, ".0"...)
}

// Display renders the datum for tabular output (strings unquoted).
func (d Datum) Display() string {
	if d.kind == KindString {
		return d.s
	}
	return d.String()
}

// numericKinds reports whether both kinds are numeric (INT or FLOAT).
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// Comparable reports whether Compare is defined for the two kinds (NULLs
// compare with anything; numerics compare across INT/FLOAT).
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull || a == b {
		return true
	}
	return numericKinds(a, b)
}

// Compare defines a total order over datums: NULL < everything, then values
// of the same (or mutually numeric) kind by natural order. Comparing
// incompatible kinds orders by kind tag so sorts remain total; the analyzer
// rejects such comparisons before execution.
func Compare(a, b Datum) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind != b.kind {
		if numericKinds(a.kind, b.kind) {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			return cmpFloat(af, bf)
		}
		return cmpInt(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindBool, KindInt, KindTime:
		// BOOL's 0/1 orders false first; TIME's microseconds are exact.
		return cmpInt(a.i, b.i)
	case KindFloat:
		return cmpFloat(a.f(), b.f())
	case KindString:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaN handling: NaN sorts above everything, NaN == NaN for sorting.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// Equal reports SQL equality treating NULL as not equal to anything,
// including NULL. Use Compare for sorting semantics.
func Equal(a, b Datum) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// FNV-1a 64-bit parameters. Hash inlines the algorithm instead of going
// through hash/fnv: no hash.Hash64 interface calls, no []byte(string)
// copy, no staging buffer.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash consistent with Compare equality: datums that
// compare equal (including cross INT/FLOAT) hash identically. It is FNV-1a
// over a kind tag followed by the payload bytes (integers little-endian).
// The values are part of the wire contract — bloom filter contents and
// exchange shard assignment are derived from them — so they must not
// change; TestHashGolden pins them.
func (d Datum) Hash() uint64 {
	switch d.kind {
	case KindBool:
		return fnvByte(fnvByte(fnvOffset64, 1), byte(d.i))
	case KindInt, KindFloat:
		// Hash all numerics through their float64 image so 1 and 1.0
		// land in the same hash bucket, matching Compare.
		f, _ := d.AsFloat()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			// Integral value: hash the integer image.
			return fnvUint64(fnvByte(fnvOffset64, 2), uint64(int64(f)))
		}
		return fnvUint64(fnvByte(fnvOffset64, 3), math.Float64bits(f))
	case KindString:
		h := fnvByte(fnvOffset64, 4)
		for i := 0; i < len(d.s); i++ {
			h = fnvByte(h, d.s[i])
		}
		return h
	case KindTime:
		// Unix nanoseconds, as time.Time.UnixNano computes them.
		return fnvUint64(fnvByte(fnvOffset64, 5), uint64(d.i*1000))
	default: // KindNull
		return fnvByte(fnvOffset64, 0)
	}
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 folds v's eight bytes into h, least significant first.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

// WireSize estimates the serialized size of the datum in bytes. The network
// simulator uses this to account for data shipped between sites.
func (d Datum) WireSize() int {
	switch d.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 9
	case KindString:
		return 5 + len(d.s)
	case KindTime:
		return 9
	default:
		return 1
	}
}

// Coerce converts d to the target kind where a lossless or conventional SQL
// conversion exists. NULL coerces to any kind (staying NULL).
func Coerce(d Datum, target Kind) (Datum, error) {
	if d.kind == target || d.kind == KindNull {
		return d, nil
	}
	switch target {
	case KindFloat:
		if d.kind == KindInt {
			return NewFloat(float64(d.i)), nil
		}
	case KindInt:
		if f := d.f(); d.kind == KindFloat && f == math.Trunc(f) {
			return NewInt(int64(f)), nil
		}
	case KindString:
		return NewString(d.Display()), nil
	}
	return Null, fmt.Errorf("datum: cannot coerce %s to %s", d.kind, target)
}

// Row is a tuple of datums. Rows are passed by reference through operator
// pipelines; operators that buffer rows must copy them with CloneRow.
type Row []Datum

// CloneRow returns a copy of r that does not alias its backing array.
func CloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowWireSize is the serialized size of the row in bytes.
func RowWireSize(r Row) int {
	n := 4
	for _, d := range r {
		n += d.WireSize()
	}
	return n
}

// HashRow hashes the datums at the given column offsets.
func HashRow(r Row, cols []int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range cols {
		h ^= r[c].Hash()
		h *= 1099511628211
	}
	return h
}

// RowsEqual reports whether two rows have identical datums under Compare
// (NULLs equal NULLs here; this is grouping equality, not SQL equality).
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}
