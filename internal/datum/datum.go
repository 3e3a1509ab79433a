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
	"unsafe"
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
// A Datum is two words, 16 bytes on 64-bit targets: a pointer p that says
// the kind, and one payload word i. NULL is p == nil. Every other kind but
// STRING points p at its own byte of tags, and i carries the payload — the
// integer itself, a float's IEEE bits, 0 or 1 for BOOL, Unix microseconds
// for TIME. A STRING points p at its first byte (unsafe.StringData, no
// copy) and keeps its length in i; the empty string points at tags' STRING
// byte. No string's bytes lie inside tags, so one range test on p tells
// the kinds apart. Datum is not comparable with ==, which would compare
// strings by address and floats by their bits (-0 != +0, NaN == NaN);
// Compare and Equal are the equalities.
type Datum struct {
	_ [0]func()
	p unsafe.Pointer
	i int64
}

// tags gives each kind but NULL an address of its own for p to point at.
// Only the addresses matter; the bytes are never read or written.
var tags [KindTime + 1]byte

// tag is the p of every datum of kind k, and of the empty STRING.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k]) }

// Null is the NULL value.
var Null = Datum{}

// NewBool returns a BOOL datum.
func NewBool(v bool) Datum {
	d := Datum{p: tag(KindBool)}
	if v {
		d.i = 1
	}
	return d
}

// NewInt returns an INT datum.
func NewInt(v int64) Datum { return Datum{p: tag(KindInt), i: v} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) Datum { return Datum{p: tag(KindFloat), i: int64(math.Float64bits(v))} }

// NewString returns a STRING datum. It shares v's bytes.
func NewString(v string) Datum {
	if len(v) == 0 {
		return Datum{p: tag(KindString)}
	}
	return Datum{p: unsafe.Pointer(unsafe.StringData(v)), i: int64(len(v))}
}

// NewTime returns a TIME datum with microsecond truncation so round-trips
// through the wire format are exact.
func NewTime(v time.Time) Datum {
	return Datum{p: tag(KindTime), i: v.UTC().Truncate(time.Microsecond).UnixMicro()}
}

// b, f, t and str decode the payload; the caller has checked the kind.
func (d Datum) b() bool      { return d.i != 0 }
func (d Datum) f() float64   { return math.Float64frombits(uint64(d.i)) }
func (d Datum) t() time.Time { return time.UnixMicro(d.i).UTC() }
func (d Datum) str() string  { return unsafe.String((*byte)(d.p), int(d.i)) }

// Kind reports the datum's runtime type: p's offset into tags, or STRING
// for a p outside it.
func (d Datum) Kind() Kind {
	switch off := uintptr(d.p) - uintptr(unsafe.Pointer(&tags)); {
	case off < uintptr(len(tags)):
		return Kind(off)
	case d.p == nil:
		return KindNull
	default:
		return KindString
	}
}

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.p == nil }

// Bool returns the boolean payload; it panics if the kind is not BOOL.
func (d Datum) Bool() bool {
	d.mustBe(KindBool)
	return d.i != 0
}

// Int returns the integer payload; it panics if the kind is not INT.
func (d Datum) Int() int64 {
	d.mustBe(KindInt)
	return d.i
}

// Float returns the float payload; it panics if the kind is not FLOAT.
func (d Datum) Float() float64 {
	d.mustBe(KindFloat)
	return math.Float64frombits(uint64(d.i))
}

// Str returns the string payload; it panics if the kind is not STRING.
func (d Datum) Str() string {
	// Not STRING: NULL, or a tag other than STRING's. A nil test and one
	// range test on the tag, where Kind would switch, keep Str inlinable.
	if off := uintptr(d.p) - uintptr(unsafe.Pointer(&tags)); d.p == nil || off < uintptr(len(tags)) && off != uintptr(KindString) {
		panic(kindError{d, KindString})
	}
	return d.str()
}

// Time returns the time payload; it panics if the kind is not TIME.
func (d Datum) Time() time.Time {
	d.mustBe(KindTime)
	return d.t()
}

// mustBe panics unless d is of kind k, which is not STRING (a STRING's p is
// a tag only when it is empty): one pointer comparison.
func (d Datum) mustBe(k Kind) {
	if d.p != unsafe.Pointer(&tags[k]) { // not tag(k): keeps Bool, Int and Float inlinable
		panic(kindError{d, k})
	}
}

// kindError is a datum accessed as a kind it is not. The accessors panic
// with it unformatted: a panic costs the inliner less than a call, which
// keeps every accessor inlinable, and the message is only rendered if
// something prints it.
type kindError struct {
	d    Datum
	want Kind
}

func (e kindError) Error() string {
	return fmt.Sprintf("datum: %s accessed as %s", e.d.Kind(), e.want)
}

// AsFloat converts numeric datums to float64. ok is false for non-numeric
// or NULL datums.
func (d Datum) AsFloat() (v float64, ok bool) {
	switch d.p {
	case tag(KindInt):
		return float64(d.i), true
	case tag(KindFloat):
		return d.f(), true
	default:
		return 0, false
	}
}

// AsInt converts numeric datums to int64 (floats truncate toward zero).
func (d Datum) AsInt() (v int64, ok bool) {
	switch d.p {
	case tag(KindInt):
		return d.i, true
	case tag(KindFloat):
		return int64(d.f()), true
	default:
		return 0, false
	}
}

// String renders the datum for display and for the SQL deparser. Strings are
// single-quoted with embedded quotes doubled, matching SQL literal syntax.
func (d Datum) String() string {
	switch d.Kind() {
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
		return "'" + strings.ReplaceAll(d.str(), "'", "''") + "'"
	default: // KindTime
		return "'" + d.t().Format(time.RFC3339Nano) + "'"
	}
}

// AppendSQL appends the SQL-literal rendering of d to b and returns the
// extended slice. The deparser uses it to render literals without a
// per-value allocation. Unlike String (display), whole-number floats keep
// a ".0" marker so the rendering lexes back as a float.
func (d Datum) AppendSQL(b []byte) []byte {
	switch d.Kind() {
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
		for s, i := d.str(), 0; i < len(s); i++ {
			b = append(b, s[i])
			if s[i] == '\'' {
				b = append(b, '\'')
			}
		}
		return append(b, '\'')
	default: // KindTime
		b = append(b, '\'')
		b = d.t().AppendFormat(b, time.RFC3339Nano)
		return append(b, '\'')
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
	if d.Kind() == KindString {
		return d.str()
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
// of the same (or mutually numeric) kind by natural order. INT and FLOAT
// compare by exact value, so an INT equals a FLOAT only when the float is
// integral and converts back to the same int64; -0 equals +0, and NaN
// equals NaN and sorts above every number. Comparing incompatible kinds
// orders by kind tag so sorts remain total; the analyzer rejects such
// comparisons before execution.
func Compare(a, b Datum) int {
	c, _ := Order(a, b)
	return c
}

// Order is Compare and Comparable at once: a's order against b, and
// whether their kinds compare (see Comparable), each kind derived once.
func Order(a, b Datum) (int, bool) {
	if a.p == b.p {
		// One kind on both sides: one tag, or two strings starting at the
		// same byte, where the shorter is a prefix of the longer. BOOL's 0/1
		// orders false first; TIME's microseconds are exact; NULL's i is 0.
		if a.p == tag(KindFloat) {
			return cmpFloat(a.f(), b.f()), true
		}
		return cmpInt(a.i, b.i), true
	}
	ka, kb := a.Kind(), b.Kind()
	switch {
	case ka == kb: // only strings have more than one p
		return strings.Compare(a.str(), b.str()), true
	case ka == KindNull:
		return -1, true
	case kb == KindNull:
		return 1, true
	case ka == KindInt && kb == KindFloat:
		return cmpIntFloat(a.i, b.f()), true
	case ka == KindFloat && kb == KindInt:
		return -cmpIntFloat(b.i, a.f()), true
	default:
		return cmpInt(int64(ka), int64(kb)), false
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

// cmpIntFloat compares i with f exactly, not through i's nearest float.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f: // NaN
		return -1
	case f >= 1<<63: // past MaxInt64, +Inf included
		return -1
	case f < -(1 << 63):
		return 1
	}
	// f is in int64's range, so t is f truncated toward zero, exactly, and
	// so is f - float64(t): the fraction that decides a tie.
	t := int64(f)
	if c := cmpInt(i, t); c != 0 {
		return c
	}
	return cmpFloat(0, f-float64(t))
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
	if a.p == nil || b.p == nil {
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
// An INT hashes by its own value, and so does a FLOAT that equals one (an
// integral float in int64's range); other floats hash by their bits, every
// NaN by math.NaN()'s.
// The values are part of the wire contract — bloom filter contents and
// exchange shard assignment are derived from them — so they must not
// change; TestHashGolden pins them.
func (d Datum) Hash() uint64 {
	switch d.Kind() {
	case KindBool:
		return fnvByte(fnvByte(fnvOffset64, 1), byte(d.i))
	case KindInt:
		return fnvUint64(fnvByte(fnvOffset64, 2), uint64(d.i))
	case KindFloat:
		f := d.f()
		switch {
		case f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63:
			return fnvUint64(fnvByte(fnvOffset64, 2), uint64(int64(f)))
		case f != f:
			f = math.NaN()
		}
		return fnvUint64(fnvByte(fnvOffset64, 3), math.Float64bits(f))
	case KindString:
		h := fnvByte(fnvOffset64, 4)
		for s, i := d.str(), 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
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
	if off := uintptr(d.p) - uintptr(unsafe.Pointer(&tags)); off < uintptr(len(tags)) {
		return wireSizes[off]
	}
	if d.p == nil {
		return wireSizes[KindNull]
	}
	return wireSizes[KindString] + int(d.i)
}

// wireSizes is each kind's serialized size, a STRING's plus its length.
// WireSize reads it by p's offset into tags, as Kind does, where a switch
// on Kind would test the kind twice.
var wireSizes = [len(tags)]int{KindNull: 1, KindBool: 2, KindInt: 9, KindFloat: 9, KindString: 5, KindTime: 9}

// Coerce converts d to the target kind where a lossless or conventional SQL
// conversion exists. NULL coerces to any kind (staying NULL).
func Coerce(d Datum, target Kind) (Datum, error) {
	k := d.Kind()
	if k == target || k == KindNull {
		return d, nil
	}
	switch target {
	case KindFloat:
		if k == KindInt {
			return NewFloat(float64(d.i)), nil
		}
	case KindInt:
		if f := d.f(); k == KindFloat && f == math.Trunc(f) {
			return NewInt(int64(f)), nil
		}
	case KindString:
		return NewString(d.Display()), nil
	}
	return Null, fmt.Errorf("datum: cannot coerce %s to %s", k, target)
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
