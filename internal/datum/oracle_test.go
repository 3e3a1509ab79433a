package datum

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// oracle is the 32-byte Datum this package used before a STRING's bytes
// moved behind the kind pointer: a kind tag, the payload word and a string
// header. Its methods are that version's, kept as the reference the
// two-word Datum must agree with, with one rule changed since: INT and
// FLOAT compare by exact value (here through math/big), and hash alike
// exactly when they compare equal.
type oracle struct {
	kind Kind
	i    int64
	s    string
}

func oNull() oracle           { return oracle{} }
func oInt(v int64) oracle     { return oracle{kind: KindInt, i: v} }
func oFloat(v float64) oracle { return oracle{kind: KindFloat, i: int64(math.Float64bits(v))} }
func oString(v string) oracle { return oracle{kind: KindString, s: v} }
func oTime(v time.Time) oracle {
	return oracle{kind: KindTime, i: v.UTC().Truncate(time.Microsecond).UnixMicro()}
}
func (d oracle) f() float64   { return math.Float64frombits(uint64(d.i)) }
func (d oracle) t() time.Time { return time.UnixMicro(d.i).UTC() }
func (d oracle) accessed(k Kind) string {
	if d.kind != k {
		return fmt.Sprintf("datum: %s accessed as %s", d.kind, k)
	}
	return ""
}

func oBool(v bool) oracle {
	d := oracle{kind: KindBool}
	if v {
		d.i = 1
	}
	return d
}

func (d oracle) asFloat() (float64, bool) {
	switch d.kind {
	case KindInt:
		return float64(d.i), true
	case KindFloat:
		return d.f(), true
	}
	return 0, false
}

func (d oracle) asInt() (int64, bool) {
	switch d.kind {
	case KindInt:
		return d.i, true
	case KindFloat:
		return int64(d.f()), true
	}
	return 0, false
}

func (d oracle) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(d.s, "'", "''") + "'"
	default:
		return "'" + d.t().Format(time.RFC3339Nano) + "'"
	}
}

// appendSQL differs from String only in keeping a float lexable as one.
func (d oracle) appendSQL(b []byte) []byte {
	if d.kind == KindFloat {
		return appendFloatSQL(b, d.f())
	}
	return append(b, d.String()...)
}

func (d oracle) display() string {
	if d.kind == KindString {
		return d.s
	}
	return d.String()
}

func oCompare(a, b oracle) int {
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
			return exactCompare(a, b)
		}
		return cmpInt(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindFloat:
		return cmpFloat(a.f(), b.f())
	case KindString:
		return strings.Compare(a.s, b.s)
	}
	return cmpInt(a.i, b.i)
}

// exactCompare compares two numerics by value in arbitrary precision;
// NaN equals NaN and sorts above every number.
func exactCompare(a, b oracle) int {
	af, bf := a.bigFloat(), b.bigFloat()
	switch {
	case af == nil && bf == nil:
		return 0
	case af == nil:
		return 1
	case bf == nil:
		return -1
	}
	return af.Cmp(bf)
}

// bigFloat is a numeric's exact value, nil for NaN.
func (d oracle) bigFloat() *big.Float {
	if d.kind == KindInt {
		return new(big.Float).SetInt64(d.i)
	}
	if f := d.f(); f == f {
		return big.NewFloat(f)
	}
	return nil
}

func oEqual(a, b oracle) bool {
	return a.kind != KindNull && b.kind != KindNull && oCompare(a, b) == 0
}

func (d oracle) hash() uint64 {
	switch d.kind {
	case KindBool:
		return ref(1, []byte{byte(d.i)})
	case KindInt:
		return ref(2, le(uint64(d.i)))
	case KindFloat:
		f := d.f()
		if f != f {
			return ref(3, le(math.Float64bits(math.NaN())))
		}
		if i, acc := d.bigFloat().Int64(); acc == big.Exact {
			return ref(2, le(uint64(i)))
		}
		return ref(3, le(math.Float64bits(f)))
	case KindString:
		return ref(4, []byte(d.s))
	case KindTime:
		return ref(5, le(uint64(d.i*1000)))
	}
	return ref(0, nil)
}

func (d oracle) wireSize() int {
	switch d.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindString:
		return 5 + len(d.s)
	}
	return 9
}

func oCoerce(d oracle, target Kind) (oracle, bool) {
	if d.kind == target || d.kind == KindNull {
		return d, true
	}
	switch target {
	case KindFloat:
		if d.kind == KindInt {
			return oFloat(float64(d.i)), true
		}
	case KindInt:
		if f := d.f(); d.kind == KindFloat && f == math.Trunc(f) {
			return oInt(int64(f)), true
		}
	case KindString:
		return oString(d.display()), true
	}
	return oNull(), false
}

// matches reports whether d holds o's value in o's encoding: one kind, the
// payload word bit for bit, and the same string bytes.
func matches(d Datum, o oracle) bool {
	if d.Kind() != o.kind {
		return false
	}
	if o.kind == KindString {
		return d.str() == o.s && d.i == int64(len(o.s))
	}
	return d.i == o.i
}

// pair is one value built both ways.
type pair struct {
	d Datum
	o oracle
}

// differentialValues is the seeded value pool: the edges of every
// encoding, NULL and the empty string, strings with NUL bytes, substrings
// of one shared buffer, equal strings at different addresses, integers
// around 2^53 and the int64 extremes, the float edge cases, and random
// values of every kind.
func differentialValues(rng *rand.Rand) []pair {
	var ps []pair
	add := func(d Datum, o oracle) { ps = append(ps, pair{d, o}) }
	str := func(s string) { add(NewString(s), oString(s)) }
	add(Null, oNull())
	add(Datum{}, oNull())
	add(NewBool(false), oBool(false))
	add(NewBool(true), oBool(true))

	const p53 = 1 << 53
	ints := []int64{0, 1, -1, 7, -7, 3, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 1 << 60}
	for k := int64(-2); k <= 2; k++ {
		ints = append(ints, p53+k, -p53+k)
	}
	for range 40 {
		ints = append(ints, rng.Int63()-rng.Int63(), rng.Int63n(2000)-1000)
	}
	for _, v := range ints {
		add(NewInt(v), oInt(v))
	}

	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		-2.5, 1.5, -0.25, 3, 7, -7, 2.0000000000000004, p53, p53 + 2, -p53, -p53 - 2, p53 - 1, p53 - 0.5, -p53 + 0.5,
		1 << 63, -(1 << 63), 1<<63 - 1024, -(1<<63 - 1024), 1e300, 0.1}
	for range 40 {
		floats = append(floats, rng.NormFloat64()*1e3, float64(rng.Int63n(2000)-1000), math.Float64frombits(rng.Uint64()))
	}
	for _, v := range floats {
		add(NewFloat(v), oFloat(v))
	}

	for _, s := range []string{"", "a", "b", "west", "it's", "''", "a\x00b", "\x00", "\x00\x00", "a\x00", "goei-goei-goei"} {
		str(s)
	}
	buf := "west-east-north-south"
	for _, r := range [][2]int{{0, 0}, {0, 4}, {0, 9}, {0, 21}, {5, 9}, {5, 5}, {21, 21}, {10, 15}, {4, 5}} {
		str(buf[r[0]:r[1]])
	}
	str(strings.Clone(buf[0:4]))
	str(strings.Clone(buf[5:9]))
	letters := "ab'\x00z"
	for range 40 {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		str(string(b))
	}

	cest := time.FixedZone("CEST", 2*3600)
	times := []time.Time{
		time.Date(1900, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Unix(0, 0),
		time.Date(2005, 6, 14, 11, 30, 0, 123_456_789, cest),
	}
	for range 20 {
		times = append(times, time.Unix(rng.Int63n(4e9)-2e9, rng.Int63n(1e9)))
	}
	for _, v := range times {
		add(NewTime(v), oTime(v))
	}
	return ps
}

// recovered runs f and returns what it panicked with, as a string.
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDatumMatchesOracle is the differential test of the two-word Datum
// against the 32-byte oracle: every constructor and accessor, Compare,
// Equal, Hash, WireSize, String, AppendSQL, Display and Coerce, over every
// value and every pair of values in the seeded pool.
func TestDatumMatchesOracle(t *testing.T) {
	const seed = 43
	ps := differentialValues(rand.New(rand.NewSource(seed)))
	t.Logf("seed %d, %d values", seed, len(ps))
	allKinds := []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindTime}
	for _, p := range ps {
		d, o := p.d, p.o
		name := o.String()
		if !matches(d, o) || d.IsNull() != (o.kind == KindNull) {
			t.Errorf("%s: constructor gives kind %s", name, d.Kind())
			continue
		}
		for _, a := range []struct {
			k   Kind
			get func()
		}{
			{KindBool, func() { d.Bool() }}, {KindInt, func() { d.Int() }}, {KindFloat, func() { d.Float() }},
			{KindString, func() { d.Str() }}, {KindTime, func() { d.Time() }},
		} {
			if got := recovered(a.get); got != o.accessed(a.k) {
				t.Errorf("%s: reading it as %s panics with %q", name, a.k, got)
			}
		}
		switch o.kind {
		case KindBool:
			if d.Bool() != (o.i != 0) {
				t.Errorf("%s: Bool() = %v", name, d.Bool())
			}
		case KindInt:
			if d.Int() != o.i {
				t.Errorf("%s: Int() = %d", name, d.Int())
			}
		case KindFloat:
			if math.Float64bits(d.Float()) != uint64(o.i) {
				t.Errorf("%s: Float() bits %#x", name, math.Float64bits(d.Float()))
			}
		case KindString:
			if d.Str() != o.s || len(o.s) > 0 && unsafe.StringData(d.Str()) != unsafe.StringData(o.s) {
				t.Errorf("%s: Str() = %q, or a copy", name, d.Str())
			}
		case KindTime:
			if got := d.Time(); !got.Equal(o.t()) || got.Location() != time.UTC {
				t.Errorf("%s: Time() = %s", name, got)
			}
		}
		wf, wfok := o.asFloat()
		if f, ok := d.AsFloat(); ok != wfok || math.Float64bits(f) != math.Float64bits(wf) {
			t.Errorf("%s: AsFloat() = %v, %v", name, f, ok)
		}
		wi, wiok := o.asInt()
		if i, ok := d.AsInt(); i != wi || ok != wiok {
			t.Errorf("%s: AsInt() = %d, %v", name, i, ok)
		}
		if d.String() != o.String() || string(d.AppendSQL([]byte("x="))) != string(o.appendSQL([]byte("x="))) || d.Display() != o.display() {
			t.Errorf("%s: renders %q, %q, %q", name, d.String(), d.AppendSQL(nil), d.Display())
		}
		if d.Hash() != o.hash() || d.WireSize() != o.wireSize() {
			t.Errorf("%s: Hash %#x (want %#x), WireSize %d (want %d)", name, d.Hash(), o.hash(), d.WireSize(), o.wireSize())
		}
		for _, k := range allKinds {
			got, err := Coerce(d, k)
			want, ok := oCoerce(o, k)
			if (err == nil) != ok || !matches(got, want) {
				t.Errorf("%s: Coerce to %s = %s, %v; want %s", name, k, got, err, want)
			}
		}
	}
	for _, a := range ps {
		for _, b := range ps {
			if got, want := Compare(a.d, b.d), oCompare(a.o, b.o); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a.o, b.o, got, want)
			}
			if got, want := Equal(a.d, b.d), oEqual(a.o, b.o); got != want {
				t.Errorf("Equal(%s, %s) = %v, want %v", a.o, b.o, got, want)
			}
		}
	}
}

// TestCompareIsATotalPreorder checks the order itself over the seeded pool
// (NULL, BOOL, INT and FLOAT around 2^53 and the int64 edges, ±0, ±Inf,
// NaNs of several bit patterns, STRING, TIME): sorted by Compare, the pool
// falls into runs of equal values, every value compares equal to its own
// run and below every later run, and Compare is antisymmetric. Equal values
// hash alike.
func TestCompareIsATotalPreorder(t *testing.T) {
	ps := differentialValues(rand.New(rand.NewSource(43)))
	ds := make([]Datum, len(ps))
	for i, p := range ps {
		ds[i] = p.d
	}
	sort.SliceStable(ds, func(i, j int) bool { return Compare(ds[i], ds[j]) < 0 })
	run := make([]int, len(ds))
	for i := 1; i < len(ds); i++ {
		run[i] = run[i-1]
		if Compare(ds[i-1], ds[i]) != 0 {
			run[i]++
		}
	}
	for i, a := range ds {
		for j, b := range ds {
			want := cmpInt(int64(run[i]), int64(run[j]))
			if got := Compare(a, b); got != want || Compare(b, a) != -got {
				t.Fatalf("Compare(%s, %s) = %d and Compare(%s, %s) = %d; a total preorder gives %d",
					a, b, got, b, a, Compare(b, a), want)
			}
			if Equal(a, b) && a.Hash() != b.Hash() {
				t.Errorf("Equal(%s, %s), yet they hash to %#x and %#x", a, b, a.Hash(), b.Hash())
			}
		}
	}
}

// TestOrderIsCompareAndComparable: over every pair of the seeded pool,
// Order returns the oracle's order (Compare's, which Order now computes)
// and what Comparable says of the two kinds.
func TestOrderIsCompareAndComparable(t *testing.T) {
	ps := differentialValues(rand.New(rand.NewSource(43)))
	for _, a := range ps {
		for _, b := range ps {
			c, ok := Order(a.d, b.d)
			if want, wantOK := oCompare(a.o, b.o), Comparable(a.d.Kind(), b.d.Kind()); c != want || ok != wantOK {
				t.Errorf("Order(%s, %s) = %d, %v; want %d, %v", a.o, b.o, c, ok, want, wantOK)
			}
		}
	}
}
