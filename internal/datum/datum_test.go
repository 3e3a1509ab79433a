package datum

import (
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING", KindTime: "TIME",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if !NewBool(true).Bool() {
		t.Error("Bool round trip failed")
	}
	if NewInt(-42).Int() != -42 {
		t.Error("Int round trip failed")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float round trip failed")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str round trip failed")
	}
	ts := time.Date(2005, 6, 14, 10, 30, 0, 0, time.UTC)
	if !NewTime(ts).Time().Equal(ts) {
		t.Error("Time round trip failed")
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null misbehaves")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing INT as STRING")
		}
	}()
	_ = NewInt(1).Str()
}

func TestCompareTotalOrderBasics(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTime(t *testing.T) {
	t1 := NewTime(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := NewTime(time.Date(2005, 6, 14, 0, 0, 0, 0, time.UTC))
	if Compare(t1, t2) != -1 || Compare(t2, t1) != 1 || Compare(t1, t1) != 0 {
		t.Error("time comparison broken")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false under SQL equality")
	}
	if Equal(Null, NewInt(1)) || Equal(NewInt(1), Null) {
		t.Error("NULL = value must be false")
	}
	if !Equal(NewInt(7), NewInt(7)) {
		t.Error("7 = 7 must hold")
	}
	if !Equal(NewInt(7), NewFloat(7)) {
		t.Error("7 = 7.0 must hold across numeric kinds")
	}
}

func TestHashConsistentWithCompare(t *testing.T) {
	pairs := [][2]Datum{
		{NewInt(7), NewFloat(7)},
		{NewInt(0), NewFloat(0)},
		{NewInt(-3), NewFloat(-3)},
		{NewString("x"), NewString("x")},
		{NewBool(true), NewBool(true)},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Hash() != p[1].Hash() {
			t.Errorf("equal datums %v and %v hash differently", p[0], p[1])
		}
	}
	// Distinct strings should not trivially collide.
	if NewString("abc").Hash() == NewString("abd").Hash() {
		t.Error("distinct strings collide")
	}
}

// TestHashGolden pins Hash to the values the hash/fnv-based implementation
// produced. Bloom filter contents, exchange shard assignment and therefore
// shipped bytes all derive from these bits, so a faster Hash must return
// exactly the same ones.
func TestHashGolden(t *testing.T) {
	cases := []struct {
		name string
		d    Datum
		want uint64
	}{
		{"NULL", Null, 0xaf63bd4c8601b7df},
		{"false", NewBool(false), 0x82f2207b4e88cc4},
		{"true", NewBool(true), 0x82f2307b4e88e77},
		{"0", NewInt(0), 0xcd92cf54dc615e5},
		{"1", NewInt(1), 0xedde65ec42d6cbc4},
		{"-7", NewInt(-7), 0x46d68c00a4e46c1b},
		{"2^60", NewInt(1 << 60), 0xcd93cf54dc63115},
		{"1.5", NewFloat(1.5), 0x7953ca97b9144203},
		{"-0.25", NewFloat(-0.25), 0x78cc4a97b8a181eb},
		{"3.0", NewFloat(3.0), 0x2bd3f3fe58b56006},
		{"3", NewInt(3), 0x2bd3f3fe58b56006},
		{"+Inf", NewFloat(math.Inf(1)), 0x79388a97b8fd0d8b},
		{"-Inf", NewFloat(math.Inf(-1)), 0x79380a97b8fc340b},
		{"NaN", NewFloat(math.NaN()), 0x96d19ba0c2bf9812},
		{"''", NewString(""), 0xaf63b94c8601b113},
		{"'a'", NewString("a"), 0x8254f07b4e084b6},
		{"'west'", NewString("west"), 0xf68642d09100e9d4},
		{"45-byte string", NewString(strings.Repeat("goei-", 9)), 0x6225f3bddc7de3a6},
		{"time", NewTime(time.Date(2005, 6, 14, 9, 30, 0, 123456000, time.UTC)), 0xf1e17817a5e5b408},
	}
	for _, c := range cases {
		if got := c.d.Hash(); got != c.want {
			t.Errorf("Hash(%s) = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// ref is FNV-1a from hash/fnv over Hash's documented byte layout: the kind
// tag, then the payload.
func ref(tag byte, payload []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte{tag})
	h.Write(payload)
	return h.Sum64()
}

// le is v's little-endian bytes.
func le(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestHashMatchesFNV checks the inlined FNV-1a against hash/fnv over the
// documented byte layout (kind tag, then payload) for arbitrary values.
func TestHashMatchesFNV(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string) bool {
		wantInt := ref(2, le(uint64(i)))
		wantFloat := ref(3, le(math.Float64bits(f)))
		if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			wantFloat = ref(2, le(uint64(int64(f))))
		}
		return NewInt(i).Hash() == wantInt &&
			NewFloat(f).Hash() == wantFloat &&
			NewString(s).Hash() == ref(4, []byte(s)) &&
			NewTime(time.Unix(0, i)).Hash() == ref(5, le(uint64(NewTime(time.Unix(0, i)).Time().UnixNano())))
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestDatumLayout pins the two-word layout (a pointer and the payload word:
// 16 bytes on 64-bit targets, 12 on 32-bit ones) and checks that every
// payload the one word carries comes back out of it bit for bit — through
// the accessor, String, AppendSQL, Compare and Hash (against hash/fnv) — at
// the edges of each encoding: signed zeros, NaN, infinities, the smallest
// subnormal, the int64 extremes, times before 1970 and below a
// microsecond, both BOOLs.
func TestDatumLayout(t *testing.T) {
	align := unsafe.Alignof(Datum{})
	if n, want := unsafe.Sizeof(Datum{}), (unsafe.Sizeof(uintptr(0))+8+align-1)/align*align; n != want {
		t.Errorf("Datum is %d bytes, want %d: one pointer and one 8-byte word", n, want)
	}
	if reflect.TypeOf(Datum{}).Comparable() {
		t.Error("Datum must not be comparable with ==: it would compare floats by their bits")
	}
	render := func(d Datum) (string, string) { return d.String(), string(d.AppendSQL(nil)) }

	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		v        float64
		str, sql string
	}{
		{0, "0", "0.0"},
		{negZero, "-0", "-0.0"},
		{math.NaN(), "NaN", "NaN"},
		{math.Inf(1), "+Inf", "+Inf"},
		{math.Inf(-1), "-Inf", "-Inf"},
		{math.SmallestNonzeroFloat64, "5e-324", "5e-324"},
		{-2.5, "-2.5", "-2.5"},
	} {
		d := NewFloat(c.v)
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(c.v) {
			t.Errorf("Float %s: bits %#x, want %#x", c.str, math.Float64bits(got), math.Float64bits(c.v))
		}
		if str, sql := render(d); str != c.str || sql != c.sql {
			t.Errorf("Float %s renders %q and %q, want %q and %q", c.str, str, sql, c.str, c.sql)
		}
		if Compare(d, NewFloat(c.v)) != 0 {
			t.Errorf("Float %s does not compare equal to itself", c.str)
		}
		want := ref(3, le(math.Float64bits(c.v)))
		if c.v == math.Trunc(c.v) && !math.IsInf(c.v, 0) {
			want = ref(2, le(uint64(int64(c.v))))
		}
		if got := d.Hash(); got != want {
			t.Errorf("Hash(Float %s) = %#x, want %#x", c.str, got, want)
		}
	}
	zero, tiny := NewFloat(0), NewFloat(math.SmallestNonzeroFloat64)
	if Compare(NewFloat(negZero), zero) != 0 || NewFloat(negZero).Hash() != zero.Hash() {
		t.Error("-0 and +0 must compare and hash as one value")
	}
	if Compare(tiny, zero) != 1 || Compare(NewFloat(-math.SmallestNonzeroFloat64), NewFloat(negZero)) != -1 {
		t.Error("the smallest subnormals must order around zero")
	}
	if Compare(NewFloat(math.NaN()), NewFloat(math.Inf(1))) != 1 || Compare(NewFloat(math.Inf(-1)), NewInt(math.MinInt64)) != -1 {
		t.Error("NaN must sort above +Inf and -Inf below every INT")
	}

	for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		d, want := NewInt(v), strconv.FormatInt(v, 10)
		if str, sql := render(d); d.Int() != v || str != want || sql != want {
			t.Errorf("Int %d: got %d, %q, %q", v, d.Int(), str, sql)
		}
		if got := d.Hash(); got != ref(2, le(uint64(v))) {
			t.Errorf("Hash(Int %d) = %#x", v, got)
		}
	}
	if Compare(NewInt(math.MinInt64), NewInt(math.MaxInt64)) != -1 {
		t.Error("MinInt64 must order below MaxInt64")
	}

	cest := time.FixedZone("CEST", 2*3600)
	times := []struct {
		in, want time.Time
		sql      string
	}{
		{time.Date(1900, 1, 1, 0, 0, 0, 1, time.UTC), time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC), "'1900-01-01T00:00:00Z'"},
		{time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC), time.Date(1969, 12, 31, 23, 59, 59, 999_999_000, time.UTC), "'1969-12-31T23:59:59.999999Z'"},
		{time.Unix(0, 0), time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC), "'1970-01-01T00:00:00Z'"},
		{time.Date(2005, 6, 14, 11, 30, 0, 123_456_789, cest), time.Date(2005, 6, 14, 9, 30, 0, 123_456_000, time.UTC), "'2005-06-14T09:30:00.123456Z'"},
	}
	for i, c := range times {
		d := NewTime(c.in)
		if got := d.Time(); !got.Equal(c.want) || got.Location() != time.UTC {
			t.Errorf("Time %s comes back as %s", c.in, got)
		}
		if str, sql := render(d); str != c.sql || sql != c.sql {
			t.Errorf("Time %s renders %q and %q, want %q", c.in, str, sql, c.sql)
		}
		if got := d.Hash(); got != ref(5, le(uint64(c.want.UnixNano()))) {
			t.Errorf("Hash(Time %s) = %#x", c.in, got)
		}
		if i > 0 && Compare(NewTime(times[i-1].in), d) != -1 {
			t.Errorf("Time %s must order after %s", c.in, times[i-1].in)
		}
	}

	for _, v := range []bool{false, true} {
		d, want, tag := NewBool(v), "FALSE", byte(0)
		if v {
			want, tag = "TRUE", 1
		}
		if str, sql := render(d); d.Bool() != v || str != want || sql != want {
			t.Errorf("Bool %v: got %v, %q, %q", v, d.Bool(), str, sql)
		}
		if got := d.Hash(); got != ref(1, []byte{tag}) {
			t.Errorf("Hash(Bool %v) = %#x", v, got)
		}
	}
	if Compare(NewBool(false), NewBool(true)) != -1 || Compare(NewBool(true), NewBool(true)) != 0 {
		t.Error("FALSE must order below TRUE")
	}
}

func TestHashPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(a int64) bool {
		d1 := NewInt(a)
		d2 := NewFloat(float64(a))
		if Compare(d1, d2) != 0 {
			return true // float rounding made them unequal; fine
		}
		return d1.Hash() == d2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyTransitiveStrings(t *testing.T) {
	f := func(a, b, c string) bool {
		da, db, dc := NewString(a), NewString(b), NewString(c)
		if Compare(da, db) <= 0 && Compare(db, dc) <= 0 {
			return Compare(da, dc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN must equal NaN for sorting totality")
	}
	if Compare(NewFloat(1), nan) != -1 || Compare(nan, NewFloat(1)) != 1 {
		t.Error("NaN must sort above all floats")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(42), "42"},
		{NewFloat(2.5), "2.5"},
		{NewString("it's"), "'it''s'"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.d, got, c.want)
		}
	}
	if NewString("plain").Display() != "plain" {
		t.Error("Display must not quote strings")
	}
}

func TestCoerce(t *testing.T) {
	d, err := Coerce(NewInt(3), KindFloat)
	if err != nil || d.Float() != 3.0 {
		t.Errorf("int→float coercion failed: %v %v", d, err)
	}
	d, err = Coerce(NewFloat(4.0), KindInt)
	if err != nil || d.Int() != 4 {
		t.Errorf("integral float→int coercion failed: %v %v", d, err)
	}
	if _, err = Coerce(NewFloat(4.5), KindInt); err == nil {
		t.Error("lossy float→int coercion must error")
	}
	d, err = Coerce(Null, KindString)
	if err != nil || !d.IsNull() {
		t.Error("NULL must coerce to anything as NULL")
	}
	d, err = Coerce(NewInt(9), KindString)
	if err != nil || d.Str() != "9" {
		t.Errorf("int→string coercion failed: %v %v", d, err)
	}
	if _, err = Coerce(NewString("x"), KindInt); err == nil {
		t.Error("string→int coercion must error")
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if v, ok := NewInt(5).AsFloat(); !ok || v != 5 {
		t.Error("AsFloat(int) failed")
	}
	if v, ok := NewFloat(5.9).AsInt(); !ok || v != 5 {
		t.Error("AsInt(float) must truncate")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) must fail")
	}
	if _, ok := Null.AsInt(); ok {
		t.Error("AsInt(NULL) must fail")
	}
}

func TestWireSize(t *testing.T) {
	if Null.WireSize() != 1 {
		t.Error("NULL wire size")
	}
	if NewString("abcd").WireSize() != 9 {
		t.Error("string wire size = 5 + len")
	}
	if NewInt(1).WireSize() != 9 || NewFloat(1).WireSize() != 9 {
		t.Error("numeric wire size")
	}
	r := Row{NewInt(1), NewString("ab")}
	if RowWireSize(r) != 4+9+7 {
		t.Errorf("row wire size = %d", RowWireSize(r))
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null}
	c := CloneRow(r)
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("CloneRow must not alias")
	}
	if !RowsEqual(r, Row{NewInt(1), NewString("a"), Null}) {
		t.Error("RowsEqual treats NULL as equal for grouping")
	}
	if RowsEqual(r, Row{NewInt(1), NewString("a")}) {
		t.Error("RowsEqual must respect length")
	}
	h1 := HashRow(r, []int{0, 1})
	h2 := HashRow(Row{NewInt(1), NewString("a"), NewInt(5)}, []int{0, 1})
	if h1 != h2 {
		t.Error("HashRow must only consider the given columns")
	}
}

func TestComparableMatrix(t *testing.T) {
	if !Comparable(KindInt, KindFloat) || !Comparable(KindNull, KindString) {
		t.Error("numeric kinds and NULL must be comparable")
	}
	if Comparable(KindString, KindInt) {
		t.Error("STRING vs INT must not be comparable")
	}
}
