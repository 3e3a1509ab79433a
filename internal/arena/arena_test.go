package arena

import "testing"

type node struct {
	name string
	next *node
}

func TestNewPointerStability(t *testing.T) {
	var s Slab[node]
	ptrs := make([]*node, 0, 5000)
	for i := 0; i < 5000; i++ {
		ptrs = append(ptrs, s.New(node{name: "n"}))
	}
	// Growth must never move previously handed-out values.
	for i, p := range ptrs {
		p.name = "set"
		if i > 0 {
			p.next = ptrs[i-1]
		}
	}
	for _, p := range ptrs {
		if p.name != "set" {
			t.Fatal("slab value moved or was clobbered during growth")
		}
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", s.Len())
	}
}

func TestMakeIsZeroedAndCapped(t *testing.T) {
	var s Slab[int]
	a := s.Make(10)
	for i := range a {
		a[i] = i + 1
	}
	b := s.Make(10)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("Make returned dirty memory at %d: %d", i, v)
		}
	}
	if cap(a) != len(a) {
		t.Fatalf("Make slice cap %d != len %d; appends would clobber neighbors", cap(a), len(a))
	}
	// Appending past cap must reallocate, not overwrite b.
	a = append(a, 99)
	if b[0] != 0 {
		t.Fatal("append to a Make slice overwrote the next allocation")
	}
	// Oversized requests get their own block.
	big := s.Make(10 * maxBlockElems)
	if len(big) != 10*maxBlockElems {
		t.Fatalf("big Make len = %d", len(big))
	}
}

func TestCopy(t *testing.T) {
	var s Slab[string]
	src := []string{"a", "b", "c"}
	dst := s.Copy(src)
	src[0] = "mutated"
	if dst[0] != "a" || dst[2] != "c" {
		t.Fatalf("Copy = %v", dst)
	}
	if s.Copy(nil) != nil {
		t.Fatal("Copy(nil) must be nil")
	}
}

func TestResetReusesBlocks(t *testing.T) {
	var s Slab[node]
	warm := func() {
		for i := 0; i < 300; i++ {
			s.New(node{name: "x"})
		}
		s.Reset()
	}
	warm() // populate blocks
	allocs := testing.AllocsPerRun(20, warm)
	if allocs > 1 {
		t.Fatalf("warm New cycle allocates %.1f times per run; blocks are not being reused", allocs)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("after Reset: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestBytes(t *testing.T) {
	var s Slab[int64]
	s.Make(8)
	s.New(1)
	if got := s.Bytes(); got != 9*8 {
		t.Fatalf("Bytes = %d, want 72", got)
	}
}

func TestSetGivesEachTypeItsOwnSlab(t *testing.T) {
	var s Set
	n := New(&s, node{name: "a"})
	i := New(&s, int64(7))
	strs := Make[string](&s, 3)
	if n.name != "a" || *i != 7 || len(strs) != 3 || cap(strs) != 3 {
		t.Fatalf("draws: %+v %d %q", *n, *i, strs)
	}
	ns, is := drawnSlab[node](&s), drawnSlab[int64](&s)
	if ns.Len() != 1 || is.Len() != 1 || drawnSlab[string](&s).Len() != 3 {
		t.Fatalf("slab lengths: node %d, int64 %d, string %d", ns.Len(), is.Len(), drawnSlab[string](&s).Len())
	}
	if !ns.Holds(n) || !is.Holds(i) {
		t.Fatal("a draw is not in its type's slab")
	}
	if New(&s, node{}) == n || drawnSlab[node](&s) != ns {
		t.Fatal("a second draw of one type must come from the same slab, at a new address")
	}
}

func TestSetResetRecyclesEveryType(t *testing.T) {
	var s Set
	draw := func() {
		for i := 0; i < 100; i++ {
			New(&s, node{name: "x"})
			Make[int](&s, 4)
			Copy(&s, []string{"a", "b"})
		}
		s.Reset()
	}
	draw() // add the slabs and grow their blocks
	if allocs := testing.AllocsPerRun(20, draw); allocs > 0 {
		t.Fatalf("a warm draw-and-reset cycle allocates %.1f times; Reset does not recycle every slab", allocs)
	}
	if s.Bytes() != 0 {
		t.Fatalf("Bytes after Reset = %d, want 0", s.Bytes())
	}
}

func TestSetBytesSumsAcrossTypes(t *testing.T) {
	var s Set
	Make[int64](&s, 8)
	New(&s, int32(1))
	Copy(&s, []int16{1, 2, 3})
	if got, want := s.Bytes(), int64(8*8+4+3*2); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	var none *Set
	if none.Bytes() != 0 {
		t.Fatal("a nil Set must report 0 bytes")
	}
}

func TestSetHolds(t *testing.T) {
	var s Set
	in := New(&s, node{name: "in"})
	list := Make[int](&s, 4)
	out, heapInt := &node{name: "out"}, new(int)
	if !Holds(&s, in) || !Holds(&s, &list[3]) {
		t.Fatal("Holds is false for the set's own values")
	}
	if Holds(&s, out) || Holds(&s, heapInt) {
		t.Fatal("Holds is true for heap values")
	}
	if drawn := len(s.slabs); Holds(&s, new(float64)) || len(s.slabs) != drawn {
		t.Fatal("Holds is true for, or adds a slab of, a type the set never drew")
	}
	if Holds[node](nil, in) {
		t.Fatal("a nil Set holds nothing")
	}
	s.Reset()
	if Holds(&s, in) {
		t.Fatal("Holds is true for a value drawn before Reset")
	}
}

func TestNilSetAllocatesOnHeap(t *testing.T) {
	p := New[node](nil, node{name: "heap"})
	xs := Make[int](nil, 3)
	cp := Copy[string](nil, []string{"a"})
	if p.name != "heap" || len(xs) != 3 || len(cp) != 1 || cp[0] != "a" {
		t.Fatalf("nil-Set draws: %+v %v %v", *p, xs, cp)
	}
	if Copy[string](nil, nil) != nil {
		t.Fatal("Copy of an empty slice must be nil")
	}
	if allocs := testing.AllocsPerRun(10, func() { New[node](nil, node{}) }); allocs != 1 {
		t.Fatalf("a nil-Set New allocates %.0f times, want one heap allocation", allocs)
	}
}

func TestBlockCarvesOneExactBlock(t *testing.T) {
	var b Block[int]
	src := []int{1, 2, 3}
	for _, copying := range []bool{false, true} {
		one := b.One(copying, 9)
		list := b.List(copying, src)
		empty := b.List(copying, nil)
		if !copying {
			if one != nil || list != nil {
				t.Fatal("the sizing walk must return nil")
			}
			continue
		}
		if *one != 9 || len(list) != 3 || cap(list) != 3 || list[2] != 3 || empty != nil {
			t.Fatalf("copies: %d %v %v", *one, list, empty)
		}
		if cap(b.vals) != 4 || &b.vals[1] != &list[0] {
			t.Fatalf("block holds %d values, want one block of exactly 4", cap(b.vals))
		}
	}
}

// many stands for one of many element types: each K makes a distinct
// type, so a many[K] has a slab of its own.
type many[K any] struct{ k K }

// TestSetFindsEachOfManyTypes: a set that draws more types than it makes
// room for at first (firstSlabs) grows its index, keeps it at most half
// full, and still finds every type's own slab.
func TestSetFindsEachOfManyTypes(t *testing.T) {
	var s Set
	draw := func() {
		_ = [...]any{
			New(&s, many[[1]byte]{}), New(&s, many[[2]byte]{}), New(&s, many[[3]byte]{}), New(&s, many[[4]byte]{}),
			New(&s, many[[5]byte]{}), New(&s, many[[6]byte]{}), New(&s, many[[7]byte]{}), New(&s, many[[8]byte]{}),
			New(&s, many[[9]byte]{}), New(&s, many[[10]byte]{}), New(&s, many[[11]byte]{}), New(&s, many[[12]byte]{}),
			New(&s, many[[13]byte]{}), New(&s, many[[14]byte]{}), New(&s, many[[15]byte]{}), New(&s, many[[16]byte]{}),
			New(&s, many[[17]byte]{}), New(&s, many[[18]byte]{}), New(&s, many[[19]byte]{}), New(&s, many[[20]byte]{}),
			New(&s, many[[21]byte]{}), New(&s, many[[22]byte]{}), New(&s, many[[23]byte]{}), New(&s, many[[24]byte]{}),
			New(&s, many[[25]byte]{}), New(&s, many[[26]byte]{}), New(&s, many[[27]byte]{}), New(&s, many[[28]byte]{}),
			New(&s, many[[29]byte]{}), New(&s, many[[30]byte]{}), New(&s, many[[31]byte]{}), New(&s, many[[32]byte]{}),
			New(&s, many[[33]byte]{}), New(&s, many[[34]byte]{}), New(&s, many[[35]byte]{}), New(&s, many[[36]byte]{}),
			New(&s, many[[37]byte]{}), New(&s, many[[38]byte]{}), New(&s, many[[39]byte]{}), New(&s, many[[40]byte]{}),
		}
	}
	draw()
	if len(s.slabs) != 40 || len(s.index) < 2*len(s.slabs) {
		t.Fatalf("%d slabs in an index of %d entries", len(s.slabs), len(s.index))
	}
	draw()
	if len(s.slabs) != 40 {
		t.Fatalf("a second draw of the same types added slabs: %d", len(s.slabs))
	}
	for i, t2 := range s.slabs {
		if t2.Len() != 2 {
			t.Fatalf("type %d's slab holds %d values, want 2", i+1, t2.Len())
		}
	}
}
