package multiset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Multiset[int]
	if m.Len() != 0 || m.Distinct() != 0 {
		t.Fatalf("zero multiset not empty: len=%d distinct=%d", m.Len(), m.Distinct())
	}
	m.Add(7)
	if m.Count(7) != 1 {
		t.Fatalf("Count(7) = %d, want 1", m.Count(7))
	}
}

func TestNilReceiverSafeReads(t *testing.T) {
	var m *Multiset[string]
	if m.Len() != 0 {
		t.Errorf("nil.Len() = %d, want 0", m.Len())
	}
	if m.Count("x") != 0 {
		t.Errorf("nil.Count = %d, want 0", m.Count("x"))
	}
	if m.Contains("x") {
		t.Error("nil.Contains = true, want false")
	}
	if !m.SubsetOf(Of("a")) {
		t.Error("nil multiset should be a subset of everything")
	}
	if got := m.Elems(); len(got) != 0 {
		t.Errorf("nil.Elems() = %v, want empty", got)
	}
}

func TestAddRemoveCount(t *testing.T) {
	m := New[string]()
	m.Add("a")
	m.Add("a")
	m.Add("b")
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if m.Count("a") != 2 || m.Count("b") != 1 || m.Count("c") != 0 {
		t.Fatalf("counts wrong: a=%d b=%d c=%d", m.Count("a"), m.Count("b"), m.Count("c"))
	}
	if !m.Remove("a") {
		t.Fatal("Remove(a) = false, want true")
	}
	if m.Count("a") != 1 || m.Len() != 2 {
		t.Fatalf("after remove: a=%d len=%d", m.Count("a"), m.Len())
	}
	if m.Remove("zzz") {
		t.Fatal("Remove of absent element = true, want false")
	}
}

func TestAddN(t *testing.T) {
	m := New[int]()
	m.AddN(5, 3)
	m.AddN(5, 0)
	if m.Count(5) != 3 || m.Len() != 3 {
		t.Fatalf("AddN: count=%d len=%d, want 3/3", m.Count(5), m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddN(-1) did not panic")
		}
	}()
	m.AddN(5, -1)
}

func TestSetAndDistinct(t *testing.T) {
	m := Of(1, 1, 2, 3, 3, 3)
	set := m.Set()
	if len(set) != 3 {
		t.Fatalf("SET(M) has %d elements, want 3", len(set))
	}
	for _, want := range []int{1, 2, 3} {
		if _, ok := set[want]; !ok {
			t.Errorf("SET(M) missing %d", want)
		}
	}
	if m.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", m.Distinct())
	}
}

func TestFromSet(t *testing.T) {
	s := map[string]struct{}{"x": {}, "y": {}}
	m := FromSet(s)
	if m.Len() != 2 || m.Count("x") != 1 || m.Count("y") != 1 {
		t.Fatalf("FromSet wrong: %v", m)
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		name string
		a, b *Multiset[int]
		want bool
	}{
		{name: "empty in empty", a: New[int](), b: New[int](), want: true},
		{name: "empty in nonempty", a: New[int](), b: Of(1), want: true},
		{name: "equal", a: Of(1, 2), b: Of(2, 1), want: true},
		{name: "multiplicity respected", a: Of(1, 1), b: Of(1), want: false},
		{name: "strict subset", a: Of(1), b: Of(1, 1, 2), want: true},
		{name: "missing element", a: Of(3), b: Of(1, 2), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.SubsetOf(tt.b); got != tt.want {
				t.Errorf("SubsetOf = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestUnionIntersect(t *testing.T) {
	a := Of(1, 1, 2)
	b := Of(1, 3)
	u := a.Union(b)
	if u.Count(1) != 3 || u.Count(2) != 1 || u.Count(3) != 1 || u.Len() != 5 {
		t.Fatalf("union wrong: %v", u)
	}
	i := a.Intersect(b)
	if i.Count(1) != 1 || i.Len() != 1 {
		t.Fatalf("intersect wrong: %v", i)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of("m1", "m2")
	c := a.Clone()
	c.Add("m3")
	if a.Contains("m3") {
		t.Fatal("Clone is not independent of original")
	}
	if !a.SubsetOf(c) {
		t.Fatal("original should be subset of extended clone")
	}
}

func TestEqual(t *testing.T) {
	if !Of(1, 2, 2).Equal(Of(2, 1, 2)) {
		t.Error("order must not matter for Equal")
	}
	if Of(1, 2).Equal(Of(1, 2, 2)) {
		t.Error("different multiplicity must not be Equal")
	}
}

func TestElemsRoundTrip(t *testing.T) {
	m := Of(4, 4, 9)
	got := m.Elems()
	sort.Ints(got)
	want := []int{4, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("Elems len=%d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	m := Of("b", "a", "a")
	if got, want := m.String(), "{a:2, b:1}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// --- property-based tests (testing/quick) ---

func fromElems(elems []uint8) *Multiset[uint8] {
	m := New[uint8]()
	for _, e := range elems {
		m.Add(e)
	}
	return m
}

func TestQuickLenMatchesInput(t *testing.T) {
	prop := func(elems []uint8) bool {
		return fromElems(elems).Len() == len(elems)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSelfSubset(t *testing.T) {
	prop := func(elems []uint8) bool {
		m := fromElems(elems)
		return m.SubsetOf(m) && m.Equal(m.Clone())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		return ma.Union(mb).Equal(mb.Union(ma))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionLenAdds(t *testing.T) {
	prop := func(a, b []uint8) bool {
		return fromElems(a).Union(fromElems(b)).Len() == len(a)+len(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBothSubsetOfUnion(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		u := ma.Union(mb)
		return ma.SubsetOf(u) && mb.SubsetOf(u)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSubsetOfBoth(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		i := ma.Intersect(mb)
		return i.SubsetOf(ma) && i.SubsetOf(mb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetAntisymmetric(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		if ma.SubsetOf(mb) && mb.SubsetOf(ma) {
			return ma.Equal(mb)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRemoveInverseOfAdd(t *testing.T) {
	prop := func(elems []uint8, extra uint8) bool {
		m := fromElems(elems)
		before := m.Clone()
		m.Add(extra)
		if !m.Remove(extra) {
			return false
		}
		return m.Equal(before)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetSizeIsDistinct(t *testing.T) {
	prop := func(elems []uint8) bool {
		m := fromElems(elems)
		return len(m.Set()) == m.Distinct()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// --- cross-representation checks (compact slice vs spilled map) ---

// spilled builds a multiset holding the same elements as m but forced into
// the map representation, by first inflating past smallLimit and then
// removing the padding.
func spilled(m *Multiset[uint8]) *Multiset[uint8] {
	out := New[uint8]()
	// Pad with elements outside uint8's range... impossible; instead insert
	// every uint8 value once to exceed smallLimit, then remove the padding.
	for v := 0; v < smallLimit+1; v++ {
		out.Add(uint8(v))
	}
	if !out.spilled {
		panic("padding did not spill")
	}
	for v := 0; v < smallLimit+1; v++ {
		out.Remove(uint8(v))
	}
	out.UnionInto(m)
	return out
}

func TestSpillThreshold(t *testing.T) {
	m := New[int]()
	for i := 0; i < smallLimit; i++ {
		m.Add(i)
	}
	if m.spilled {
		t.Fatalf("spilled at %d distinct elements, limit is %d", m.Distinct(), smallLimit)
	}
	m.Add(smallLimit)
	if !m.spilled {
		t.Fatal("did not spill past smallLimit distinct elements")
	}
	if m.Len() != smallLimit+1 || m.Distinct() != smallLimit+1 {
		t.Fatalf("after spill: len=%d distinct=%d", m.Len(), m.Distinct())
	}
	for i := 0; i <= smallLimit; i++ {
		if m.Count(i) != 1 {
			t.Fatalf("element %d lost in spill: count=%d", i, m.Count(i))
		}
	}
}

// TestQuickRepresentationsObservationallyEqual drives identical element
// sequences through a compact and a pre-spilled multiset and requires every
// observation to agree.
func TestQuickRepresentationsObservationallyEqual(t *testing.T) {
	prop := func(elems []uint8, probe uint8) bool {
		compact := fromElems(elems)
		mapped := spilled(compact)
		if !compact.Equal(mapped) || !mapped.Equal(compact) {
			return false
		}
		if compact.Len() != mapped.Len() || compact.Distinct() != mapped.Distinct() {
			return false
		}
		if compact.Count(probe) != mapped.Count(probe) {
			return false
		}
		if compact.String() != mapped.String() {
			return false
		}
		if len(compact.Set()) != len(mapped.Set()) {
			return false
		}
		// Removal must behave identically in both representations.
		if compact.Remove(probe) != mapped.Remove(probe) {
			return false
		}
		return compact.Equal(mapped)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAgreesAcrossRepresentations(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		u1 := ma.Union(mb)
		u2 := spilled(ma).Union(spilled(mb))
		return u1.Equal(u2) && u2.Equal(u1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// --- Reset / UnionInto (the pooling primitives) ---

func TestResetEmptiesInPlace(t *testing.T) {
	m := Of(1, 1, 2)
	m.Reset()
	if m.Len() != 0 || m.Distinct() != 0 || m.Count(1) != 0 {
		t.Fatalf("after Reset: len=%d distinct=%d", m.Len(), m.Distinct())
	}
	m.Add(9)
	if m.Len() != 1 || m.Count(9) != 1 {
		t.Fatal("multiset unusable after Reset")
	}
}

// TestResetReturnsToCompactForm: Reset takes a spilled set back to the
// compact form, which then holds up to smallLimit distinct elements again,
// and a later spill reuses the spare map without allocating.
func TestResetReturnsToCompactForm(t *testing.T) {
	m := New[int]()
	for i := 0; i <= smallLimit; i++ {
		m.Add(i)
	}
	if !m.spilled {
		t.Fatal("setup: multiset did not spill")
	}
	m.Reset()
	if m.spilled || m.Len() != 0 || m.Distinct() != 0 {
		t.Fatalf("after Reset: spilled=%v len=%d distinct=%d", m.spilled, m.Len(), m.Distinct())
	}
	for i := 0; i < smallLimit; i++ {
		m.AddN(100+i, 2)
	}
	if m.spilled {
		t.Fatalf("spilled at %d distinct elements after Reset, limit is %d", m.Distinct(), smallLimit)
	}
	if m.Count(100) != 2 || m.Count(0) != 0 || m.Len() != 2*smallLimit {
		t.Fatalf("refilled compact set wrong: %v", m)
	}
	respill := func() {
		m.Reset()
		for i := 0; i <= smallLimit; i++ {
			m.Add(200 + i)
		}
	}
	if avg := testing.AllocsPerRun(100, respill); avg != 0 {
		t.Fatalf("spill after Reset allocates %.1f objects, want 0", avg)
	}
	if !m.spilled || m.Distinct() != smallLimit+1 || m.Count(0) != 0 || m.Count(200) != 1 {
		t.Fatalf("re-spilled set wrong: %v", m)
	}
}

func TestResetDoesNotAllocateInSteadyState(t *testing.T) {
	m := New[int]()
	fill := func() {
		m.Reset()
		for i := 0; i < 8; i++ {
			m.Add(i % 4)
		}
	}
	fill() // warm up the backing storage
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Fatalf("Reset+refill allocates %.1f objects per round, want 0", avg)
	}
}

func TestUnionInto(t *testing.T) {
	a := Of(1, 1, 2)
	b := Of(1, 3)
	a.UnionInto(b)
	if a.Count(1) != 3 || a.Count(2) != 1 || a.Count(3) != 1 || a.Len() != 5 {
		t.Fatalf("UnionInto wrong: %v", a)
	}
	if b.Len() != 2 {
		t.Fatalf("UnionInto mutated its argument: %v", b)
	}
}

func TestQuickUnionIntoMatchesUnion(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ma, mb := fromElems(a), fromElems(b)
		want := ma.Union(mb)
		ma.UnionInto(mb)
		return ma.Equal(want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendPairsRoundTrip(t *testing.T) {
	m := Of(1, 1, 2, 3, 3, 3)
	pairs := m.AppendPairs(nil)
	if len(pairs) != 3 {
		t.Fatalf("AppendPairs returned %d pairs, want 3", len(pairs))
	}
	back := New[int]()
	back.AddPairs(pairs)
	if !back.Equal(m) {
		t.Fatalf("AddPairs(AppendPairs(m)) = %v, want %v", back, m)
	}
}

func TestAppendPairsReusesScratch(t *testing.T) {
	m := Of(1, 2, 2, 3)
	buf := m.AppendPairs(nil)
	fill := func() { buf = m.AppendPairs(buf[:0]) }
	if avg := testing.AllocsPerRun(100, fill); avg != 0 {
		t.Fatalf("AppendPairs into warmed scratch allocates %.1f objects per call, want 0", avg)
	}
}

func TestQuickAppendPairsPreservesMultiset(t *testing.T) {
	prop := func(elems []uint8) bool {
		m := fromElems(elems)
		back := New[uint8]()
		back.AddPairs(m.AppendPairs(nil))
		return back.Equal(m)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// FuzzMultisetOps drives a Multiset[uint8] and a map model through the same
// script and requires them to agree after every operation. Each operation
// takes two bytes: the first picks the operation (and the count of AddN and
// AddNew), the second the element, from more values than the compact form
// holds, so scripts spill, Reset, and spill again over a stale spare map.
// AddNew is drawn only for an element the model lacks (for one it holds,
// the op is an Add), so a script can grow the compact array past smallLimit
// and then meet it with keyed operations.
func FuzzMultisetOps(f *testing.F) {
	for _, distinct := range []int{0, smallLimit, smallLimit + 1, 40} {
		var script []byte
		for e := 0; e < distinct; e++ {
			script = append(script, opAdd, byte(e))
		}
		script = append(script, opReset, 0)
		for e := 0; e < distinct; e++ {
			script = append(script, opAdd, byte(distinct-e))
		}
		f.Add(script)
	}
	// AddNew past smallLimit, then keyed operations on the long compact
	// array (Remove, Add of a held and of a new element), a Reset and a
	// refill through both inserts.
	for _, distinct := range []int{smallLimit, smallLimit + 1, 40} {
		for _, keyed := range []byte{opRemove, opAdd, opAddN + numOps} {
			var script []byte
			for e := 0; e < distinct; e++ {
				script = append(script, opAddNew+numOps*byte(1+e%3), byte(e))
			}
			script = append(script, keyed, byte(distinct/2), keyed, 39, opRemove, 0)
			script = append(script, opReset, 0)
			for e := 0; e < distinct; e++ {
				script = append(script, opAddNew+numOps, byte(39-e), opAdd, byte(e))
			}
			f.Add(script)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		m := New[uint8]()
		want := map[uint8]int{}
		for i := 0; i+1 < len(script); i += 2 {
			op, e := script[i]%numOps, script[i+1]%40
			n := int(script[i] / numOps % 4)
			switch op {
			case opAdd:
				m.Add(e)
				want[e]++
			case opAddN:
				m.AddN(e, n)
				if n > 0 {
					want[e] += n
				}
			case opAddNew:
				if want[e] > 0 {
					m.Add(e)
					want[e]++
				} else if m.AddNew(e, n); n > 0 {
					want[e] = n
				}
			case opRemove:
				if got := m.Remove(e); got != (want[e] > 0) {
					t.Fatalf("op %d: Remove(%d) = %v with model count %d", i/2, e, got, want[e])
				}
				if want[e]--; want[e] <= 0 {
					delete(want, e)
				}
			case opReset:
				m.Reset()
				clear(want)
			}
			checkModel(t, i/2, m, want)
		}
	})
}

// FuzzMultisetOps operation codes. Count, Len, Distinct, Range and
// AppendPairs are observed after every operation.
const (
	opAdd byte = iota
	opAddN
	opRemove
	opReset
	opAddNew
	numOps
)

// checkModel compares every observation of m against the model counts.
func checkModel(t *testing.T, step int, m *Multiset[uint8], want map[uint8]int) {
	t.Helper()
	size := 0
	for e, n := range want {
		size += n
		if got := m.Count(e); got != n {
			t.Fatalf("op %d: Count(%d) = %d, model %d", step, e, got, n)
		}
	}
	if m.Len() != size || m.Distinct() != len(want) {
		t.Fatalf("op %d: Len %d Distinct %d, model %d and %d", step, m.Len(), m.Distinct(), size, len(want))
	}
	seen := map[uint8]int{}
	m.Range(func(e uint8, n int) bool {
		if _, dup := seen[e]; dup {
			t.Fatalf("op %d: Range yields %d twice", step, e)
		}
		seen[e] = n
		return true
	})
	pairs := m.AppendPairs(nil)
	if len(seen) != len(want) || len(pairs) != len(want) {
		t.Fatalf("op %d: Range yields %d elements, AppendPairs %d, model %d", step, len(seen), len(pairs), len(want))
	}
	for _, p := range pairs {
		if want[p.Elem] != p.Count || seen[p.Elem] != p.Count {
			t.Fatalf("op %d: element %d: AppendPairs %d, Range %d, model %d", step, p.Elem, p.Count, seen[p.Elem], want[p.Elem])
		}
	}
}
