// Package multiset implements the finite multisets of Section 2 of the
// paper. Receive sets in the formal model (Definition 11, constraint 4) are
// multisets over the message alphabet M: a process may receive several copies
// of the same message in one round, and the integrity constraint is stated
// as sub-multiset inclusion against the multiset union of all broadcasts.
//
// The implementation is generic over any comparable element type; the
// simulator instantiates it with model.Message.
//
// # Representation
//
// A multiset starts in a compact slice-backed representation: distinct
// elements and their counts live in a small inline array scanned linearly.
// Receive sets in the simulator almost always hold only a handful of
// distinct messages, so this path avoids map allocation and hashing
// entirely. Once AddN inserts more than smallLimit distinct elements the
// multiset spills to the map representation. Reset returns it to the
// compact form and keeps the map as a spare, which the next spill clears
// and reuses: a pooled multiset pays map costs only while it really holds
// more than smallLimit distinct elements, and a multiset that spilled once
// spills again without allocating.
//
// AddNew inserts an element the caller knows is absent (the engine numbers
// a round's distinct messages once and inserts each received one once), so
// it appends to the compact array without a scan or a hash, past
// smallLimit too, and a compact set ranges in insertion order (until a
// Remove) whatever its size. Keyed operations (AddN, Count, Remove) read a
// long array correctly by scan, and AddN spills it to the map when it
// inserts a new element. All operations are representation-agnostic; the
// two representations are observationally identical.
package multiset

import (
	"fmt"
	"sort"
	"strings"
)

// smallLimit is the number of distinct elements the slice-backed
// representation holds before spilling to a map. Linear scans of this many
// entries are cheaper than map operations for the simulator's element types.
const smallLimit = 16

// entry is one distinct element of the compact representation.
type entry[T comparable] struct {
	elem  T
	count int
}

// Multiset is a finite multiset over T. The zero value is an empty multiset
// ready to use.
type Multiset[T comparable] struct {
	small   []entry[T] // compact representation; unused while spilled
	counts  map[T]int  // spilled representation; a stale spare while compact
	spilled bool
	size    int
}

// New returns an empty multiset.
func New[T comparable]() *Multiset[T] {
	return &Multiset[T]{}
}

// Of returns a multiset containing the given elements, with multiplicity.
func Of[T comparable](elems ...T) *Multiset[T] {
	m := New[T]()
	for _, e := range elems {
		m.Add(e)
	}
	return m
}

// FromSet returns MS(S): the multiset containing exactly one copy of each
// element of the set S (Section 2).
func FromSet[T comparable](set map[T]struct{}) *Multiset[T] {
	m := New[T]()
	for e := range set {
		m.Add(e)
	}
	return m
}

// spill migrates the compact representation into the map, reusing the
// spare left by an earlier spill.
func (m *Multiset[T]) spill() {
	if m.counts == nil {
		m.counts = make(map[T]int, 2*smallLimit)
	} else {
		clear(m.counts)
	}
	for _, en := range m.small {
		m.counts[en.elem] = en.count
	}
	m.small = m.small[:0]
	m.spilled = true
}

// Add inserts one copy of e.
func (m *Multiset[T]) Add(e T) { m.AddN(e, 1) }

// AddN inserts n copies of e. n must be non-negative.
func (m *Multiset[T]) AddN(e T, n int) {
	if n < 0 {
		panic(fmt.Sprintf("multiset: AddN with negative count %d", n))
	}
	if n == 0 {
		return
	}
	if m.spilled {
		m.counts[e] += n
		m.size += n
		return
	}
	for i := range m.small {
		if m.small[i].elem == e {
			m.small[i].count += n
			m.size += n
			return
		}
	}
	if len(m.small) < smallLimit {
		m.small = append(m.small, entry[T]{e, n})
		m.size += n
		return
	}
	m.spill()
	m.counts[e] += n
	m.size += n
}

// AddNew inserts n copies of e, which m must not hold: the caller's
// guarantee stands in for AddN's search, so a compact multiset appends
// without scanning or hashing, and may grow past smallLimit. n must be
// non-negative.
func (m *Multiset[T]) AddNew(e T, n int) {
	if n < 0 {
		panic(fmt.Sprintf("multiset: AddNew with negative count %d", n))
	}
	if n == 0 {
		return
	}
	if m.spilled {
		m.counts[e] = n
	} else {
		m.small = append(m.small, entry[T]{e, n})
	}
	m.size += n
}

// Remove deletes one copy of e, reporting whether a copy was present.
func (m *Multiset[T]) Remove(e T) bool {
	if m.spilled {
		if m.counts[e] == 0 {
			return false
		}
		m.counts[e]--
		if m.counts[e] == 0 {
			delete(m.counts, e)
		}
		m.size--
		return true
	}
	for i := range m.small {
		if m.small[i].elem == e {
			m.small[i].count--
			if m.small[i].count == 0 {
				// Order is unspecified: swap-delete.
				last := len(m.small) - 1
				m.small[i] = m.small[last]
				m.small = m.small[:last]
			}
			m.size--
			return true
		}
	}
	return false
}

// Count returns the multiplicity of e.
func (m *Multiset[T]) Count(e T) int {
	if m == nil {
		return 0
	}
	if m.spilled {
		return m.counts[e]
	}
	for i := range m.small {
		if m.small[i].elem == e {
			return m.small[i].count
		}
	}
	return 0
}

// Contains reports whether at least one copy of e is present.
func (m *Multiset[T]) Contains(e T) bool { return m.Count(e) > 0 }

// Len returns |M|: the total number of element instances (Section 2).
func (m *Multiset[T]) Len() int {
	if m == nil {
		return 0
	}
	return m.size
}

// Distinct returns the number of distinct elements.
func (m *Multiset[T]) Distinct() int {
	if m == nil {
		return 0
	}
	if m.spilled {
		return len(m.counts)
	}
	return len(m.small)
}

// Set returns SET(M): the set of unique values appearing in M (Section 2).
func (m *Multiset[T]) Set() map[T]struct{} {
	out := make(map[T]struct{}, m.Distinct())
	m.Range(func(e T, _ int) bool {
		out[e] = struct{}{}
		return true
	})
	return out
}

// Elems returns all element instances with multiplicity, in unspecified
// order. The returned slice is freshly allocated.
func (m *Multiset[T]) Elems() []T {
	if m == nil {
		return nil
	}
	out := make([]T, 0, m.size)
	m.Range(func(e T, n int) bool {
		for i := 0; i < n; i++ {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Pair is one distinct element of a multiset together with its
// multiplicity: the unit of the columnar trace arena's receive-set storage
// and of AppendPairs.
type Pair[T comparable] struct {
	Elem  T
	Count int
}

// AppendPairs appends every distinct element with its multiplicity to dst
// and returns the extended slice. Like Range, the order is unspecified (for
// the compact representation it is insertion order). Pass dst[:0] to reuse a
// scratch buffer: steady-state calls then allocate nothing once the buffer
// has grown to its working size.
func (m *Multiset[T]) AppendPairs(dst []Pair[T]) []Pair[T] {
	m.Range(func(e T, n int) bool {
		dst = append(dst, Pair[T]{Elem: e, Count: n})
		return true
	})
	return dst
}

// AddPairs inserts every pair of the slice, with multiplicity: the inverse
// of AppendPairs, used when materializing receive multisets from arena
// segments.
func (m *Multiset[T]) AddPairs(pairs []Pair[T]) {
	for _, p := range pairs {
		m.AddN(p.Elem, p.Count)
	}
}

// Range calls fn for every distinct element with its multiplicity, stopping
// early if fn returns false. Iteration order is unspecified.
func (m *Multiset[T]) Range(fn func(e T, count int) bool) {
	if m == nil {
		return
	}
	if m.spilled {
		for e, n := range m.counts {
			if !fn(e, n) {
				return
			}
		}
		return
	}
	for i := range m.small {
		if !fn(m.small[i].elem, m.small[i].count) {
			return
		}
	}
}

// SubsetOf reports M ⊆ other with multiplicity (Section 2): every element of
// M appears in other at least as many times as it appears in M.
func (m *Multiset[T]) SubsetOf(other *Multiset[T]) bool {
	ok := true
	m.Range(func(e T, n int) bool {
		if other.Count(e) < n {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Equal reports whether the two multisets contain exactly the same elements
// with the same multiplicities.
func (m *Multiset[T]) Equal(other *Multiset[T]) bool {
	return m.Len() == other.Len() && m.SubsetOf(other)
}

// Union returns the multiset union M ⊎ other (Section 2): multiplicities add.
func (m *Multiset[T]) Union(other *Multiset[T]) *Multiset[T] {
	out := New[T]()
	out.UnionInto(m)
	out.UnionInto(other)
	return out
}

// UnionInto adds every element of other into m in place (m ⊎= other),
// without allocating when m has capacity. other is unchanged; other may not
// be m itself.
func (m *Multiset[T]) UnionInto(other *Multiset[T]) {
	other.Range(func(e T, n int) bool {
		m.AddN(e, n)
		return true
	})
}

// Reset empties the multiset in place and returns it to the compact form.
// It keeps the inline array and, once spilled, the map as the next spill's
// spare, so pooled multisets refill round after round without allocating.
func (m *Multiset[T]) Reset() {
	m.size = 0
	m.small = m.small[:0]
	m.spilled = false
}

// Intersect returns the multiset intersection: per-element minimum
// multiplicity.
func (m *Multiset[T]) Intersect(other *Multiset[T]) *Multiset[T] {
	out := New[T]()
	m.Range(func(e T, n int) bool {
		if o := other.Count(e); o > 0 {
			out.AddN(e, min(n, o))
		}
		return true
	})
	return out
}

// Clone returns a deep copy.
func (m *Multiset[T]) Clone() *Multiset[T] {
	out := New[T]()
	out.UnionInto(m)
	return out
}

// String renders the multiset as {e:count, ...} with elements ordered by
// their formatted representation, for stable test output.
func (m *Multiset[T]) String() string {
	type pair struct {
		repr  string
		count int
	}
	pairs := make([]pair, 0, m.Distinct())
	m.Range(func(e T, n int) bool {
		pairs = append(pairs, pair{fmt.Sprint(e), n})
		return true
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].repr < pairs[j].repr })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", p.repr, p.count)
	}
	b.WriteByte('}')
	return b.String()
}
