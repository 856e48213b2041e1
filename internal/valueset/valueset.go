// Package valueset models the consensus value set V and the identifier
// space I of the paper. Values are uint64 indices into a Domain, so |V| can
// be astronomically large (the lower bounds are stated in terms of lg |V|)
// without materializing V.
//
// The package provides the two derived structures the algorithms need:
//
//   - the fixed-width binary representation V^{0,1} used by Algorithm 2's
//     propose phase (one round per bit);
//   - the balanced binary search tree over V walked by Algorithm 3,
//     represented implicitly by index ranges so navigation is O(1).
package valueset

import (
	"fmt"
	"math/rand"

	"adhocconsensus/internal/model"
)

// Domain is a finite value set V = {0, 1, ..., Size-1}.
type Domain struct {
	Size uint64
}

// NewDomain returns the domain of the given size.
func NewDomain(size uint64) (Domain, error) {
	if size == 0 {
		return Domain{}, fmt.Errorf("valueset: domain must be non-empty")
	}
	return Domain{Size: size}, nil
}

// MustDomain is NewDomain for static sizes known to be valid.
func MustDomain(size uint64) Domain {
	d, err := NewDomain(size)
	if err != nil {
		panic(err)
	}
	return d
}

// Contains reports whether v ∈ V.
func (d Domain) Contains(v model.Value) bool { return uint64(v) < d.Size }

// BitWidth returns ⌈lg |V|⌉, the length of the binary representations in
// V^{0,1} (Section 7, pseudocode conventions). A singleton domain still uses
// one bit.
func (d Domain) BitWidth() int {
	if d.Size <= 2 {
		return 1
	}
	w := 0
	for s := d.Size - 1; s > 0; s >>= 1 {
		w++
	}
	return w
}

// Bit returns bit b of v's binary representation, for 1 <= b <= width,
// most-significant bit first — the estimate[b] indexing of Algorithm 2.
func Bit(v model.Value, b, width int) int {
	if b < 1 || b > width {
		panic(fmt.Sprintf("valueset: bit index %d out of range [1,%d]", b, width))
	}
	return int((uint64(v) >> (width - b)) & 1)
}

// BitString renders v as a width-bit binary string, for traces and tests.
func BitString(v model.Value, width int) string {
	out := make([]byte, width)
	for b := 1; b <= width; b++ {
		out[b-1] = byte('0' + Bit(v, b, width))
	}
	return string(out)
}

// Node is a node of the implicit balanced binary search tree over a Domain:
// the subtree spanning values Lo..Hi (inclusive), rooted at the range
// midpoint. Algorithm 3 navigates this tree with its curr pointer.
type Node struct {
	Lo, Hi uint64
}

// Root returns the BST root: the full domain range.
func (d Domain) Root() Node { return Node{Lo: 0, Hi: d.Size - 1} }

// Height returns the height of the BST (number of edges on the longest
// root-to-leaf path). A singleton tree has height 0. It is at most
// ⌈lg |V|⌉, the bound used in Theorem 3's 8·lg|V| accounting.
func (d Domain) Height() int {
	h := 0
	n := d.Root()
	for {
		left, okL := n.Left()
		right, okR := n.Right()
		switch {
		case okL && (!okR || left.span() >= right.span()):
			n = left
		case okR:
			n = right
		default:
			return h
		}
		h++
	}
}

func (n Node) span() uint64 { return n.Hi - n.Lo + 1 }

// Parent returns the parent of node n, found by descending from the root,
// so a walker that ascends needs no record of its path. ok is false at the
// root and for a range that is not a node of the tree.
func (d Domain) Parent(n Node) (parent Node, ok bool) {
	for c := d.Root(); c != n; {
		next, down := c.Left()
		if n.Lo > uint64(c.Value()) {
			next, down = c.Right()
		}
		if !down {
			return Node{}, false
		}
		parent, ok, c = c, true, next
	}
	return parent, ok
}

// Value returns val[curr]: the value stored at this node (the range
// midpoint).
func (n Node) Value() model.Value { return model.Value(n.Lo + (n.Hi-n.Lo)/2) }

// Left returns the left child (values strictly below the node value); ok is
// false at a leaf boundary.
func (n Node) Left() (Node, bool) {
	m := uint64(n.Value())
	if m == n.Lo {
		return Node{}, false
	}
	return Node{Lo: n.Lo, Hi: m - 1}, true
}

// Right returns the right child (values strictly above the node value).
func (n Node) Right() (Node, bool) {
	m := uint64(n.Value())
	if m == n.Hi {
		return Node{}, false
	}
	return Node{Lo: m + 1, Hi: n.Hi}, true
}

// InLeft reports whether v lies in the left subtree of this node
// (Algorithm 3's "estimate ∈ left[curr]" test).
func (n Node) InLeft(v model.Value) bool {
	l, ok := n.Left()
	return ok && uint64(v) >= l.Lo && uint64(v) <= l.Hi
}

// InRight reports whether v lies in the right subtree of this node.
func (n Node) InRight(v model.Value) bool {
	r, ok := n.Right()
	return ok && uint64(v) >= r.Lo && uint64(v) <= r.Hi
}

// Contains reports whether v lies in the subtree rooted at this node.
func (n Node) Contains(v model.Value) bool {
	return uint64(v) >= n.Lo && uint64(v) <= n.Hi
}

// String renders the node range and value.
func (n Node) String() string {
	return fmt.Sprintf("[%d,%d]@%d", n.Lo, n.Hi, uint64(n.Value()))
}

// RandomIDs draws n distinct identifiers from the identifier space with
// rng, so a seeded generator gives the same IDs every time. It models
// MAC-address-like or randomly chosen IDs (Section 1.1). It returns an
// error if the space is too small.
func RandomIDs(n int, space Domain, rng *rand.Rand) ([]model.Value, error) {
	if uint64(n) > space.Size {
		return nil, fmt.Errorf("valueset: cannot draw %d distinct IDs from a space of %d", n, space.Size)
	}
	seen := make(map[model.Value]struct{}, n)
	out := make([]model.Value, 0, n)
	for len(out) < n {
		var v model.Value
		if space.Size <= uint64(1)<<62 {
			v = model.Value(rng.Int63n(int64(space.Size)))
		} else {
			v = model.Value(rng.Uint64() % space.Size)
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out, nil
}
