package valueset

import (
	"testing"
	"testing/quick"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

func TestNewDomain(t *testing.T) {
	if _, err := NewDomain(0); err == nil {
		t.Fatal("empty domain accepted")
	}
	d, err := NewDomain(16)
	if err != nil {
		t.Fatalf("NewDomain(16): %v", err)
	}
	if !d.Contains(15) || d.Contains(16) {
		t.Fatal("Contains wrong")
	}
}

func TestMustDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDomain(0) did not panic")
		}
	}()
	MustDomain(0)
}

func TestBitWidth(t *testing.T) {
	tests := []struct {
		size uint64
		want int
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {256, 8}, {257, 9}, {1 << 16, 16}, {1 << 32, 32},
	}
	for _, tt := range tests {
		if got := MustDomain(tt.size).BitWidth(); got != tt.want {
			t.Errorf("BitWidth(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestBitMSBFirst(t *testing.T) {
	// value 5 = 0101 in 4 bits
	want := []int{0, 1, 0, 1}
	for b := 1; b <= 4; b++ {
		if got := Bit(5, b, 4); got != want[b-1] {
			t.Errorf("Bit(5, %d, 4) = %d, want %d", b, got, want[b-1])
		}
	}
	if got := BitString(5, 4); got != "0101" {
		t.Errorf("BitString = %q, want 0101", got)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit out of range did not panic")
		}
	}()
	Bit(0, 5, 4)
}

func TestBSTRootAndChildren(t *testing.T) {
	d := MustDomain(7) // values 0..6, root at 3
	root := d.Root()
	if root.Value() != 3 {
		t.Fatalf("root value = %d, want 3", root.Value())
	}
	left, ok := root.Left()
	if !ok || left.Lo != 0 || left.Hi != 2 || left.Value() != 1 {
		t.Fatalf("left child wrong: %v", left)
	}
	right, ok := root.Right()
	if !ok || right.Lo != 4 || right.Hi != 6 || right.Value() != 5 {
		t.Fatalf("right child wrong: %v", right)
	}
}

func TestBSTLeaf(t *testing.T) {
	d := MustDomain(1)
	root := d.Root()
	if _, ok := root.Left(); ok {
		t.Fatal("singleton root has a left child")
	}
	if _, ok := root.Right(); ok {
		t.Fatal("singleton root has a right child")
	}
	if root.Value() != 0 {
		t.Fatal("singleton value wrong")
	}
}

func TestBSTMembership(t *testing.T) {
	d := MustDomain(15) // root value 7
	root := d.Root()
	if !root.InLeft(3) || root.InLeft(7) || root.InLeft(9) {
		t.Fatal("InLeft wrong")
	}
	if !root.InRight(9) || root.InRight(7) || root.InRight(3) {
		t.Fatal("InRight wrong")
	}
	if !root.Contains(0) || !root.Contains(14) {
		t.Fatal("Contains wrong")
	}
}

func TestBSTHeightBound(t *testing.T) {
	tests := []struct {
		size uint64
		max  int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {7, 3}, {8, 3}, {15, 4}, {16, 4}, {1024, 10}, {1 << 20, 20},
	}
	for _, tt := range tests {
		if got := MustDomain(tt.size).Height(); got > tt.max {
			t.Errorf("Height(%d) = %d, want <= %d", tt.size, got, tt.max)
		}
	}
}

// TestBSTEveryValueReachable walks the tree to every value of a small
// domain, mirroring what Algorithm 3's navigation must be able to do.
func TestBSTEveryValueReachable(t *testing.T) {
	d := MustDomain(33)
	for v := model.Value(0); uint64(v) < d.Size; v++ {
		n := d.Root()
		steps := 0
		for n.Value() != v {
			switch {
			case n.InLeft(v):
				n, _ = n.Left()
			case n.InRight(v):
				n, _ = n.Right()
			default:
				t.Fatalf("value %d unreachable from %v", v, n)
			}
			steps++
			if steps > 64 {
				t.Fatalf("runaway search for %d", v)
			}
		}
		if steps > d.Height() {
			t.Fatalf("value %d took %d steps, height is %d", v, steps, d.Height())
		}
	}
}

// TestBSTParent checks Parent against the descent it inverts: in every
// domain of up to 70 values, the parent of each child is the node it hangs
// from, the root has none, and a range that is no node has none.
func TestBSTParent(t *testing.T) {
	for size := uint64(1); size <= 70; size++ {
		d := MustDomain(size)
		if _, ok := d.Parent(d.Root()); ok {
			t.Fatalf("size %d: the root has a parent", size)
		}
		for queue := []Node{d.Root()}; len(queue) > 0; queue = queue[1:] {
			n := queue[0]
			for _, child := range []func() (Node, bool){n.Left, n.Right} {
				c, ok := child()
				if !ok {
					continue
				}
				if p, ok := d.Parent(c); !ok || p != n {
					t.Fatalf("size %d: Parent(%v) = %v (%t), want %v", size, c, p, ok, n)
				}
				queue = append(queue, c)
			}
		}
		if size > 2 {
			if p, ok := d.Parent(Node{Lo: 1, Hi: size - 1}); ok {
				t.Fatalf("size %d: a range that is no node has parent %v", size, p)
			}
		}
	}
}

func TestNodeString(t *testing.T) {
	if got := (Node{Lo: 2, Hi: 6}).String(); got != "[2,6]@4" {
		t.Errorf("String = %q", got)
	}
}

func TestRandomIDsDistinct(t *testing.T) {
	space := MustDomain(1 << 16)
	ids, err := RandomIDs(100, space, seedstream.NewV1(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[model.Value]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate ID")
		}
		if !space.Contains(id) {
			t.Fatal("ID out of space")
		}
		seen[id] = true
	}
	// Deterministic under seed.
	again, _ := RandomIDs(100, space, seedstream.NewV1(7))
	for i := range ids {
		if ids[i] != again[i] {
			t.Fatal("RandomIDs not deterministic under one seed")
		}
	}
}

func TestRandomIDsSpaceTooSmall(t *testing.T) {
	if _, err := RandomIDs(10, MustDomain(5), seedstream.NewV1(1)); err == nil {
		t.Fatal("oversubscribed ID space accepted")
	}
}

func TestRandomIDsExactFill(t *testing.T) {
	ids, err := RandomIDs(8, MustDomain(8), seedstream.NewV1(3))
	if err != nil || len(ids) != 8 {
		t.Fatalf("exact fill failed: %v", err)
	}
}

// --- property-based tests ---

// TestQuickBSTChildrenPartition checks that for any node, the left subtree,
// node value, and right subtree partition the node's range.
func TestQuickBSTChildrenPartition(t *testing.T) {
	prop := func(sizeRaw uint16, vRaw uint16) bool {
		size := uint64(sizeRaw%1000) + 1
		d := MustDomain(size)
		v := model.Value(uint64(vRaw) % size)
		n := d.Root()
		for {
			inLeft, isVal, inRight := n.InLeft(v), n.Value() == v, n.InRight(v)
			count := 0
			for _, b := range []bool{inLeft, isVal, inRight} {
				if b {
					count++
				}
			}
			if count != 1 {
				return false
			}
			if isVal {
				return true
			}
			if inLeft {
				n, _ = n.Left()
			} else {
				n, _ = n.Right()
			}
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBitRoundTrip checks that the bits of v reassemble to v.
func TestQuickBitRoundTrip(t *testing.T) {
	prop := func(vRaw uint32) bool {
		width := 32
		v := model.Value(vRaw)
		var back uint64
		for b := 1; b <= width; b++ {
			back = back<<1 | uint64(Bit(v, b, width))
		}
		return back == uint64(v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBitWidthSufficient checks that BitWidth bits can encode every
// domain value distinctly.
func TestQuickBitWidthSufficient(t *testing.T) {
	prop := func(sizeRaw uint16) bool {
		size := uint64(sizeRaw%4096) + 1
		d := MustDomain(size)
		w := d.BitWidth()
		return size <= uint64(1)<<uint(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
