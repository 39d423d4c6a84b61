package hierarchy

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperFigure3 builds the hierarchy of Figure 3: a root with two internal
// children, each covering three leaves (v1..v3 and v4..v6).
func paperFigure3(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildNilRoot(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("Build(nil) succeeded")
	}
}

func TestBuildNilChild(t *testing.T) {
	root := &Node{Label: "r", Children: []*Node{nil}}
	if _, err := Build(root); err == nil {
		t.Fatal("Build with nil child succeeded")
	}
}

func TestBuildSharedNode(t *testing.T) {
	shared := &Node{Label: "s"}
	root := &Node{Label: "r", Children: []*Node{shared, shared}}
	if _, err := Build(root); err == nil {
		t.Fatal("Build with shared node succeeded")
	}
}

func TestBuildUnbalanced(t *testing.T) {
	root := &Node{Label: "r", Children: []*Node{
		{Label: "leaf-shallow"},
		{Label: "mid", Children: []*Node{{Label: "leaf-deep"}}},
	}}
	if _, err := Build(root); err == nil {
		t.Fatal("Build accepted unbalanced tree")
	}
}

func TestSingleLeaf(t *testing.T) {
	h, err := Build(&Node{Label: "only"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Height() != 1 || h.LeafCount() != 1 || h.NodeCount() != 1 {
		t.Fatalf("single-leaf stats wrong: height=%d leaves=%d nodes=%d",
			h.Height(), h.LeafCount(), h.NodeCount())
	}
	if !h.Root().IsLeaf() {
		t.Fatal("single-node root should be a leaf")
	}
}

func TestFigure3Shape(t *testing.T) {
	h := paperFigure3(t)
	if h.Height() != 3 {
		t.Errorf("height = %d, want 3", h.Height())
	}
	if h.LeafCount() != 6 {
		t.Errorf("leaves = %d, want 6", h.LeafCount())
	}
	if h.NodeCount() != 9 {
		t.Errorf("nodes = %d, want 9 (1 root + 2 internal + 6 leaves)", h.NodeCount())
	}
}

func TestLevelOrderIDs(t *testing.T) {
	h := paperFigure3(t)
	for i, n := range h.Nodes() {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
	// Root is ID 0; its children are IDs 1 and 2; leaves are 3..8.
	if h.Nodes()[0] != h.Root() {
		t.Error("nodes[0] is not the root")
	}
	if h.Nodes()[1].Parent != h.Root() || h.Nodes()[2].Parent != h.Root() {
		t.Error("IDs 1,2 are not the root's children")
	}
	for i := 3; i <= 8; i++ {
		if !h.Nodes()[i].IsLeaf() {
			t.Errorf("node %d should be a leaf", i)
		}
	}
}

func TestLeafIntervals(t *testing.T) {
	h := paperFigure3(t)
	root := h.Root()
	if lo, hi := h.LeafInterval(root); lo != 0 || hi != 5 {
		t.Errorf("root interval = [%d,%d], want [0,5]", lo, hi)
	}
	left, right := root.Children[0], root.Children[1]
	if lo, hi := h.LeafInterval(left); lo != 0 || hi != 2 {
		t.Errorf("left interval = [%d,%d], want [0,2]", lo, hi)
	}
	if lo, hi := h.LeafInterval(right); lo != 3 || hi != 5 {
		t.Errorf("right interval = [%d,%d], want [3,5]", lo, hi)
	}
	for i, leaf := range h.Leaves() {
		if lo, hi := h.LeafInterval(leaf); lo != i || hi != i {
			t.Errorf("leaf %d interval = [%d,%d]", i, lo, hi)
		}
	}
}

func TestDepths(t *testing.T) {
	h := paperFigure3(t)
	if h.Root().Depth != 1 {
		t.Errorf("root depth = %d, want 1", h.Root().Depth)
	}
	for _, c := range h.Root().Children {
		if c.Depth != 2 {
			t.Errorf("internal depth = %d, want 2", c.Depth)
		}
	}
	for _, l := range h.Leaves() {
		if l.Depth != 3 {
			t.Errorf("leaf depth = %d, want 3", l.Depth)
		}
	}
}

func TestFanoutAndLeafCount(t *testing.T) {
	h := paperFigure3(t)
	if f := h.Root().Fanout(); f != 2 {
		t.Errorf("root fanout = %d, want 2", f)
	}
	if f := h.Root().Children[0].Fanout(); f != 3 {
		t.Errorf("group fanout = %d, want 3", f)
	}
	if c := h.Root().LeafCount(); c != 6 {
		t.Errorf("root leaf count = %d, want 6", c)
	}
	if c := h.Root().Children[1].LeafCount(); c != 3 {
		t.Errorf("group leaf count = %d, want 3", c)
	}
}

func TestFlat(t *testing.T) {
	h, err := Flat(5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Height() != 2 || h.LeafCount() != 5 || h.NodeCount() != 6 {
		t.Fatalf("Flat(5): height=%d leaves=%d nodes=%d", h.Height(), h.LeafCount(), h.NodeCount())
	}
	if _, err := Flat(0); err == nil {
		t.Error("Flat(0) should fail")
	}
	if _, err := Flat(-3); err == nil {
		t.Error("Flat(-3) should fail")
	}
}

func TestThreeLevelShapeErrors(t *testing.T) {
	if _, err := ThreeLevel(0, 4); err == nil {
		t.Error("ThreeLevel(0,4) should fail")
	}
	if _, err := ThreeLevel(4, 0); err == nil {
		t.Error("ThreeLevel(4,0) should fail")
	}
}

func TestFromFanouts(t *testing.T) {
	h, err := FromFanouts(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Height() != 4 {
		t.Errorf("height = %d, want 4", h.Height())
	}
	if h.LeafCount() != 24 {
		t.Errorf("leaves = %d, want 24", h.LeafCount())
	}
	// Node count: 1 + 2 + 6 + 24 = 33.
	if h.NodeCount() != 33 {
		t.Errorf("nodes = %d, want 33", h.NodeCount())
	}
	if _, err := FromFanouts(); err == nil {
		t.Error("FromFanouts() should fail")
	}
	if _, err := FromFanouts(2, 0); err == nil {
		t.Error("FromFanouts(2,0) should fail")
	}
}

func TestFind(t *testing.T) {
	h := paperFigure3(t)
	if n := h.Find("g1"); n == nil || n.Fanout() != 3 {
		t.Error("Find(g1) failed")
	}
	if n := h.Find("v5"); n == nil || !n.IsLeaf() {
		t.Error("Find(v5) failed")
	}
	if n := h.Find("nope"); n != nil {
		t.Error("Find(nope) should be nil")
	}
}

func TestStringRendering(t *testing.T) {
	h := paperFigure3(t)
	s := h.String()
	if !strings.Contains(s, "Any") || !strings.Contains(s, "[leaves 0..5]") {
		t.Errorf("String() missing expected content:\n%s", s)
	}
	if !strings.Contains(s, "[leaf 0]") {
		t.Errorf("String() missing leaf annotation:\n%s", s)
	}
}

func TestCountriesExample(t *testing.T) {
	// The paper's Figure 1: Any → {North America, South America} →
	// countries. Leaf intervals under each continent must be contiguous.
	root := &Node{Label: "Any", Children: []*Node{
		{Label: "North America", Children: []*Node{
			{Label: "USA"}, {Label: "Canada"},
		}},
		{Label: "South America", Children: []*Node{
			{Label: "Brazil"}, {Label: "Argentina"},
		}},
	}}
	h, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}
	na := h.Find("North America")
	if lo, hi := h.LeafInterval(na); lo != 0 || hi != 1 {
		t.Errorf("North America = [%d,%d], want [0,1]", lo, hi)
	}
	br := h.Find("Brazil")
	if lo, hi := h.LeafInterval(br); lo != 2 || hi != 2 {
		t.Errorf("Brazil = [%d,%d], want [2,2]", lo, hi)
	}
}

// Property: for any complete tree shape, every internal node's leaf
// interval is exactly the union of its children's, and children intervals
// are adjacent (contiguity of the imposed order).
func TestIntervalContiguityQuick(t *testing.T) {
	f := func(f1Raw, f2Raw uint8) bool {
		f1 := int(f1Raw%4) + 1
		f2 := int(f2Raw%5) + 1
		h, err := FromFanouts(f1, f2)
		if err != nil {
			return false
		}
		for _, n := range h.Nodes() {
			if n.IsLeaf() {
				continue
			}
			expect := n.LeafLo
			for _, c := range n.Children {
				if c.LeafLo != expect {
					return false
				}
				expect = c.LeafHi + 1
			}
			if expect != n.LeafHi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: leaves appear after all internal nodes in level order for
// complete trees.
func TestLevelOrderStructureQuick(t *testing.T) {
	f := func(f1Raw, f2Raw uint8) bool {
		f1 := int(f1Raw%3) + 2
		f2 := int(f2Raw%3) + 2
		h, err := FromFanouts(f1, f2)
		if err != nil {
			return false
		}
		// In a complete tree the last LeafCount IDs are exactly the leaves.
		internal := h.NodeCount() - h.LeafCount()
		for i, n := range h.Nodes() {
			wantLeaf := i >= internal
			if n.IsLeaf() != wantLeaf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
