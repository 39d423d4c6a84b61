// Package hierarchy implements the attribute hierarchies the Privelet
// paper attaches to nominal attributes (§II-A, Figure 1).
//
// A hierarchy is a rooted tree in which every leaf is a value of the
// attribute's domain and every internal node summarizes the leaves in its
// subtree. Range-count predicates on a nominal attribute select either a
// single leaf or all leaves under one internal node, which — after the
// hierarchy imposes a left-to-right total order on the leaves — is always
// a contiguous leaf interval (§V-A). The nominal wavelet transform
// (internal/nominal) is driven directly by this tree.
package hierarchy

import (
	"fmt"
	"strings"
)

// Node is one vertex of a hierarchy. Leaves carry a domain value index;
// internal nodes only aggregate. Nodes are created through the builders in
// this package so that the derived indices stay consistent.
type Node struct {
	// Label is a human-readable name ("North America", "USA").
	Label string
	// Children is nil for leaves.
	Children []*Node
	// Parent is nil for the root.
	Parent *Node

	// Leaf bookkeeping, filled in by Build: the contiguous interval
	// [LeafLo, LeafHi] of leaf positions covered by this subtree, in the
	// imposed total order. For a leaf, LeafLo == LeafHi == its position.
	LeafLo, LeafHi int
	// Depth of the node; the root has depth 1 (the paper's level 1).
	Depth int
	// ID is the node's position in a level-order traversal of the tree
	// (root = 0). The nominal wavelet coefficient vector uses this layout.
	ID int
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Fanout returns the number of children of n.
func (n *Node) Fanout() int { return len(n.Children) }

// LeafCount returns the number of leaves under n (inclusive of n if n is a
// leaf).
func (n *Node) LeafCount() int { return n.LeafHi - n.LeafLo + 1 }

// Hierarchy is a validated attribute hierarchy. Obtain one via Build or
// the shape constructors (Flat, ThreeLevel, FromFanouts).
type Hierarchy struct {
	root   *Node
	leaves []*Node // in imposed total order
	nodes  []*Node // level-order: nodes[i].ID == i
	height int     // number of levels; a root-only tree has height 1
}

// Build validates root and computes the derived structure: the imposed
// leaf order, level-order IDs, depths, and the height. It returns an error
// when the tree is malformed:
//
//   - nil root or nil child pointers;
//   - a node reachable twice (the "tree" is a DAG or has a cycle);
//   - leaves at differing depths (Equation 5 of the paper requires every
//     entry to have exactly h−1 proper ancestors, i.e. a balanced tree);
//   - an internal node with a single child is permitted (the nominal
//     transform handles fanout-1 groups as structurally-zero coefficients)
//     but a root with zero leaves is not.
func Build(root *Node) (*Hierarchy, error) {
	if root == nil {
		return nil, fmt.Errorf("hierarchy: nil root")
	}
	h := &Hierarchy{root: root}
	seen := make(map[*Node]bool)

	// Level-order walk assigns IDs and depths and detects sharing.
	queue := []*Node{root}
	root.Depth = 1
	root.Parent = nil
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil {
			return nil, fmt.Errorf("hierarchy: nil node in tree")
		}
		if seen[n] {
			return nil, fmt.Errorf("hierarchy: node %q reachable twice (not a tree)", n.Label)
		}
		seen[n] = true
		n.ID = len(h.nodes)
		h.nodes = append(h.nodes, n)
		if n.Depth > h.height {
			h.height = n.Depth
		}
		for _, c := range n.Children {
			if c == nil {
				return nil, fmt.Errorf("hierarchy: node %q has a nil child", n.Label)
			}
			c.Parent = n
			c.Depth = n.Depth + 1
			queue = append(queue, c)
		}
	}

	// Depth-first walk orders the leaves and assigns leaf intervals.
	var assign func(n *Node) error
	assign = func(n *Node) error {
		if n.IsLeaf() {
			if n.Depth != h.height {
				return fmt.Errorf("hierarchy: leaf %q at depth %d but height is %d (unbalanced)",
					n.Label, n.Depth, h.height)
			}
			n.LeafLo = len(h.leaves)
			n.LeafHi = n.LeafLo
			h.leaves = append(h.leaves, n)
			return nil
		}
		n.LeafLo = len(h.leaves)
		for _, c := range n.Children {
			if err := assign(c); err != nil {
				return err
			}
		}
		n.LeafHi = len(h.leaves) - 1
		if n.LeafHi < n.LeafLo {
			return fmt.Errorf("hierarchy: internal node %q has no leaves", n.Label)
		}
		return nil
	}
	if err := assign(root); err != nil {
		return nil, err
	}
	if len(h.leaves) == 0 {
		return nil, fmt.Errorf("hierarchy: no leaves")
	}
	return h, nil
}

// Root returns the root node.
func (h *Hierarchy) Root() *Node { return h.root }

// Height returns the number of levels in the tree. The paper's utility
// bound for the nominal transform is O(h²/ε²) in this value (§V-C).
func (h *Hierarchy) Height() int { return h.height }

// Leaves returns the leaves in the imposed total order. The slice is owned
// by the hierarchy; callers must not modify it.
func (h *Hierarchy) Leaves() []*Node { return h.leaves }

// LeafCount returns the domain size |A|.
func (h *Hierarchy) LeafCount() int { return len(h.leaves) }

// Nodes returns all nodes in level order (root first). The slice is owned
// by the hierarchy; callers must not modify it.
func (h *Hierarchy) Nodes() []*Node { return h.nodes }

// NodeCount returns the total number of nodes, which is also the number of
// coefficients produced by the nominal wavelet transform (§V-A notes the
// transform is over-complete by the number of internal nodes).
func (h *Hierarchy) NodeCount() int { return len(h.nodes) }

// Find returns the first node with the given label in level order, or nil.
func (h *Hierarchy) Find(label string) *Node {
	for _, n := range h.nodes {
		if n.Label == label {
			return n
		}
	}
	return nil
}

// LeafInterval returns the contiguous interval of leaf positions covered
// by the subtree of node, in the imposed total order. This is how a
// nominal predicate "A ∈ subtree(N)" becomes an ordinal range.
func (h *Hierarchy) LeafInterval(node *Node) (lo, hi int) {
	return node.LeafLo, node.LeafHi
}

// String renders the tree with indentation, for debugging and examples.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		b.WriteString(strings.Repeat("  ", n.Depth-1))
		if n.Label == "" {
			fmt.Fprintf(&b, "#%d", n.ID)
		} else {
			b.WriteString(n.Label)
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, " [leaf %d]", n.LeafLo)
		} else {
			fmt.Fprintf(&b, " [leaves %d..%d]", n.LeafLo, n.LeafHi)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.root)
	return b.String()
}

// Flat returns a two-level hierarchy: a root whose children are n leaves
// labeled "v0".."v(n-1)". This is the natural hierarchy for a nominal
// attribute without published structure (e.g. Gender with h = 2 in the
// paper's Table III).
func Flat(n int) (*Hierarchy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hierarchy: Flat requires n > 0, got %d", n)
	}
	root := &Node{Label: "Any"}
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, &Node{Label: fmt.Sprintf("v%d", i)})
	}
	return Build(root)
}

// ThreeLevel returns a three-level hierarchy with the given number of
// groups, each holding leavesPerGroup leaves — the shape of the paper's
// Occupation attribute (h = 3) and of the synthetic datasets in §VII-B.
func ThreeLevel(groups, leavesPerGroup int) (*Hierarchy, error) {
	if groups <= 0 || leavesPerGroup <= 0 {
		return nil, fmt.Errorf("hierarchy: ThreeLevel requires positive shape, got %d×%d", groups, leavesPerGroup)
	}
	root := &Node{Label: "Any"}
	leaf := 0
	for g := 0; g < groups; g++ {
		grp := &Node{Label: fmt.Sprintf("g%d", g)}
		for l := 0; l < leavesPerGroup; l++ {
			grp.Children = append(grp.Children, &Node{Label: fmt.Sprintf("v%d", leaf)})
			leaf++
		}
		root.Children = append(root.Children, grp)
	}
	return Build(root)
}

// FromFanouts builds a complete tree whose level i (root = level 1) has
// the given fanout; len(fanouts) levels of branching produce a hierarchy
// of height len(fanouts)+1 with ∏fanouts leaves.
func FromFanouts(fanouts ...int) (*Hierarchy, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("hierarchy: FromFanouts requires at least one fanout")
	}
	for _, f := range fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("hierarchy: non-positive fanout %d", f)
		}
	}
	var grow func(depth int) *Node
	leaf := 0
	grow = func(depth int) *Node {
		n := &Node{}
		if depth == len(fanouts) {
			n.Label = fmt.Sprintf("v%d", leaf)
			leaf++
			return n
		}
		for i := 0; i < fanouts[depth]; i++ {
			n.Children = append(n.Children, grow(depth+1))
		}
		return n
	}
	root := grow(0)
	root.Label = "Any"
	return Build(root)
}
