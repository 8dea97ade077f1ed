package san

import (
	"fmt"
	"strings"
)

// Qualify joins a namespace prefix and a local name into a hierarchical
// place/activity name.
func Qualify(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "/" + name
}

// ReplicateBuilder builds instance index of a replicated submodel.
type ReplicateBuilder func(m *Model, prefix string, index int) error

// Replicate composes n identical copies of a submodel, namespaced
// "<prefix>[i]". Shared places — the shared state variables of a Möbius
// Join node — are the ones the builder captures from the enclosing scope
// rather than creates per instance.
func Replicate(m *Model, prefix string, n int, build ReplicateBuilder) error {
	if n < 0 {
		return fmt.Errorf("san: replicate %q with negative count %d", prefix, n)
	}
	for i := 0; i < n; i++ {
		if err := build(m, fmt.Sprintf("%s[%d]", prefix, i), i); err != nil {
			return fmt.Errorf("san: replicate %q instance %d: %w", prefix, i, err)
		}
	}
	return nil
}

// CompositionNode describes one node of a replicate/join composition tree,
// used to render the model structure (the paper's Figure 1).
type CompositionNode struct {
	Label    string
	Kind     string // "join", "replicate", "atomic"
	Count    int    // meaningful for replicate nodes
	Children []*CompositionNode
	// Annotation, when non-empty, is rendered after the node header — model
	// builders use it to mark lumped replicate nodes and to attach the
	// model_stats view to the root.
	Annotation string
}

// Annotate sets the node annotation and returns the node for chaining.
func (n *CompositionNode) Annotate(a string) *CompositionNode {
	n.Annotation = a
	return n
}

// NewJoinNode returns a join composition node.
func NewJoinNode(label string, children ...*CompositionNode) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "join", Children: children}
}

// NewReplicateNode returns a replicate composition node over a single child.
func NewReplicateNode(label string, count int, child *CompositionNode) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "replicate", Count: count, Children: []*CompositionNode{child}}
}

// NewAtomicNode returns a leaf node for an atomic SAN submodel.
func NewAtomicNode(label string) *CompositionNode {
	return &CompositionNode{Label: label, Kind: "atomic"}
}

// Render returns an indented textual rendering of the composition tree.
func (n *CompositionNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *CompositionNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	suffix := ""
	if n.Annotation != "" {
		suffix = " " + n.Annotation
	}
	switch n.Kind {
	case "replicate":
		fmt.Fprintf(b, "Replicate(%s, n=%d)%s\n", n.Label, n.Count, suffix)
	case "join":
		fmt.Fprintf(b, "Join(%s)%s\n", n.Label, suffix)
	default:
		fmt.Fprintf(b, "SAN(%s)%s\n", n.Label, suffix)
	}
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Leaves returns the atomic submodel labels in depth-first order.
func (n *CompositionNode) Leaves() []string {
	if n.Kind == "atomic" {
		return []string{n.Label}
	}
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}
