package dfg

import "fmt"

// MergeExclusiveDuplicates implements the conditional-statement
// optimization of §5.1: operations that appear in more than one branch of
// the same conditional with identical inputs are redundant — only one copy
// is kept, since mutually exclusive branches can always share the unit.
//
// Two nodes are merged when they are mutually exclusive, have the same
// operation kind and cycle count, and read the same argument lists
// (order-insensitively for commutative operations). The survivor (the
// lower-ID node) takes over the duplicate's consumers, and its exclusion
// tags are reduced to the tags the two copies share, so the merged
// operation is treated as common to both branches.
//
// The method returns a new graph (the receiver is left untouched) together
// with the number of operations removed. A rebuild failure — possible
// only if the receiver itself was malformed — is returned as an error
// instead of panicking.
func (g *Graph) MergeExclusiveDuplicates() (*Graph, int, error) {
	replace := make(map[string]string) // dropped signal -> surviving signal
	drop := make(map[NodeID]bool)
	keepTags := make(map[NodeID][]CondTag)

	nodes := g.Nodes()
	for i := 0; i < len(nodes); i++ {
		if drop[nodes[i].ID] {
			continue
		}
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			if drop[b.ID] || !g.MutuallyExclusive(a.ID, b.ID) {
				continue
			}
			if !sameComputation(a, b, replace) {
				continue
			}
			drop[b.ID] = true
			replace[b.Name] = resolved(a.Name, replace)
			keepTags[a.ID] = commonTags(a.Excl, b.Excl)
		}
	}
	if len(drop) == 0 {
		return g.Clone(), 0, nil
	}

	out := NewSized(g.Name, len(g.ins), len(nodes)-len(drop))
	for _, in := range g.Inputs() {
		if err := out.AddInput(in); err != nil {
			return nil, 0, fmt.Errorf("dfg: merge rebuild of %s: %w", g.Name, err)
		}
	}
	for _, n := range nodes {
		if drop[n.ID] {
			continue
		}
		args := make([]string, len(n.Args))
		for k, a := range n.Args {
			args[k] = resolved(a, replace)
		}
		var id NodeID
		var err error
		if n.IsLoop() {
			binds := make(map[string]string, len(n.SubIns))
			for k, in := range n.SubIns {
				binds[in] = args[k]
			}
			id, err = out.AddLoop(n.Name, n.Sub, n.SubOut, binds)
		} else {
			id, err = out.AddOp(n.Name, n.Op, args...)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("dfg: merge rebuild of %s: node %q: %w", g.Name, n.Name, err)
		}
		nn := out.Node(id)
		nn.Cycles = n.Cycles
		nn.DelayNs = n.DelayNs
		if tags, ok := keepTags[n.ID]; ok {
			nn.Excl = append([]CondTag(nil), tags...)
		} else {
			nn.Excl = append([]CondTag(nil), n.Excl...)
		}
	}
	return out, len(drop), nil
}

// sameComputation reports whether a and b compute the same value: same op,
// same cycle count, and argument lists equal after resolving prior merges,
// allowing a swap for commutative ops. Loop nodes never merge.
func sameComputation(a, b *Node, replace map[string]string) bool {
	if a.IsLoop() || b.IsLoop() {
		return false
	}
	if a.Op != b.Op || a.Cycles != b.Cycles || len(a.Args) != len(b.Args) {
		return false
	}
	ra := make([]string, len(a.Args))
	rb := make([]string, len(b.Args))
	for i := range a.Args {
		ra[i] = resolved(a.Args[i], replace)
		rb[i] = resolved(b.Args[i], replace)
	}
	if equalStrings(ra, rb) {
		return true
	}
	if a.Op.Commutative() && len(ra) == 2 && ra[0] == rb[1] && ra[1] == rb[0] {
		return true
	}
	return false
}

func resolved(name string, replace map[string]string) string {
	for {
		r, ok := replace[name]
		if !ok {
			return name
		}
		name = r
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func commonTags(a, b []CondTag) []CondTag {
	var out []CondTag
	for _, ta := range a {
		for _, tb := range b {
			if ta == tb {
				out = append(out, ta)
			}
		}
	}
	return out
}
