package lint

// dfg_ref_test.go keeps the dfg analyzer as it was before its audit
// moved onto slices by node position: name-keyed maps for the inputs and
// the producers, and NodeID-keyed maps for the cycle search and the
// reachability sweep. It is renamed with a ref prefix and otherwise
// unedited; TestDFGAuditMatchesReference compares the two.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/op"
)

func refRunDFG(ctx context.Context, u *Unit) diag.List {
	g := u.Graph
	if g == nil {
		return nil
	}
	var out diag.List
	report := func(code string, sev diag.Severity, loc, msg, fix string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "dfg",
			Loc: loc, Message: msg, Fix: fix,
		})
	}

	inputs := make(map[string]bool)
	for _, in := range g.Inputs() {
		inputs[in] = true
	}
	// Independent name index: first producer wins, duplicates reported.
	producer := make(map[string]*dfg.Node, g.Len())
	for _, n := range g.Nodes() {
		if n.Name == "" {
			report(diag.CodeDFGEmptyName, diag.Error, fmt.Sprintf("node %d", n.ID),
				fmt.Sprintf("node %d has an empty output-signal name", n.ID),
				"every node must name the signal it produces")
			continue
		}
		if inputs[n.Name] {
			report(diag.CodeDFGDupName, diag.Error, n.Name,
				fmt.Sprintf("node %q shadows a primary input of the same name", n.Name),
				"rename the node or the input")
		}
		if prev, dup := producer[n.Name]; dup {
			report(diag.CodeDFGDupName, diag.Error, n.Name,
				fmt.Sprintf("nodes %d and %d both produce signal %q", prev.ID, n.ID, n.Name),
				"rename one of the nodes")
			continue
		}
		producer[n.Name] = n
	}

	for _, n := range g.Nodes() {
		if n.Cycles < 1 {
			report(diag.CodeDFGBadCycles, diag.Error, n.Name,
				fmt.Sprintf("node %q: cycle count %d, want >= 1", n.Name, n.Cycles),
				"multicycle operations need a positive duration")
		}
		switch {
		case n.IsLoop():
			if n.Op.Valid() {
				report(diag.CodeDFGBadLoop, diag.Error, n.Name,
					fmt.Sprintf("folded loop %q also carries op %v", n.Name, n.Op),
					"a loop node must have no operation kind")
			}
			if n.Sub != nil && n.SubOut != "" {
				if _, ok := n.Sub.Lookup(n.SubOut); !ok {
					report(diag.CodeDFGBadLoop, diag.Error, n.Name,
						fmt.Sprintf("folded loop %q: inner output %q not produced by the sub-graph", n.Name, n.SubOut),
						"SubOut must name a node of the loop body")
				}
			}
		case !n.Op.Valid():
			report(diag.CodeDFGArity, diag.Error, n.Name,
				fmt.Sprintf("node %q has an invalid operation kind", n.Name), "")
		case len(n.Args) != n.Op.Arity():
			report(diag.CodeDFGArity, diag.Error, n.Name,
				fmt.Sprintf("node %q: op %v takes %d operand(s), has %d",
					n.Name, n.Op, n.Op.Arity(), len(n.Args)),
				"match the operand list to the op table arity")
		}
		for _, a := range n.Args {
			if !inputs[a] {
				if _, ok := producer[a]; !ok {
					report(diag.CodeDFGUndefined, diag.Error, n.Name,
						fmt.Sprintf("node %q reads %q, which no input or node produces", n.Name, a),
						"declare the input or add the producing node")
				}
			}
		}
	}

	cycleIDs := refDFGCycleNodes(g, producer)
	for _, id := range cycleIDs {
		n := g.Node(id)
		report(diag.CodeDFGCycle, diag.Error, n.Name,
			fmt.Sprintf("node %q lies on a dataflow cycle", n.Name),
			"break the cycle: a DFG must be acyclic")
	}

	// Cross-link audit: the cached pred set must equal the Args-derived
	// producer set. (Succs mirror preds; Validate checks the back-links.)
	// Both sets are small: compare them as sorted, deduplicated slices
	// in scratch reused across nodes.
	var derived, cached []dfg.NodeID
	for _, n := range g.Nodes() {
		derived = derived[:0]
		for _, a := range n.Args {
			if p, ok := producer[a]; ok {
				derived = append(derived, p.ID)
			}
		}
		derived = idSet(derived)
		cached = idSet(append(cached[:0], n.Preds()...))
		if !slices.Equal(derived, cached) {
			report(diag.CodeDFGCrossLink, diag.Error, n.Name,
				fmt.Sprintf("node %q: cached predecessors %v disagree with Args-derived %v",
					n.Name, cached, derived),
				"the Args relation and the pred/succ cache have diverged")
		}
	}

	// Dead-node sweep: backwards reachability from the declared outputs.
	outputs := u.Outputs
	if len(outputs) == 0 {
		outputs = g.Outputs()
	}
	if len(cycleIDs) == 0 { // reachability is only meaningful on a DAG
		live := make(map[dfg.NodeID]bool)
		var mark func(name string)
		mark = func(name string) {
			p, ok := producer[name]
			if !ok || live[p.ID] {
				return
			}
			live[p.ID] = true
			for _, a := range p.Args {
				mark(a)
			}
		}
		for _, o := range outputs {
			mark(o)
		}
		for _, n := range g.Nodes() {
			if !live[n.ID] {
				report(diag.CodeDFGDeadNode, diag.Warn, n.Name,
					fmt.Sprintf("node %q does not reach any output (%s)", n.Name,
						strings.Join(outputs, ", ")),
					"dead code: remove the node or declare its signal an output")
			}
		}
	}
	return out
}

// refDFGCycleNodes detects cycles in the Args-derived relation (NOT the
// cached links) and returns the IDs of every node on a cycle, sorted.
func refDFGCycleNodes(g *dfg.Graph, producer map[string]*dfg.Node) []dfg.NodeID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[dfg.NodeID]int, g.Len())
	onCycle := make(map[dfg.NodeID]bool)
	// Iterative DFS with a gray-path stack: when an edge reaches a gray
	// node, every node on the path since it is on a cycle.
	var path []dfg.NodeID
	var visit func(n *dfg.Node)
	visit = func(n *dfg.Node) {
		color[n.ID] = gray
		path = append(path, n.ID)
		for _, a := range n.Args {
			p, ok := producer[a]
			if !ok {
				continue
			}
			switch color[p.ID] {
			case white:
				visit(p)
			case gray:
				for i := len(path) - 1; i >= 0; i-- {
					onCycle[path[i]] = true
					if path[i] == p.ID {
						break
					}
				}
			}
		}
		path = path[:len(path)-1]
		color[n.ID] = black
	}
	for _, n := range g.Nodes() {
		if color[n.ID] == white {
			visit(n)
		}
	}
	ids := make([]dfg.NodeID, 0, len(onCycle))
	for id := range onCycle {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestDFGAuditMatchesReference runs the dfg analyzer and the map-based
// one it replaced over clean graphs and over corrupted copies of FACET,
// each breaking the graph the way a buggy rewrite would: dangling or
// retargeted operands, cycles, empty, duplicate and input-shadowing
// names (a node that both shadows an input and duplicates another node
// among them), arity and cycle-count drift, a folded-loop op, and an
// output list that orphans nodes. Both must report the same findings in
// the same order.
func TestDFGAuditMatchesReference(t *testing.T) {
	node := func(g *dfg.Graph, name string) *dfg.Node {
		for _, n := range g.Nodes() {
			if n.Name == name {
				return n
			}
		}
		t.Fatalf("no node %q", name)
		return nil
	}
	corruptions := []struct {
		name string
		edit func(u *Unit)
	}{
		{"clean", func(u *Unit) {}},
		{"dangling operand", func(u *Unit) { node(u.Graph, "mul").Args[0] = "ghost" }},
		{"two dangling operands", func(u *Unit) {
			node(u.Graph, "div").Args[1] = "ghost"
			node(u.Graph, "add1").Args = []string{"ghost", "phantom"}
		}},
		{"cycle", func(u *Unit) { node(u.Graph, "add1").Args[0] = "and" }},
		{"two cycles", func(u *Unit) {
			node(u.Graph, "add1").Args[0] = "and"
			node(u.Graph, "add2").Args[1] = "or"
		}},
		{"self loop", func(u *Unit) { node(u.Graph, "sub").Args[1] = "sub" }},
		{"retargeted operand", func(u *Unit) { node(u.Graph, "or").Args[1] = "add2" }},
		{"repeated operand", func(u *Unit) { node(u.Graph, "mul").Args[1] = "add1" }},
		{"empty name", func(u *Unit) { node(u.Graph, "sub").Name = "" }},
		{"duplicate name", func(u *Unit) { node(u.Graph, "sub").Name = "div" }},
		{"shadowed input", func(u *Unit) { node(u.Graph, "and").Name = "i7" }},
		{"shadowed input and duplicate", func(u *Unit) {
			node(u.Graph, "div").Name = "i5"
			node(u.Graph, "sub").Name = "i5"
		}},
		{"arity drift", func(u *Unit) { n := node(u.Graph, "div"); n.Args = n.Args[:1] }},
		{"invalid op", func(u *Unit) { node(u.Graph, "and").Op = op.Invalid }},
		{"zero cycles", func(u *Unit) { node(u.Graph, "mul").Cycles = 0 }},
		{"dead nodes", func(u *Unit) { u.Outputs = []string{"and"} }},
		{"unknown output", func(u *Unit) { u.Outputs = []string{"and", "nothing"} }},
	}
	ctx := context.Background()
	for _, c := range corruptions {
		u := &Unit{Graph: benchmarks.Facet().Graph}
		c.edit(u)
		if got, want := listText(runDFG(ctx, u)), listText(refRunDFG(ctx, u)); got != want {
			t.Errorf("%s: audit reports\n%s\nreference reports\n%s", c.name, got, want)
		}
	}
	var clean []*dfg.Graph
	for _, ex := range benchmarks.All() {
		clean = append(clean, ex.Graph)
	}
	g, err := gen.Generate(gen.Config{Nodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append(clean, g) {
		u := &Unit{Graph: g}
		if got, want := listText(runDFG(ctx, u)), listText(refRunDFG(ctx, u)); got != want {
			t.Errorf("%s: audit reports\n%s\nreference reports\n%s", g.Name, got, want)
		}
	}
}
