package lint

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dfg"
	"repro/internal/diag"
)

// dfgAnalyzer re-derives the dataflow relation from each node's Args —
// deliberately ignoring the graph's cached pred/succ links — so it
// catches corruption the construction-time invariants can no longer
// see: dangling edges, cycles introduced by argument rewrites, dead
// nodes, arity drift against the op table, and stale cross-links.
var dfgAnalyzer = &Analyzer{
	Name: "dfg",
	Doc:  "dataflow-graph well-formedness: dangling edges, cycles, dead nodes, arity, cross-links",
	Run:  runDFG,
}

func runDFG(ctx context.Context, u *Unit) diag.List {
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

	// Independent name index, from the inputs and the node names alone:
	// each name's first producer (first wins, duplicates reported) and
	// whether an input carries it. Producers are positions in Nodes(),
	// which is in ID order.
	ins := g.Inputs()
	nodes := g.Nodes()
	index := make(map[string]nameEntry, len(ins)+len(nodes))
	for _, in := range ins {
		index[in] = nameEntry{producer: noProducer, input: true}
	}
	for i, n := range nodes {
		if n.Name == "" {
			report(diag.CodeDFGEmptyName, diag.Error, fmt.Sprintf("node %d", n.ID),
				fmt.Sprintf("node %d has an empty output-signal name", n.ID),
				"every node must name the signal it produces")
			continue
		}
		e, ok := index[n.Name]
		if !ok {
			e.producer = noProducer
		}
		if e.input {
			report(diag.CodeDFGDupName, diag.Error, n.Name,
				fmt.Sprintf("node %q shadows a primary input of the same name", n.Name),
				"rename the node or the input")
		}
		if e.producer != noProducer {
			report(diag.CodeDFGDupName, diag.Error, n.Name,
				fmt.Sprintf("nodes %d and %d both produce signal %q", nodes[e.producer].ID, n.ID, n.Name),
				"rename one of the nodes")
			continue
		}
		e.producer = int32(i)
		index[n.Name] = e
	}

	// Every Args name resolves once, in node order, into a flat table:
	// node i reads the producers prods[off[i]:off[i+1]], noProducer
	// standing for an input or an undefined name.
	nArgs := 0
	for _, n := range nodes {
		nArgs += len(n.Args)
	}
	prods := make([]int, 0, nArgs)
	off := make([]int, len(nodes)+1)
	for i, n := range nodes {
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
			e, ok := index[a]
			if !ok {
				e.producer = noProducer
				report(diag.CodeDFGUndefined, diag.Error, n.Name,
					fmt.Sprintf("node %q reads %q, which no input or node produces", n.Name, a),
					"declare the input or add the producing node")
			}
			prods = append(prods, int(e.producer))
		}
		off[i+1] = len(prods)
	}
	reads := func(i int) []int { return prods[off[i]:off[i+1]] }

	onCycle := dfgCycleNodes(len(nodes), reads)
	for _, i := range onCycle {
		n := nodes[i]
		report(diag.CodeDFGCycle, diag.Error, n.Name,
			fmt.Sprintf("node %q lies on a dataflow cycle", n.Name),
			"break the cycle: a DFG must be acyclic")
	}

	// Cross-link audit: the cached pred set must equal the Args-derived
	// producer set. (Succs mirror preds; Validate checks the back-links.)
	// Both sets are small: compare them as sorted, deduplicated slices
	// in scratch reused across nodes.
	var derived, cached []dfg.NodeID
	for i, n := range nodes {
		derived = derived[:0]
		for _, p := range reads(i) {
			if p != noProducer {
				derived = append(derived, nodes[p].ID)
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
	if len(onCycle) == 0 { // reachability is only meaningful on a DAG
		live := make([]bool, len(nodes))
		var mark func(i int)
		mark = func(i int) {
			if i == noProducer || live[i] {
				return
			}
			live[i] = true
			for _, p := range reads(i) {
				mark(p)
			}
		}
		for _, o := range outputs {
			if e, ok := index[o]; ok {
				mark(int(e.producer))
			}
		}
		for i, n := range nodes {
			if !live[i] {
				report(diag.CodeDFGDeadNode, diag.Warn, n.Name,
					fmt.Sprintf("node %q does not reach any output (%s)", n.Name,
						strings.Join(outputs, ", ")),
					"dead code: remove the node or declare its signal an output")
			}
		}
	}
	return out
}

// nameEntry is one name of the dfg audit's index: the position of the
// first node that produces it (noProducer: none) and whether an input
// carries it.
type nameEntry struct {
	producer int32
	input    bool
}

// noProducer is the producer of a name no node produces.
const noProducer = -1

// dfgCycleNodes detects cycles in the Args-derived relation (NOT the
// cached links) over n nodes, where node i reads the producers
// reads(i), and returns the positions of every node on a cycle, in
// order.
func dfgCycleNodes(n int, reads func(int) []int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	onCycle := make([]bool, n)
	// Depth-first search with a gray-path stack: when an edge reaches a
	// gray node, every node on the path since it is on a cycle.
	var path []int
	var visit func(i int)
	visit = func(i int) {
		color[i] = gray
		path = append(path, i)
		for _, p := range reads(i) {
			if p == noProducer {
				continue
			}
			switch color[p] {
			case white:
				visit(p)
			case gray:
				for i := len(path) - 1; i >= 0; i-- {
					onCycle[path[i]] = true
					if path[i] == p {
						break
					}
				}
			}
		}
		path = path[:len(path)-1]
		color[i] = black
	}
	for i := range n {
		if color[i] == white {
			visit(i)
		}
	}
	var on []int
	for i, c := range onCycle {
		if c {
			on = append(on, i)
		}
	}
	return on
}

// idSet sorts ids and drops repeats, in place.
func idSet(ids []dfg.NodeID) []dfg.NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
