package dfg

import "fmt"

// Eval computes every node's output value from concrete primary-input
// values, returning a map from signal name to value. It is the reference
// against which internal/sim cross-checks synthesized datapaths.
//
// Conditional branches are all evaluated (data-flow semantics): a
// mutually-exclusive pair simply produces two values, of which a real
// controller would commit one. Folded loops evaluate their body once per
// the loop-folding model (§5.2), with inner inputs bound from outer
// signals.
func (g *Graph) Eval(inputs map[string]int64) (map[string]int64, error) {
	vals := make([]int64, len(g.src))
	// Sorted, so a missing input is reported the same way whatever order
	// the inputs were declared in.
	for _, in := range g.Inputs() {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("dfg %s: Eval: missing input %q", g.Name, in)
		}
		vals[g.signals[in]] = v
	}
	if err := g.EvalSignals(vals); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(vals))
	for id, v := range vals {
		out[g.SignalName(SignalID(id))] = v
	}
	return out, nil
}

// EvalSignals is Eval over one slot per signal: vals, indexed by
// SignalID and NumSignals long, holds the primary inputs' values on
// entry and every signal's value on return.
func (g *Graph) EvalSignals(vals []int64) error {
	for _, n := range g.nodes { // ID order is topological
		v, err := n.Eval(vals)
		if err != nil {
			return fmt.Errorf("dfg %s: loop %q: %w", g.Name, n.Name, err)
		}
		vals[n.out] = v
	}
	return nil
}

// Eval computes the node's value from vals, indexed by SignalID, which
// must already hold its operands. A folded loop evaluates its body on
// the operands bound to the body's inputs and returns the body's error,
// if any; an operation cannot fail.
func (n *Node) Eval(vals []int64) (int64, error) {
	if n.IsLoop() {
		sub := make(map[string]int64, len(n.SubIns))
		for i, in := range n.SubIns {
			sub[in] = vals[n.args[i]]
		}
		inner, err := n.Sub.Eval(sub)
		if err != nil {
			return 0, err
		}
		return inner[n.SubOut], nil
	}
	var a, b int64
	a = vals[n.args[0]]
	if len(n.args) > 1 {
		b = vals[n.args[1]]
	}
	return n.Op.Eval(a, b), nil
}
