package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
)

// relabel copies g under the given graph name and seeded fresh signal
// names, keeping its inputs and operations in their original order. The
// copy is a distinct design byte for byte, yet synthesis does exactly
// the same work on it as on g.
//
// The benchmark seeds names, not shapes, because the synthesis cost of
// a random DAG swings by ±30% from one generator seed to the next (and
// as much again when its operations are merely reordered): input sets
// drawn fresh per seed would spread the end-to-end metrics across seeds
// by more than any useful regression bound.
func relabel(g *dfg.Graph, r *rand.Rand, name string) (*dfg.Graph, error) {
	nodes, ins := g.Nodes(), g.Inputs()
	perm := r.Perm(len(ins) + len(nodes))
	rename := make(map[string]string, len(perm))
	for i, in := range ins {
		rename[in] = fmt.Sprintf("s%d", perm[i])
	}
	for i, n := range nodes {
		rename[n.Name] = fmt.Sprintf("s%d", perm[len(ins)+i])
	}
	out := dfg.New(name)
	for _, in := range ins {
		if err := out.AddInput(rename[in]); err != nil {
			return nil, err
		}
	}
	for _, n := range nodes {
		if n.IsLoop() || len(n.Excl) > 0 {
			return nil, fmt.Errorf("relabel %s: node %q: loops and exclusion tags are not supported", g.Name, n.Name)
		}
		args := make([]string, len(n.Args))
		for j, a := range n.Args {
			args[j] = rename[a]
		}
		id, err := out.AddOp(rename[n.Name], n.Op, args...)
		if err != nil {
			return nil, err
		}
		if err := out.SetCycles(id, n.Cycles); err != nil {
			return nil, err
		}
		if err := out.SetDelayNs(id, n.DelayNs); err != nil {
			return nil, err
		}
	}
	return out, nil
}
