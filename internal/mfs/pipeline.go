package mfs

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// FunctionalPartition reports the two-partition view of a functionally
// pipelined schedule from §5.5.2: with cs control steps and latency L the
// paper splits the doubled DFG at step ⌈(cs+L)/2⌉ — DFGp1 holds the
// operations scheduled at or before the split, DFGp2 the rest. The folded
// schedule produced with Options.Latency already satisfies the modular
// resource constraints the two-instance construction enforces; this
// function exposes the partition for reporting and tests.
func FunctionalPartition(s *sched.Schedule) (p1, p2 []dfg.NodeID) {
	if s.Latency <= 0 {
		for _, n := range s.Graph.Nodes() {
			p1 = append(p1, n.ID)
		}
		return p1, nil
	}
	split := (s.CS + s.Latency + 1) / 2
	for _, n := range s.Graph.Nodes() {
		if p, _ := s.At(n.ID); p.Step <= split {
			p1 = append(p1, n.ID)
		} else {
			p2 = append(p2, n.ID)
		}
	}
	sort.Slice(p1, func(i, j int) bool { return p1[i] < p1[j] })
	sort.Slice(p2, func(i, j int) bool { return p2[i] < p2[j] })
	return p1, p2
}

// ExpandPipelined materializes one period of a functionally pipelined
// schedule as the paper's two-instance construction (§5.5.2 step 1): the
// DFG is doubled, the second instance starts L steps after the first,
// and both run on the same functional units over cs+L control steps.
// The expansion carries no Latency annotation, so the ordinary verifier
// checks it with plain (non-modular) resource rules — demonstrating that
// the folded schedule's modulo-L conflict constraints are exactly the
// overlap constraints of two consecutive loop initiations.
func ExpandPipelined(s *sched.Schedule) (*sched.Schedule, error) {
	if s.Latency <= 0 {
		return nil, fmt.Errorf("mfs: ExpandPipelined needs a functionally pipelined schedule")
	}
	g := s.Graph
	double := dfg.New(g.Name + "_x2")
	for _, in := range g.Inputs() {
		if err := double.AddInput(in); err != nil {
			return nil, err
		}
		if err := double.AddInput(in + "#2"); err != nil {
			return nil, err
		}
	}
	// Instance 1 keeps the original signal names; instance 2's signals
	// and inputs carry the "#2" suffix.
	if err := addInstanceWithSuffix(g, double, ""); err != nil {
		return nil, err
	}
	if err := addInstanceWithSuffix(g, double, "#2"); err != nil {
		return nil, err
	}

	out := sched.NewSchedule(double, s.CS+s.Latency)
	out.ClockNs = s.ClockNs
	for typ, on := range s.PipelinedTypes {
		out.PipelinedTypes[typ] = on
	}
	for _, n := range g.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			return nil, fmt.Errorf("mfs: node %q unscheduled", n.Name)
		}
		n1, _ := double.Lookup(n.Name)
		n2, _ := double.Lookup(n.Name + "#2")
		out.Place(n1.ID, p)
		out.Place(n2.ID, sched.Placement{Step: p.Step + s.Latency, Type: p.Type, Index: p.Index})
	}
	if err := out.Verify(nil); err != nil {
		return nil, fmt.Errorf("mfs: pipelined expansion is illegal: %w", err)
	}
	return out, nil
}

// addInstanceWithSuffix copies g's operations into double with every
// signal name suffixed; inputs are assumed to exist already under the
// suffixed names (the empty suffix reuses the shared input names).
func addInstanceWithSuffix(g *dfg.Graph, double *dfg.Graph, suffix string) error {
	inputs := make(map[string]bool)
	for _, in := range g.Inputs() {
		inputs[in] = true
	}
	for _, n := range g.Nodes() {
		if n.IsLoop() {
			return fmt.Errorf("mfs: ExpandPipelined does not support nested loop nodes")
		}
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			if inputs[a] {
				if suffix == "" {
					args[i] = a
				} else {
					args[i] = a + suffix
				}
			} else {
				args[i] = a + suffix
			}
		}
		id, err := double.AddOp(n.Name+suffix, n.Op, args...)
		if err != nil {
			return err
		}
		if err := double.SetCycles(id, n.Cycles); err != nil {
			return err
		}
		if err := double.SetDelayNs(id, n.DelayNs); err != nil {
			return err
		}
		if len(n.Excl) > 0 {
			if err := double.Tag(id, n.Excl...); err != nil {
				return err
			}
		}
	}
	return nil
}
