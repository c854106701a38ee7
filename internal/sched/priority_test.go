package sched_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/mfs"
	"repro/internal/sched"
)

// priorityOrderScan is the historical linear-scan ready-list emission,
// kept as the oracle for the heap rewrite.
func priorityOrderScan(g *dfg.Graph, frames sched.Frames, higher func(a, b dfg.NodeID) bool) []dfg.NodeID {
	out := make([]dfg.NodeID, 0, g.Len())
	pending := make([]int, g.Len())
	var ready []dfg.NodeID
	for _, id := range g.TopoOrder() {
		pending[id] = len(g.Node(id).Preds())
		if pending[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if higher(ready[i], ready[best]) {
				best = i
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, id)
		for _, s := range g.Node(id).Succs() {
			pending[s]--
			if pending[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// TestPriorityOrderMatchesScanOracle re-implements the comparator and the
// historical O(N·W) emission and checks the heap version agrees exactly
// wherever higher() is transitive: all six paper benchmarks (the golden
// compatibility surface) and single-cycle generated graphs. Multicycle
// mixes can enter the §5.3 inverted-rule region where the comparator is
// non-transitive and no comparison order is canonical; those are covered
// by TestPriorityOrderValid instead.
func TestPriorityOrderMatchesScanOracle(t *testing.T) {
	var graphs []*dfg.Graph
	for _, ex := range benchmarks.All() {
		graphs = append(graphs, ex.Graph)
	}
	for seed := int64(0); seed < 4; seed++ {
		g, err := gen.Generate(gen.Config{Nodes: 700, Seed: seed}) // single-cycle ops only
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		cs := g.CriticalPathCycles() + 3
		frames, err := sched.ComputeFrames(g, cs, 0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		got := sched.PriorityOrder(g, frames)
		// The oracle needs the same comparator; rebuild it from the spec.
		earliest := make([]int, g.Len())
		for _, id := range g.TopoOrder() {
			e := 0
			for _, p := range g.Node(id).Preds() {
				if f := frames[p].ASAP + g.Node(p).Cycles - 1; f > e {
					e = f
				}
			}
			earliest[id] = e
		}
		higher := func(a, b dfg.NodeID) bool {
			fa, fb := frames[a], frames[b]
			if fa.ALAP != fb.ALAP {
				return fa.ALAP < fb.ALAP
			}
			na, nb := g.Node(a), g.Node(b)
			ma, mb := fa.Mobility(), fb.Mobility()
			if ma != mb {
				k := na.Cycles
				if nb.Cycles > k {
					k = nb.Cycles
				}
				d := ma - mb
				if d < 0 {
					d = -d
				}
				if k > 1 && d < k {
					return ma > mb
				}
				return ma < mb
			}
			if earliest[a] != earliest[b] {
				return earliest[a] < earliest[b]
			}
			return a < b
		}
		want := priorityOrderScan(g, frames, higher)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: heap order differs from scan oracle", g.Name)
		}
	}
}

// TestPriorityOrderValid checks the structural contract on multicycle
// graphs (where the scan oracle is not canonical): the order is a
// permutation of all nodes, topologically consistent, and deterministic.
func TestPriorityOrderValid(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, err := gen.Generate(gen.Config{Nodes: 700, Seed: seed, MulCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		frames, err := sched.ComputeFrames(g, g.CriticalPathCycles()+3, 0)
		if err != nil {
			t.Fatal(err)
		}
		order := sched.PriorityOrder(g, frames)
		if len(order) != g.Len() {
			t.Fatalf("seed %d: %d nodes emitted, want %d", seed, len(order), g.Len())
		}
		pos := make([]int, g.Len())
		for i := range pos {
			pos[i] = -1
		}
		for i, id := range order {
			if pos[id] != -1 {
				t.Fatalf("seed %d: node %d emitted twice", seed, id)
			}
			pos[id] = i
		}
		for _, n := range g.Nodes() {
			for _, p := range n.Preds() {
				if pos[p] > pos[n.ID] {
					t.Fatalf("seed %d: %d before its predecessor %d", seed, n.ID, p)
				}
			}
		}
		again := sched.PriorityOrder(g, frames)
		if fmt.Sprint(order) != fmt.Sprint(again) {
			t.Fatalf("seed %d: order not deterministic", seed)
		}
	}
}

// TestChainAccAtMatchesChainFits replays a chained schedule in priority
// order and checks the incremental chain accumulator agrees with the
// full-graph ChainFits walk at every placement decision.
func TestChainAccAtMatchesChainFits(t *testing.T) {
	ex := benchmarks.Chained()
	g := ex.Graph
	s, err := mfs.Schedule(g, mfs.Options{CS: 4, ClockNs: ex.ClockNs})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := sched.ComputeFrames(g, s.CS, ex.ClockNs)
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]int, g.Len())
	acc := make([]float64, g.Len())
	for _, id := range sched.PriorityOrder(g, frames) {
		p, _ := s.At(id)
		step := p.Step
		// Probe every step in the node's frame, not just the chosen one.
		for probe := frames[id].ASAP; probe <= frames[id].ALAP; probe++ {
			full := sched.ChainFits(g, ex.ClockNs, placed, id, probe)
			inc := sched.ChainAccAt(g, placed, acc, id, probe) <= ex.ClockNs+1e-9
			if full != inc {
				t.Fatalf("node %s at step %d: ChainFits=%v incremental=%v",
					g.Node(id).Name, probe, full, inc)
			}
		}
		acc[id] = sched.ChainAccAt(g, placed, acc, id, step)
		placed[id] = step
	}
}

// TestPriorityOrderCtxCancelled checks the cancellable variant returns
// the context's error, and the plain one the same order as a live
// context.
func TestPriorityOrderCtxCancelled(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := sched.ComputeFrames(g, g.CriticalPathCycles()+3, 0)
	if err != nil {
		t.Fatal(err)
	}
	order, err := sched.PriorityOrderCtx(context.Background(), g, frames)
	if err != nil || fmt.Sprint(order) != fmt.Sprint(sched.PriorityOrder(g, frames)) {
		t.Fatalf("PriorityOrderCtx = %v, %v; want PriorityOrder's order", len(order), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if order, err := sched.PriorityOrderCtx(ctx, g, frames); !errors.Is(err, context.Canceled) || order != nil {
		t.Fatalf("cancelled PriorityOrderCtx = %d nodes, %v; want nil, context.Canceled", len(order), err)
	}
}
