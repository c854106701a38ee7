// Package sim executes synthesized designs cycle by cycle and
// cross-checks them against the data-flow graph's reference evaluation.
// It is the repository's end-to-end verification substrate: Run drives a
// schedule (checking that every operand is ready when read — multicycle
// completion times and chaining included), RunRTL additionally walks the
// bound datapath (checking that every cross-step operand is actually held
// in an allocated register for the whole time it is needed), and
// CrossCheck compares the results with the graph's reference evaluation
// (dfg.Graph.EvalSignals) on the same inputs.
//
// Every entry point first compiles a plan of the work that does not
// depend on input values — the step budget, the sorted inputs, the issue
// order and the legality of every operand read — and then runs each
// vector over one value slot per signal, so verifying a design costs
// time linear in its size per vector.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// Run simulates a schedule: control steps advance from 1 to CS, every
// operation starting in a step reads its operands and produces its value
// at the end of its finish step. It returns every signal's value.
func Run(s *sched.Schedule, inputs map[string]int64) (map[string]int64, error) {
	return RunCtx(context.Background(), s, inputs)
}

// RunCtx is Run with cancellation: ctx is checked before every operation,
// so a cancelled simulation returns ctx.Err() within one operation's
// worth of work.
func RunCtx(ctx context.Context, s *sched.Schedule, inputs map[string]int64) (map[string]int64, error) {
	return compile(s, nil).values(ctx, inputs)
}

// RunRTL simulates a schedule against its bound datapath, additionally
// verifying register coverage: any operand read after its producing step
// must sit in an allocated register whose lifetime covers the read.
func RunRTL(s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) (map[string]int64, error) {
	return RunRTLCtx(context.Background(), s, dp, inputs)
}

// RunRTLCtx is RunRTL with cancellation.
func RunRTLCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) (map[string]int64, error) {
	if dp == nil {
		return nil, fmt.Errorf("sim: nil datapath")
	}
	return compile(s, dp).values(ctx, inputs)
}

// plan is the part of simulating a schedule that does not depend on the
// input values, compiled once per call from the schedule and, when there
// is one, the datapath. It is never cached on either: lint's mutations
// edit both in place.
type plan struct {
	g *dfg.Graph

	// budget, when non-nil, is the step-budget error a simulation reports
	// before anything else; order is then left empty.
	budget error

	// names are the primary inputs in sorted order, ins their signals.
	names []string
	ins   []dfg.SignalID

	// order is the issue order: by start step, then topologically within
	// a step (for chained operations), then by ID.
	order []*dfg.Node

	// fail is the position in order of the first node that is unscheduled
	// or reads an operand illegally, whatever the inputs, and failErr is
	// the error it raises; fail is len(order) when every read is legal.
	fail    int
	failErr error
}

// compile builds the plan of simulating s, checking register coverage
// against dp when it is non-nil.
func compile(s *sched.Schedule, dp *rtl.Datapath) *plan {
	g := s.Graph
	p := &plan{g: g, names: g.Inputs()}
	p.ins = make([]dfg.SignalID, len(p.names))
	for k, name := range p.names {
		p.ins[k], _ = g.Signal(name)
	}
	// Step budget: a degenerate schedule (say an operation declared to
	// take a billion cycles) must fail fast with a typed error, not hang
	// the simulator. The budget counts node-cycles, so it scales with
	// design size but rejects absurd single operations.
	budget := 0
	for _, n := range g.Nodes() {
		if budget += max(n.Cycles, 1); budget > guard.DefaultSimBudget {
			p.budget = fmt.Errorf("sim: %w",
				&guard.LimitError{What: "simulation node-cycles", Got: budget, Max: guard.DefaultSimBudget})
			return p
		}
	}

	step := make([]int, g.Len())
	placed := make([]bool, g.Len())
	for i := range step {
		pl, ok := s.At(dfg.NodeID(i))
		step[i], placed[i] = pl.Step, ok
	}
	// ID order is topological, so sorting by (step, ID) is the stable
	// sort by step of the topological order.
	p.order = slices.Clone(g.Nodes())
	slices.SortFunc(p.order, func(a, b *dfg.Node) int {
		return cmp.Or(cmp.Compare(step[a.ID], step[b.ID]), cmp.Compare(a.ID, b.ID))
	})

	var cov *rtl.Coverage
	if dp != nil {
		cov = dp.Coverage(g)
	}
	// readyAt[sig] is the finish step of sig's producer (0 for an input),
	// valid once ready[sig]: the walk issues producers before it marks
	// them ready, exactly as a simulation does.
	readyAt := make([]int, g.NumSignals())
	ready := make([]bool, g.NumSignals())
	for _, id := range p.ins {
		ready[id] = true
	}
	p.fail = len(p.order)
	for i, n := range p.order {
		if !placed[n.ID] {
			p.fail, p.failErr = i, fmt.Errorf("sim: node %q unscheduled", n.Name)
			break
		}
		t := step[n.ID]
		if err := readError(s, cov, n, t, readyAt, ready); err != nil {
			p.fail, p.failErr = i, err
			break
		}
		readyAt[n.OutID()] = t + n.Cycles - 1
		ready[n.OutID()] = true
	}
	return p
}

// readError returns the error of node n, issued in step t, reading its
// first illegal operand, or nil when every read is legal. An operand is
// legal when it is ready before t — a node-produced value crossing a
// step boundary must then also sit in a register over the whole span,
// when cov is non-nil (primary inputs are stable ports) — or when it is
// chained: ready in t itself under a clock budget, read by a
// single-cycle operation. It is illegal when it never becomes ready
// before n issues or becomes ready only after t.
func readError(s *sched.Schedule, cov *rtl.Coverage, n *dfg.Node, t int, readyAt []int, ready []bool) error {
	for i, a := range n.ArgIDs() {
		if !ready[a] {
			return fmt.Errorf("sim: node %q reads %q which never becomes ready", n.Name, n.Args[i])
		}
		r := readyAt[a]
		switch {
		case r < t:
			if cov != nil && s.Graph.Producer(a) != nil && !cov.Covers(a, r, t) {
				return fmt.Errorf("sim: node %q reads %q at step %d but no register holds it over [%d,%d]",
					n.Name, n.Args[i], t, r, t)
			}
		case r == t && s.ClockNs > 0 && n.Cycles == 1:
			// Chained within the step; combinational, no register.
		default:
			return fmt.Errorf("sim: node %q at step %d reads %q which is ready only at step %d",
				n.Name, t, n.Args[i], r)
		}
	}
	return nil
}

// load copies the named input values into their slots of vals. It
// returns the first missing input, in sorted order, and false when one
// is missing.
func (p *plan) load(inputs map[string]int64, vals []int64) (string, bool) {
	for k, id := range p.ins {
		v, ok := inputs[p.names[k]]
		if !ok {
			return p.names[k], false
		}
		vals[id] = v
	}
	return "", true
}

// exec simulates one vector in issue order: vals holds the inputs in
// their slots on entry and every signal's simulated value on success.
// ctx is checked before every operation.
func (p *plan) exec(ctx context.Context, vals []int64) error {
	done := ctx.Done()
	for i, n := range p.order {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if i == p.fail {
			return p.failErr
		}
		v, err := n.Eval(vals)
		if err != nil {
			return fmt.Errorf("sim: loop %q: %w", n.Name, err)
		}
		vals[n.OutID()] = v
	}
	return nil
}

// run simulates the named inputs into vals, one slot per signal.
func (p *plan) run(ctx context.Context, inputs map[string]int64, vals []int64) error {
	if p.budget != nil {
		return p.budget
	}
	if name, ok := p.load(inputs, vals); !ok {
		return fmt.Errorf("sim: missing input %q", name)
	}
	return p.exec(ctx, vals)
}

// values simulates the named inputs and returns every signal's value by
// name.
func (p *plan) values(ctx context.Context, inputs map[string]int64) (map[string]int64, error) {
	vals := make([]int64, p.g.NumSignals())
	if err := p.run(ctx, inputs, vals); err != nil {
		return nil, err
	}
	return p.named(vals), nil
}

// named maps a slot per signal to values by signal name.
func (p *plan) named(vals []int64) map[string]int64 {
	out := make(map[string]int64, len(vals))
	for id, v := range vals {
		out[p.g.SignalName(dfg.SignalID(id))] = v
	}
	return out
}

// check cross-checks one vector: want holds the inputs in their slots on
// entry, the reference fills its node slots, the simulation fills got's,
// and the first node (in ID order) whose values differ is reported.
func (p *plan) check(ctx context.Context, want, got []int64) error {
	copy(got, want)
	if err := p.g.EvalSignals(want); err != nil {
		return fmt.Errorf("sim: reference: %w", err)
	}
	if p.budget != nil {
		return p.budget
	}
	if err := p.exec(ctx, got); err != nil {
		return err
	}
	for _, n := range p.g.Nodes() {
		if v, w := got[n.OutID()], want[n.OutID()]; v != w {
			return fmt.Errorf("sim: %q = %d, reference says %d", n.Name, v, w)
		}
	}
	return nil
}

// CrossCheck simulates the schedule (and datapath, if non-nil) on one
// input vector and compares every node's value against the reference
// evaluator. It returns the first mismatch. It is the historical
// one-vector signature; CrossCheckSeedsCtx drives it over N
// reproducible vectors.
func CrossCheck(s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) error {
	return CrossCheckCtx(context.Background(), s, dp, inputs)
}

// CrossCheckCtx is CrossCheck with cancellation.
func CrossCheckCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) error {
	p := compile(s, dp)
	want := make([]int64, s.Graph.NumSignals())
	if _, ok := p.load(inputs, want); !ok {
		// A missing input fails the reference first; it words the error.
		_, err := s.Graph.Eval(inputs)
		return fmt.Errorf("sim: reference: %w", err)
	}
	return p.check(ctx, want, make([]int64, len(want)))
}

// DefaultCrossCheckSeeds is how many reproducible random vectors
// CrossCheckSeedsCtx drives when the caller passes n <= 0.
const DefaultCrossCheckSeeds = 8

// CrossCheckSeedsCtx cross-checks the schedule (and datapath, if
// non-nil) on n reproducible random input vectors (seeds 1..n; n <= 0
// selects DefaultCrossCheckSeeds). overrides, when non-nil, pins
// selected inputs to fixed values on every vector — the core layer uses
// it to hold literal constants at their declared values. The error
// names the failing seed so a report reproduces with RandomInputs.
func CrossCheckSeedsCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, n int, overrides map[string]int64) error {
	if n <= 0 {
		n = DefaultCrossCheckSeeds
	}
	p := compile(s, dp)
	want := make([]int64, s.Graph.NumSignals())
	got := make([]int64, len(want))
	for seed := 1; seed <= n; seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.random(want, int64(seed), overrides)
		if err := p.check(ctx, want, got); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// random loads RandomInputs(g, seed) into the input slots of vals,
// except that an input overrides names takes the value it gives.
func (p *plan) random(vals []int64, seed int64, overrides map[string]int64) {
	for k, id := range p.ins {
		v, ok := overrides[p.names[k]]
		if !ok {
			v = inputValue(seed, k)
		}
		vals[id] = v
	}
}

// RandomInputs generates reproducible input values for a graph: each
// lies in [-100, 100] and is a function of the seed and the input's
// position among the graph's sorted input names alone, so no random
// source is built per vector. The values differ from those of earlier
// versions, which drew them from a math/rand source seeded per vector.
func RandomInputs(g *dfg.Graph, seed int64) map[string]int64 {
	names := g.Inputs()
	in := make(map[string]int64, len(names))
	for k, name := range names {
		in[name] = inputValue(seed, k)
	}
	return in
}

// inputValue is the k-th sorted input's value under seed: the k-th
// output of a SplitMix64 stream started at seed, mapped onto [-100, 100]
// by a multiply-high.
func inputValue(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	hi, _ := bits.Mul64(z, 201)
	return int64(hi) - 100
}
