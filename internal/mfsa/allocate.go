package mfsa

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/sched"
)

// Allocate binds an externally produced schedule (MFS, force-directed,
// list-scheduled, ...) to a datapath using MFSA's cost machinery with
// the time dimension frozen: every operation keeps its control step and
// only the ALU choice is optimized (incremental ALU + MUX + REG terms,
// §4.1 without f^TIME). This is the "independent phases" flow the
// paper's introduction argues against; the experiments package compares
// it with full MFSA to reproduce that motivation quantitatively.
//
// The input schedule's FU types are ignored; only steps matter. Style
// and weights behave as in Synthesize.
func Allocate(s *sched.Schedule, opt Options) (*Result, error) {
	return AllocateCtx(context.Background(), s, opt)
}

// AllocateCtx is Allocate with cancellation: ctx is checked before every
// binding decision, so a cancelled run returns ctx.Err() within one
// operation's worth of work.
func AllocateCtx(ctx context.Context, s *sched.Schedule, opt Options) (*Result, error) {
	g := s.Graph
	opt.CS, opt.ClockNs, opt.Latency = s.CS, s.ClockNs, s.Latency
	opt, err := prepare(g, opt)
	if err != nil {
		return nil, err
	}
	// The binder never consults frames.
	st := newState(g, opt, nil)
	for _, id := range allocationOrder(s) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, ok := s.At(id); !ok {
			return nil, fmt.Errorf("mfsa: node %q unscheduled", g.Node(id).Name)
		}
		if err := st.bindOne(s, id); err != nil {
			return nil, err
		}
	}
	return st.finish()
}

// allocationOrder visits operations by start step (then ID), so reuse
// decisions see a growing prefix of the timeline.
func allocationOrder(s *sched.Schedule) []dfg.NodeID {
	ids := make([]dfg.NodeID, 0, s.Graph.Len())
	for _, n := range s.Graph.Nodes() {
		ids = append(ids, n.ID)
	}
	step := func(id dfg.NodeID) int {
		p, _ := s.At(id)
		return p.Step
	}
	sort.Slice(ids, func(i, j int) bool {
		if si, sj := step(ids[i]), step(ids[j]); si != sj {
			return si < sj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// bindOne chooses the cheapest ALU instance for a fixed (node, step):
// reuse an existing compatible instance if its footprint is free, else
// open the cheapest new one.
func (st *state) bindOne(s *sched.Schedule, id dfg.NodeID) error {
	n := st.g.Node(id)
	st.beginEval(n)
	p, _ := s.At(id)
	step := p.Step
	units := st.unitsFor(n)
	var best candidate
	evaluated := st.candBuf[:0] // commit copies what it keeps
	found := false
	consider := func(u *unit, idx int) {
		table := st.tableOf(u)
		p := grid.Pos{Step: step, Index: idx}
		if !table.CanPlace(st.g, id, p, n.Cycles) {
			return
		}
		if a, _ := st.column(u, idx); st.opt.Style == Style2 && neighborsOnALU(n, a) {
			return
		}
		v := st.value(n, u, p)
		c := candidate{unit: u, pos: p, value: v}
		if !st.opt.NoTrace {
			evaluated = append(evaluated, traceCandidate(u, p, v))
		}
		if !found || less(c, best) {
			best, found = c, true
		}
	}
	for _, u := range units {
		// Existing instances plus one fresh column per unit type: the
		// highest bound column is the last of u.alus.
		limit := len(u.alus) + 1
		if lim, ok := st.opt.Limits[u.Name]; ok && limit > lim {
			limit = lim
		}
		limit = min(limit, u.maxInst)
		if limit >= 1 {
			st.tableOf(u).Grow(limit) // consider probes indexes 1..limit
		}
		st.beginUnitEval(limit) // value()'s column-term memo scope
		for idx := 1; idx <= limit; idx++ {
			consider(u, idx)
		}
	}
	st.candBuf = evaluated
	if !found {
		return fmt.Errorf("mfsa: no ALU for %q at step %d", n.Name, step)
	}
	return st.commit(n, best, evaluated)
}
