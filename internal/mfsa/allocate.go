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

// bindOne binds a node at its fixed step to the cheapest ALU: an
// existing compatible instance whose footprint is free, or a fresh one,
// each scored as the window walk scores a position.
func (st *state) bindOne(s *sched.Schedule, id dfg.NodeID) error {
	n := st.g.Node(id)
	p, _ := s.At(id)
	st.beginEval(n)
	for _, u := range st.unitsFor(n) {
		// The bound columns and one fresh one: Allocate opens columns in
		// order, so every column up to the last of u.alus is bound.
		cols := min(len(u.alus)+1, u.maxInst)
		if cols < 1 {
			continue
		}
		table := st.tableOf(u)
		table.Grow(cols)
		st.openShapes(cols)
		for idx := 1; idx <= cols; idx++ {
			if q := (grid.Pos{Step: p.Step, Index: idx}); table.CanPlace(st.g, id, q, n.Cycles) {
				st.score(n, u, q)
			}
		}
	}
	if !st.found {
		return fmt.Errorf("mfsa: no ALU for %q at step %d", n.Name, p.Step)
	}
	return st.commit(n, st.best, st.scored)
}
