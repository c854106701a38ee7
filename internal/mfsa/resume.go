package mfsa

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// ResumeCtx re-synthesizes g after a local edit by replaying the recorded
// trajectory of a previous run instead of re-deriving every decision.
// prev is the result of synthesizing the pre-edit graph (its Schedule's
// Graph, Frames and Trace must be the ones MFSA produced); nil replays
// nothing, which is SynthesizeCtx.
//
// The result is always bit-identical to SynthesizeCtx(g, opt) — replay is
// an optimization, never a semantic shortcut, and this is the one run
// path both take. The induction mirrors mfs.ResumeCtx: if the initial
// per-unit instance bounds match the old run's, then as long as each
// trace step's node is structurally equivalent to the new priority
// order's node, its frames match, and its recorded instance-count
// trajectory (MaxJ, Grown, CurrentJ) still holds, the allocator state
// after the prefix — grid occupancy, ALU bindings, mux lists, value
// lifetimes — is identical to the old run's, so the recorded decision IS
// what bestCandidate would derive and it is committed directly. The
// first divergence switches permanently to the full per-node search,
// which from the common state continues exactly as a fresh run would.
// When a precondition fails (no trace — e.g. the previous run had
// NoTrace set —, changed initial bounds, or a changed input set under
// RegisterInputs), the run replays nothing.
func ResumeCtx(ctx context.Context, g *dfg.Graph, opt Options, prev *Result) (*Result, error) {
	opt, unitsByOp, err := prepare(g, opt)
	if err != nil {
		return nil, err
	}
	frames, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
	if err != nil {
		return nil, fmt.Errorf("mfsa: %w", err)
	}
	s := newState(g, opt, frames, unitsByOp)
	steps := s.replayable(prev)
	for i, id := range sched.PriorityOrder(g, frames) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i < len(steps) {
			if s.replayStep(id, &steps[i], prev) {
				continue
			}
			steps = nil // the first divergence ends the replay
		}
		if err := s.placeOne(ctx, id); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// Resume is ResumeCtx without cancellation.
func Resume(g *dfg.Graph, opt Options, prev *Result) (*Result, error) {
	return ResumeCtx(context.Background(), g, opt, prev)
}

// replayable returns the trace steps of prev the run may replay: all of
// them when the induction's preconditions hold against the run's fresh
// initial state, none otherwise.
func (s *state) replayable(prev *Result) []sched.TraceStep {
	if prev == nil || prev.Schedule == nil || prev.Schedule.Trace == nil ||
		prev.Schedule.Frames == nil || prev.Schedule.Graph == nil {
		return nil
	}
	pg := prev.Schedule.Graph
	// RegisterInputs seeds the initial lifetimes in input order.
	if s.opt.RegisterInputs && !slices.Equal(s.g.Inputs(), pg.Inputs()) {
		return nil
	}
	maxInst, current, ok := instanceBounds(pg, s.opt, s.unitsByOp)
	if !ok || !maps.Equal(s.maxInst, maxInst) || !maps.Equal(s.current, current) {
		return nil
	}
	return prev.Schedule.Trace.Steps
}

// replayStep commits the recorded decision st for new-graph node id if
// every equivalence precondition holds; it returns false (leaving the
// allocator untouched) on any mismatch. The replayed trace step is
// lightweight — no candidate set — which lint's candidate-minimality
// audit treats as nothing-to-check and which remains sufficient for a
// future resume.
func (s *state) replayStep(id dfg.NodeID, st *sched.TraceStep, prev *Result) bool {
	n := s.g.Node(id)
	pg := prev.Schedule.Graph
	if int(st.Node) >= pg.Len() || !sched.NodesEquivalent(pg.Node(st.Node), n) {
		return false
	}
	if s.frames[id] != prev.Schedule.Frames[st.Node] {
		return false
	}
	u, ok := s.opt.Lib.Lookup(st.Type)
	if !ok || st.MaxJ != s.maxInst[st.Type] {
		return false
	}
	capable := false
	for _, cu := range s.unitsFor(n) {
		if cu.Name == st.Type {
			capable = true
			break
		}
	}
	if !capable {
		return false
	}
	// Reproduce the recorded local-rescheduling growth; on any later
	// mismatch the increments are reverted so the state stays untouched.
	applied := 0
	grownOK := true
	for _, name := range st.Grown {
		if s.current[name] >= s.maxInst[name] {
			grownOK = false
			break
		}
		s.current[name]++
		applied++
	}
	revert := func() {
		for i := applied - 1; i >= 0; i-- {
			s.current[st.Grown[i]]--
		}
	}
	if !grownOK || st.CurrentJ != s.current[st.Type] ||
		st.Pos.Index < 1 || st.Pos.Index > s.current[st.Type] {
		revert()
		return false
	}
	var grown []string
	if len(st.Grown) > 0 {
		grown = append(grown, st.Grown...) // own the old trace's slice
	}
	// commit performs the grid placement itself (atomic on failure) plus
	// the binding and lifetime bookkeeping a fresh run would do.
	if err := s.commit(n, candidate{unit: u, pos: st.Pos, value: st.Energy}, nil, grown); err != nil {
		revert()
		return false
	}
	return true
}
