package mfs

import (
	"context"
	"maps"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// ResumeCtx re-schedules g after a local edit by replaying the recorded
// trajectory of a previous run instead of re-deriving every decision.
// prev is the schedule of the pre-edit graph (its Graph, Frames and
// Trace fields must be the ones the scheduler produced).
//
// The result is always bit-identical to ScheduleCtx(g, opt) — replay is
// an optimization, never a semantic shortcut. The run is ScheduleCtx's
// own: same frames, same bounds, same placement loop. It rests on an
// induction: if the fresh run's initial bounds (max_j/current_j) match
// the old run's, then as long as each trace step's node matches the new
// priority order's node (structural equivalence), its frames match, and
// its max_j still holds, the scheduler state after the prefix is
// identical to the old run's — so the recorded decision IS what
// placeOne would derive, and it is committed directly: no window walk,
// no energy comparison. The first divergence switches permanently to
// placeOne, which from the common state continues exactly as a fresh
// run would. When a precondition fails (no trace — e.g. the previous
// run had NoTrace set —, a widened previous run, resource-constrained
// mode, or changed initial bounds), the run replays nothing.
func ResumeCtx(ctx context.Context, g *dfg.Graph, opt Options, prev *sched.Schedule) (*sched.Schedule, error) {
	return schedule(ctx, g, opt, prev)
}

// Resume is ResumeCtx without cancellation.
func Resume(g *dfg.Graph, opt Options, prev *sched.Schedule) (*sched.Schedule, error) {
	return ResumeCtx(context.Background(), g, opt, prev)
}

// replayable returns the trace steps of prev the run may replay: all of
// them when the induction's preconditions hold against the run's fresh
// initial state, none otherwise.
func (s *scheduler) replayable(prev *sched.Schedule) []sched.TraceStep {
	if prev == nil || prev.Trace == nil || prev.Frames == nil || prev.Graph == nil {
		return nil
	}
	old := &scheduler{
		g: prev.Graph, cs: s.cs, opt: s.opt,
		frames:  prev.Frames,
		maxj:    make(map[string]int),
		current: make(map[string]int),
	}
	old.initBounds()
	if !maps.Equal(s.maxj, old.maxj) || !maps.Equal(s.current, old.current) {
		return nil
	}
	// A widened previous run (scheduleTimeConstrained's retry loop)
	// started from larger bounds than the recomputation above, so its
	// decisions — for every type, not only the widened ones — were taken
	// under a different Liapunov normalization. Such traces are
	// detectable exactly: every step of an unbounded type records the
	// widened max_j.
	for i := range prev.Trace.Steps {
		if st := &prev.Trace.Steps[i]; st.MaxJ != old.maxj[st.Type] {
			return nil
		}
	}
	return prev.Trace.Steps
}

// replayStep commits the recorded decision st for new-graph node id if
// every equivalence precondition holds; it returns false (leaving the
// scheduler untouched) on any mismatch. The trace step it appends is
// lightweight — no frame bitsets — which the lint auditors treat as an
// allocation-style step (nothing to audit, placement still joins the
// replay prefix) and which remains sufficient for a future resume.
func (s *scheduler) replayStep(id dfg.NodeID, st *sched.TraceStep, prev *sched.Schedule) bool {
	n := s.g.Node(id)
	if int(st.Node) >= prev.Graph.Len() {
		return false
	}
	if !sched.NodesEquivalent(prev.Graph.Node(st.Node), n) {
		return false
	}
	typ := TypeKey(n)
	if st.Type != typ || st.MaxJ != s.maxj[typ] {
		return false
	}
	if s.frames[id] != prev.Frames[st.Node] {
		return false
	}
	if st.CurrentJ < s.current[typ] || st.CurrentJ > s.maxj[typ] {
		return false
	}
	table := s.tables[typ]
	if err := table.Place(s.g, id, st.Pos, n.Cycles); err != nil {
		return false // Place is atomic on failure, state is unchanged
	}
	s.current[typ] = st.CurrentJ
	s.commit(id, typ, st.Pos)
	if !s.opt.NoTrace {
		s.trace = append(s.trace, sched.TraceStep{
			Node: id, Type: typ,
			CurrentJ: st.CurrentJ, MaxJ: st.MaxJ,
			Pos: st.Pos, Energy: st.Energy,
		})
	}
	return true
}
