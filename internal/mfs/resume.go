package mfs

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// ResumeCtx re-schedules g after a local edit by replaying the recorded
// trajectory of a previous run instead of re-deriving every decision.
// prev is the schedule of the pre-edit graph (its Graph, Frames and
// Trace fields must be the ones the scheduler produced); oldFrames is
// prev.Frames remapped onto g's node IDs (entries for freshly added
// nodes absent or past the end); seeds are the node IDs whose timing
// inputs the edit changed, as for sched.UpdateFrames.
//
// The result is always bit-identical to ScheduleCtx(g, opt) — replay is
// an optimization, never a semantic shortcut. It rests on an induction:
// if the fresh run's initial bounds (max_j/current_j) match the old
// run's, then as long as each trace step's node matches the new priority
// order's node (structural equivalence), its frames match, and its
// max_j still holds, the scheduler state after the prefix is identical
// to the old run's — so the recorded decision IS what placeOne would
// derive, and it is committed directly: no window walk, no energy
// comparison. The first divergence switches permanently to placeOne,
// which from the common state continues exactly as a fresh run would.
// Whenever a precondition fails (no trace — e.g. the previous run had
// NoTrace set —, a widened previous run, resource-constrained mode, or
// changed initial bounds), the function falls back to the full
// ScheduleCtx, so callers can treat it as a drop-in Schedule. An edit
// that makes the constraint infeasible returns the same InfeasibleError
// a fresh run would.
func ResumeCtx(ctx context.Context, g *dfg.Graph, opt Options, prev *sched.Schedule, oldFrames sched.Frames, seeds []dfg.NodeID) (*sched.Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	if opt.CS == 0 || prev == nil || prev.Trace == nil || prev.Frames == nil || prev.Graph == nil {
		return ScheduleCtx(ctx, g, opt)
	}
	frames, err := sched.UpdateFrames(g, opt.CS, opt.ClockNs, oldFrames, seeds)
	if err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	s, err := newScheduler(g, opt.CS, opt, false, frames)
	if err != nil {
		return scheduleTimeConstrained(ctx, g, opt) // reproduces the fresh run's error
	}
	oldMaxj, oldCur := boundsFor(prev.Graph, opt.CS, opt, prev.Frames)
	if !intMapsEqual(s.maxj, oldMaxj) || !intMapsEqual(s.current, oldCur) {
		return scheduleTimeConstrained(ctx, g, opt)
	}
	// A widened previous run (scheduleTimeConstrained's retry loop)
	// started from larger bounds than the fresh recomputation above, so
	// its decisions — for every type, not only the widened ones — were
	// taken under a different Liapunov normalization. Such traces are
	// detectable exactly: every step of an unbounded type records the
	// widened max_j.
	for i := range prev.Trace.Steps {
		if st := &prev.Trace.Steps[i]; st.MaxJ != oldMaxj[st.Type] {
			return scheduleTimeConstrained(ctx, g, opt)
		}
	}
	steps := prev.Trace.Steps
	replaying := true
	for i, id := range sched.PriorityOrder(g, frames) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if replaying {
			if i < len(steps) && s.replayStep(id, &steps[i], prev) {
				continue
			}
			replaying = false
		}
		if err := s.placeOne(id); err != nil {
			// A fresh run that fails mid-placement retries with widened
			// bounds; reproduce that exactly rather than erroring.
			return scheduleTimeConstrained(ctx, g, opt)
		}
	}
	return s.finish()
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

// boundsFor computes the initial max_j/current_j maps a fresh
// time-constrained run over (g, cs, frames) would start from, without
// building the placement tables.
func boundsFor(g *dfg.Graph, cs int, opt Options, frames sched.Frames) (maxj, current map[string]int) {
	s := &scheduler{
		g: g, cs: cs, opt: opt,
		frames:  frames,
		maxj:    make(map[string]int),
		current: make(map[string]int),
	}
	s.initBounds()
	return s.maxj, s.current
}

func intMapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	//hls:orderok set-equality test; the verdict is the same whatever order the keys arrive in
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Resume is ResumeCtx without cancellation.
func Resume(g *dfg.Graph, opt Options, prev *sched.Schedule, oldFrames sched.Frames, seeds []dfg.NodeID) (*sched.Schedule, error) {
	return ResumeCtx(context.Background(), g, opt, prev, oldFrames, seeds)
}
