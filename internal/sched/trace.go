package sched

import (
	"slices"

	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/liapunov"
)

// TraceCandidate is one evaluated alternative of a placement decision:
// its Liapunov energy at decision time, its grid position on the unit's
// table, and the unit it was evaluated on as a position in the run's
// library, which Trace.Units names. MFSA records the candidates it
// scored; MFS leaves Candidates empty because its static energy function
// lets an auditor re-enumerate the alternatives from the recorded frames
// alone. A candidate holds no pointer and takes 24 bytes, so a trace of
// many is cheap to build and costs the collector nothing to scan. Both
// engines keep control steps within int32, and an index never exceeds
// the node count.
type TraceCandidate struct {
	Energy            float64
	Step, Index, Unit int32
}

// Pos returns the candidate's grid position.
func (c TraceCandidate) Pos() grid.Pos {
	return grid.Pos{Step: int(c.Step), Index: int(c.Index)}
}

// TraceStep records one committed placement decision: which node moved,
// the move window it saw, the scheduler's running FU estimate at that
// moment, the position chosen, and its energy under the run's guiding
// function. The window and the estimate are the decision's frames in
// closed form (Frames). Steps are recorded in commit order, so
// replaying them in sequence reconstructs the exact grid occupancy
// every decision was made against. The window and the estimates are
// int32, which both engines' bounds on control steps and instance limits
// keep exact, so a step takes 96 bytes.
type TraceStep struct {
	Node dfg.NodeID
	Type string // FU type key: op symbol (MFS) or library unit name (MFSA)

	// Lo, Hi and FFTop are the move window at commit time: the start
	// steps [Lo..Hi] and the last step a placed predecessor forbids (0 for
	// none). MFSA folds its forbidden frame into its window and records
	// none of the three (all 0, so every frame is empty); the Candidates
	// list then carries the audit trail instead.
	Lo, Hi, FFTop int32

	// CurrentJ and MaxJ are the running FU estimate current_j and the
	// bound max_j of the node's type when the decision was taken.
	CurrentJ, MaxJ int32

	Pos    grid.Pos
	Energy float64

	// Candidates lists the alternatives the scheduler scored, including
	// the chosen one (MFSA and Allocate; nil for MFS): one per unit, step
	// and column shape (port-list lengths and which ports already carry
	// the node's operands; every fresh column is one shape), the first
	// free column of each, whose energy every later column of that shape
	// repeats bit for bit. When time dominates (liapunov.TimeDominates),
	// MFSA also stops each unit's walk past the best step found so far,
	// so the list ends at the winning step but for the later-step
	// candidates scored before an earlier step turned up.
	Candidates []TraceCandidate
}

// Frames returns the step's PF, RF, FF and MF in closed form.
func (s *TraceStep) Frames() grid.Frames {
	return grid.Frames{Lo: int(s.Lo), Hi: int(s.Hi), FFTop: int(s.FFTop), Cur: int(s.CurrentJ), Max: int(s.MaxJ)}
}

// Trace is the recorded move trajectory of one scheduling run. The
// Liapunov audit (internal/lint) replays it: it rebuilds the placement
// grids step by step, re-derives each move frame independently, and
// flags any step that failed to decrease the Liapunov energy V(X) to
// the minimum free position — the monotone-descent property the
// paper's convergence argument rests on.
type Trace struct {
	// Fn is the static guiding function of the run, when one exists
	// (MFS). MFSA's dynamic composite function depends on datapath
	// state, so MFSA leaves Fn nil and records Candidates instead.
	Fn liapunov.Func

	// Units names the units that candidates refer to by position: the
	// run's library units, in library order (MFSA only; nil for MFS).
	Units []string

	Steps []TraceStep
}

// Equal reports whether two traces record the identical trajectory:
// same step sequence, and per step the same node, type, position,
// energy (exact float equality — the trajectories must be bit-identical,
// not merely close), window, FU estimates and candidate sets. It backs
// the engine invariance cross-checks (the replay oracles, resynthesis
// against a fresh run, run-twice determinism): any divergence in what a
// scheduler saw or chose shows up here even when the final placements
// agree.
func (t *Trace) Equal(o *Trace) bool {
	if t == nil || o == nil {
		return t == o
	}
	if !slices.Equal(t.Units, o.Units) || len(t.Steps) != len(o.Steps) {
		return false
	}
	for i := range t.Steps {
		if !t.Steps[i].Equal(&o.Steps[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two trace steps record the identical decision.
// Candidates compare by unit position, so the steps' traces must name
// the same units.
func (s *TraceStep) Equal(o *TraceStep) bool {
	if s.Node != o.Node || s.Type != o.Type ||
		s.Pos != o.Pos || s.Energy != o.Energy ||
		s.Lo != o.Lo || s.Hi != o.Hi || s.FFTop != o.FFTop ||
		s.CurrentJ != o.CurrentJ || s.MaxJ != o.MaxJ {
		return false
	}
	if len(s.Candidates) != len(o.Candidates) {
		return false
	}
	for i, c := range s.Candidates {
		if c != o.Candidates[i] {
			return false
		}
	}
	return true
}

// Scored returns how many candidates the trace's steps record: the
// positions an MFSA run scored (MFS records none).
func (t *Trace) Scored() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.Steps {
		n += len(t.Steps[i].Candidates)
	}
	return n
}

// StepFor returns the trace step that committed node id, if recorded.
func (t *Trace) StepFor(id dfg.NodeID) (*TraceStep, bool) {
	if t == nil {
		return nil, false
	}
	for i := range t.Steps {
		if t.Steps[i].Node == id {
			return &t.Steps[i], true
		}
	}
	return nil, false
}
