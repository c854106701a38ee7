package lint

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/grid"
	"repro/internal/sched"
)

// framesAnalyzer checks the schedule two ways: it re-runs the full
// legality verifier (sched.VerifyAll — completeness, dependencies,
// conflicts, limits), and when the scheduler recorded its move-frame
// trajectory it replays every placement decision, independently
// re-deriving the frames exactly as MFS step 4 does and asserting
// membership of the committed position in MF = PF − (RF ∪ FF) and
// ASAP/ALAP containment.
var framesAnalyzer = &Analyzer{
	Name: "frames",
	Doc:  "schedule legality and move-frame audit: re-derived frames, MF membership, ASAP/ALAP containment",
	Run:  runFrames,
}

func runFrames(ctx context.Context, u *Unit) diag.List {
	s := u.Schedule
	if s == nil || u.Graph == nil {
		return nil
	}
	g := u.Graph
	var out diag.List
	out = append(out, s.VerifyAll(u.Limits)...)

	frames, err := sched.ComputeFrames(g, s.CS, s.ClockNs)
	if err != nil {
		out = append(out, diag.Diagnostic{
			Code: diag.CodeSchedWindow, Severity: diag.Error, Artifact: "frames",
			Message: fmt.Sprintf("cannot recompute time frames: %v", err),
		})
		return out
	}
	report := func(code, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: diag.Error, Artifact: "frames",
			Loc: loc, Message: msg,
		})
	}

	// Every placement must sit inside the independently recomputed
	// ASAP/ALAP window.
	for _, n := range g.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			continue // reported by VerifyAll
		}
		fr := frames[n.ID]
		if p.Step < fr.ASAP || p.Step > fr.ALAP {
			report(diag.CodeSchedWindow, n.Name,
				fmt.Sprintf("node %q placed at step %d outside its time frame [%d, %d]",
					n.Name, p.Step, fr.ASAP, fr.ALAP))
		}
	}

	if s.Trace != nil {
		auditTrace(g, s, frames, report)
	}
	return out
}

// auditTrace replays the recorded placement decisions in commit order,
// re-deriving each operation's frames against the already-committed
// prefix with the same rules the scheduler used (placed predecessors
// raise the earliest start, placed successors lower the latest start,
// chaining admits step sharing) and comparing them to what the
// scheduler recorded. Steps without recorded frames (MFSA traces record
// candidates instead) are skipped.
func auditTrace(g *dfg.Graph, s *sched.Schedule, frames sched.Frames, report func(code, loc, msg string)) {
	placed := sched.NewSchedule(g, s.CS) // the committed prefix
	for i, st := range s.Trace.Steps {
		if int(st.Node) < 0 || int(st.Node) >= g.Len() {
			report(diag.CodeFrameMismatch, fmt.Sprintf("trace step %d", i),
				fmt.Sprintf("trace step %d names node %d, which the graph does not have", i, st.Node))
			continue
		}
		n := g.Node(st.Node)
		fr := st.Frames()
		pf := fr.PF()
		if pf.Empty() {
			// Allocation-style trace: no frames to audit, but the
			// placement still joins the prefix for later steps.
			placed.Place(st.Node, sched.Placement{Step: st.Pos.Step, Type: st.Type, Index: st.Pos.Index})
			continue
		}

		if !fr.MF().Contains(st.Pos) {
			report(diag.CodeFrameMember, n.Name,
				fmt.Sprintf("node %q committed to %v outside its recorded move frame", n.Name, st.Pos))
		}
		if base := frames[st.Node]; pf.StepLo < base.ASAP || pf.StepHi > base.ALAP {
			report(diag.CodeFrameBounds, n.Name,
				fmt.Sprintf("node %q: recorded PF steps [%d, %d] outside the ASAP/ALAP window [%d, %d]",
					n.Name, pf.StepLo, pf.StepHi, base.ASAP, base.ALAP))
		}

		// Independent re-derivation against the committed prefix.
		if want := deriveFrames(g, s, frames, placed, n, int(st.CurrentJ), int(st.MaxJ)); fr != want {
			report(diag.CodeFrameMismatch, n.Name,
				fmt.Sprintf("node %q: recorded window [%d, %d] below forbidden step %d differs from the independent re-derivation [%d, %d] below %d",
					n.Name, fr.Lo, fr.Hi, fr.FFTop, want.Lo, want.Hi, want.FFTop))
		}
		placed.Place(st.Node, sched.Placement{Step: st.Pos.Step, Type: st.Type, Index: st.Pos.Index})
	}
}

// deriveFrames recomputes node n's frames against the placed prefix,
// mirroring MFS step 4: the base ASAP/ALAP window tightened by
// committed predecessors and successors (chaining admits sharing a
// step), and the forbidden frame below the latest completing
// predecessor, under the recorded current_j and max_j.
func deriveFrames(g *dfg.Graph, s *sched.Schedule, frames sched.Frames,
	placed *sched.Schedule, n *dfg.Node, currentJ, maxJ int) grid.Frames {
	base := frames[n.ID]
	lo, hi := base.ASAP, base.ALAP
	ffTop := 0
	for _, pid := range n.Preds() {
		pp, ok := placed.At(pid)
		if !ok {
			continue
		}
		pred := g.Node(pid)
		bound := pp.Step + pred.Cycles
		if chainableNodes(s.ClockNs, pred, n) {
			bound = pp.Step
		}
		if bound > lo {
			lo = bound
		}
		if end := pp.Step + pred.Cycles - 1; end > ffTop && bound > pp.Step {
			ffTop = end
		}
	}
	for _, sid := range n.Succs() {
		sp, ok := placed.At(sid)
		if !ok {
			continue
		}
		succ := g.Node(sid)
		bound := sp.Step - n.Cycles
		if chainableNodes(s.ClockNs, n, succ) {
			bound = sp.Step
		}
		if bound < hi {
			hi = bound
		}
	}
	return grid.Frames{Lo: lo, Hi: hi, FFTop: ffTop, Cur: currentJ, Max: maxJ}
}

func chainableNodes(clockNs float64, pred, succ *dfg.Node) bool {
	return clockNs > 0 && pred.Cycles == 1 && succ.Cycles == 1 &&
		!pred.IsLoop() && !succ.IsLoop()
}
