package lint

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/grid"
	"repro/internal/liapunov"
	"repro/internal/sched"
)

// energyEps absorbs float formatting noise when comparing recorded
// energies against recomputed ones; the guiding functions are built
// from small integers, so any real divergence is far larger.
const energyEps = 1e-9

// liapunovAnalyzer audits the theorem behind the schedulers: it
// certifies the recorded guiding function's grid properties
// (liapunov.CheckProperties) and then replays the recorded trajectory
// on an empty grid, asserting at every step that the committed position
// was the minimum-energy free move-frame position — i.e. that V(X)
// actually decreased as fast as the move frame allowed. A step where a
// strictly cheaper legal position was available is the paper's
// "non-decreasing V(X)" violation.
var liapunovAnalyzer = &Analyzer{
	Name: "liapunov",
	Doc:  "Liapunov-invariant audit: guiding-function properties and greedy energy descent on replay",
	Run:  runLiapunov,
}

func runLiapunov(ctx context.Context, u *Unit) diag.List {
	s := u.Schedule
	if s == nil || u.Graph == nil || s.Trace == nil {
		return nil
	}
	g, t := u.Graph, s.Trace
	var out diag.List
	report := func(code string, sev diag.Severity, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "liapunov",
			Loc: loc, Message: msg,
		})
	}

	maxIdx := 1
	for _, st := range t.Steps {
		maxIdx = max(maxIdx, int(st.MaxJ), st.Pos.Index)
	}
	if t.Fn != nil {
		if err := liapunov.CheckProperties(t.Fn, s.CS, maxIdx); err != nil {
			report(diag.CodeLiapProperties, diag.Error, t.Fn.Name(),
				fmt.Sprintf("guiding function fails the theorem's grid properties: %v", err))
		}
	}

	tables := make(map[string]*grid.Table)
	placedSteps := make([]int, g.Len()) // committed prefix by NodeID (0 = unplaced), for the chaining filter
	// Under chaining, acc[x] is x's chain delay within its step, taken
	// with sched.ChainAccAt at x's replayed commit. While every replayed
	// commit found none of its successors placed and kept its chain
	// within the clock (incremental), the chain filter reads acc in
	// O(preds) and answers exactly as ChainFits's whole-graph walk would;
	// after the first commit that breaks either, it calls ChainFits.
	var acc []float64
	incremental := s.ClockNs > 0
	if incremental {
		acc = make([]float64, g.Len())
	}
	for i, st := range t.Steps {
		if int(st.Node) < 0 || int(st.Node) >= g.Len() {
			report(diag.CodeLiapReplay, diag.Error, fmt.Sprintf("trace step %d", i),
				fmt.Sprintf("trace step %d names node %d, which the graph does not have", i, st.Node))
			continue
		}
		n := g.Node(st.Node)
		fast := incremental && !anyPlaced(n.Succs(), placedSteps)
		table := tables[st.Type]
		if table == nil {
			table = grid.NewTable(st.Type, s.CS, max(int(st.MaxJ), st.Pos.Index))
			table.Latency = s.Latency
			table.Pipelined = s.PipelinedTypes[st.Type]
			tables[st.Type] = table
		}

		if t.Fn != nil {
			if v := t.Fn.Value(st.Pos); math.Abs(v-st.Energy) > energyEps {
				report(diag.CodeLiapEnergy, diag.Error, n.Name,
					fmt.Sprintf("node %q at %v: recorded energy %g, V(position) = %g",
						n.Name, st.Pos, st.Energy, v))
			}
			if !st.Frames().MF().Empty() {
				chainAcc := acc
				if !fast {
					chainAcc = nil
				}
				auditDescent(g, s, t.Fn, table, placedSteps, chainAcc, n, st, report)
			}
		}
		if len(st.Candidates) > 0 {
			best := math.Inf(1)
			var bestPos grid.Pos
			for _, c := range st.Candidates {
				if c.Energy < best {
					best, bestPos = c.Energy, c.Pos()
				}
			}
			if st.Energy > best+energyEps {
				report(diag.CodeLiapCandidate, diag.Error, n.Name,
					fmt.Sprintf("node %q committed at %v with V = %g, but evaluated candidate %v had V = %g",
						n.Name, st.Pos, st.Energy, bestPos, best))
			}
		}

		if !table.CanPlace(g, st.Node, st.Pos, n.Cycles) {
			report(diag.CodeLiapReplay, diag.Error, n.Name,
				fmt.Sprintf("node %q cannot be re-placed at %v: the recorded trajectory does not replay", n.Name, st.Pos))
			continue
		}
		if err := table.Place(g, st.Node, st.Pos, n.Cycles); err != nil {
			report(diag.CodeLiapReplay, diag.Error, n.Name,
				fmt.Sprintf("replaying node %q: %v", n.Name, err))
			continue
		}
		placedSteps[st.Node] = st.Pos.Step
		if incremental {
			acc[st.Node] = sched.ChainAccAt(g, placedSteps, acc, st.Node, st.Pos.Step)
			incremental = fast && acc[st.Node] <= s.ClockNs+1e-9
		}
	}
	return out
}

// anyPlaced reports whether any of ids has a committed step.
func anyPlaced(ids []dfg.NodeID, placedSteps []int) bool {
	for _, id := range ids {
		if placedSteps[id] != 0 {
			return true
		}
	}
	return false
}

// auditDescent asserts the greedy-descent invariant for one recorded
// MFS placement: among the recorded move frame's free positions (grid
// occupancy and, under chaining, the delay budget both honored), none
// has strictly lower energy than the committed one. A non-nil acc holds
// the replay's chain accumulator and stands in for sched.ChainFits.
func auditDescent(g *dfg.Graph, s *sched.Schedule, fn liapunov.Func, table *grid.Table,
	placedSteps []int, acc []float64, n *dfg.Node, st sched.TraceStep, report func(code string, sev diag.Severity, loc, msg string)) {
	free := 0
	best := math.Inf(1)
	var bestPos grid.Pos
	tiesAtBest := 0
	mf := st.Frames().MF()
	for step := mf.StepLo; step <= mf.StepHi; step++ { // row-major, as Positions lists them
		for idx := mf.IdxLo; idx <= mf.IdxHi; idx++ {
			p := grid.Pos{Step: step, Index: idx}
			if !table.CanPlace(g, n.ID, p, n.Cycles) {
				continue
			}
			if s.ClockNs > 0 && !chainFits(g, s.ClockNs, placedSteps, acc, n.ID, p.Step) {
				continue
			}
			free++
			v := fn.Value(p)
			switch {
			case v < best-energyEps:
				best, bestPos, tiesAtBest = v, p, 1
			case math.Abs(v-best) <= energyEps:
				tiesAtBest++
			}
		}
	}
	if free == 0 {
		report(diag.CodeLiapReplay, diag.Error, n.Name,
			fmt.Sprintf("node %q: no free move-frame position on replay, yet the scheduler committed %v",
				n.Name, st.Pos))
		return
	}
	committed := fn.Value(st.Pos)
	if committed > best+energyEps {
		report(diag.CodeLiapDescent, diag.Error, n.Name,
			fmt.Sprintf("non-decreasing V(X) step: node %q committed at %v with V = %g while free move-frame position %v had V = %g",
				n.Name, st.Pos, committed, bestPos, best))
	}
	if tiesAtBest > 1 && math.Abs(committed-best) <= energyEps {
		report(diag.CodeLiapTie, diag.Info, n.Name,
			fmt.Sprintf("node %q: %d move-frame positions tie at minimum energy %g; the guiding function is degenerate here",
				n.Name, tiesAtBest, best))
	}
}

// chainFits is sched.ChainFits, read from the replay's chain
// accumulator when the caller passes one.
func chainFits(g *dfg.Graph, clockNs float64, placedSteps []int, acc []float64, id dfg.NodeID, step int) bool {
	if acc == nil {
		return sched.ChainFits(g, clockNs, placedSteps, id, step)
	}
	return sched.ChainAccAt(g, placedSteps, acc, id, step) <= clockNs+1e-9
}
