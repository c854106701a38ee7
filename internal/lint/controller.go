package lint

import (
	"context"
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/rtl"
)

// ctrlAnalyzer checks the FSM control path: state numbering, register
// write races within a state, unsatisfiable guard sets, multiplexer
// selects against the datapath's input lists, action placement against
// the schedule, and — because the emitted FSM restarts at the pipeline
// initiation interval — states the machine can never enter.
var ctrlAnalyzer = &Analyzer{
	Name: "ctrl",
	Doc:  "FSM controller: unreachable states, write races, guard satisfiability, mux selects",
	Run:  runCtrl,
}

func runCtrl(ctx context.Context, u *Unit) diag.List {
	c := u.Controller
	if c == nil {
		return nil
	}
	g := u.Graph
	var out diag.List
	report := func(code string, sev diag.Severity, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "controller",
			Loc: loc, Message: msg,
		})
	}

	// The emitted FSM counts 0..restart-1 and wraps, so states at or
	// beyond the restart bound never execute.
	restart := len(c.States)
	if c.Latency > 0 && c.Latency < restart {
		restart = c.Latency
	}
	// unguarded holds one state's first write of each register.
	unguarded := make(map[int]dfg.SignalID)
	for i, st := range c.States {
		loc := fmt.Sprintf("S%d", i+1)
		if st.Step != i+1 {
			report(diag.CodeCtrlNumbering, diag.Error, loc,
				fmt.Sprintf("state %d is numbered step %d", i, st.Step))
		}
		if i >= restart && (len(st.Actions) > 0 || len(st.Writes) > 0) {
			report(diag.CodeCtrlUnreachable, diag.Warn, loc,
				fmt.Sprintf("state %d is unreachable: the FSM restarts after state %d", i, restart-1))
		}

		// Two unguarded writes to one register in one state race; the
		// register's final value would depend on emission order.
		clear(unguarded)
		for _, w := range st.Writes {
			if prev, dup := unguarded[w.Reg]; dup {
				report(diag.CodeCtrlWriteRace, diag.Error, loc,
					fmt.Sprintf("state %d writes R%d twice (%q and %q)", i, w.Reg, g.SignalLabel(prev), g.SignalLabel(w.Signal)))
				continue
			}
			unguarded[w.Reg] = w.Signal
		}

		for _, act := range st.Actions {
			name := g.NodeLabel(act.Node)
			for x := 0; x < len(act.Guards); x++ {
				for y := x + 1; y < len(act.Guards); y++ {
					a, b := act.Guards[x], act.Guards[y]
					if a.Cond == b.Cond && a.Branch != b.Branch {
						report(diag.CodeCtrlGuardUnsat, diag.Error, name,
							fmt.Sprintf("action %q is guarded by branches %d and %d of conditional %d: it can never commit",
								name, a.Branch, b.Branch, a.Cond))
					}
				}
			}
			if u.Datapath != nil {
				checkMuxSelects(g, u.Datapath, act, report)
			}
			if s := u.Schedule; s != nil {
				if p, placed := s.At(act.Node); !placed {
					report(diag.CodeCtrlActionStep, diag.Error, name,
						fmt.Sprintf("action %q issued in state %d, but the schedule never placed its node", name, i))
				} else if p.Step != st.Step {
					report(diag.CodeCtrlActionStep, diag.Error, name,
						fmt.Sprintf("action %q issued in state step %d, but scheduled at step %d",
							name, st.Step, p.Step))
				}
			}
		}
	}

	// Every scheduled node needs a controller action.
	if s := u.Schedule; s != nil && g != nil {
		acted := make([]bool, g.Len())
		for _, st := range c.States {
			for _, act := range st.Actions {
				if act.Node >= 0 && int(act.Node) < len(acted) {
					acted[act.Node] = true
				}
			}
		}
		for _, n := range g.Nodes() {
			if _, placed := s.At(n.ID); placed && !acted[n.ID] {
				report(diag.CodeCtrlMissing, diag.Error, n.Name,
					fmt.Sprintf("scheduled node %q has no controller action", n.Name))
			}
		}
	}
	return out
}

// checkMuxSelects verifies an action's mux selects index its ALU's
// input lists at the action's source signals.
func checkMuxSelects(g *dfg.Graph, dp *rtl.Datapath, act ctrl.Action, report func(code string, sev diag.Severity, loc, msg string)) {
	name := g.NodeLabel(act.Node)
	if act.ALU < 0 || act.ALU >= len(dp.ALUs) {
		report(diag.CodeCtrlMuxSelect, diag.Error, name,
			fmt.Sprintf("action %q references ALU %s, which the datapath does not have", name, dp.ALULabel(act.ALU)))
		return
	}
	alu := dp.ALUs[act.ALU]
	check := func(port int, sel int, src dfg.SignalID, list []dfg.SignalID) {
		if src == dfg.NoSignal {
			return
		}
		if sel < 0 || sel >= len(list) || list[sel] != src {
			report(diag.CodeCtrlMuxSelect, diag.Error, name,
				fmt.Sprintf("action %q: mux%d select %d does not pick source %q on %s", name, port, sel, g.SignalLabel(src), alu.Name))
		}
	}
	check(1, act.Mux1Sel, act.Src1, alu.L1)
	check(2, act.Mux2Sel, act.Src2, alu.L2)
}
