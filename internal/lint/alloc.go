package lint

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/mfsa"
)

// allocAnalyzer checks the RTL datapath: the structural invariants
// (rtl.ValidateAll — overlapping register lifetimes, duplicate
// bindings, duplicate multiplexer inputs), binding-vs-schedule
// consistency, multiplexer input resolution against the design's
// signals, unit capability coverage, and the style-2 restriction when
// the design claims it.
var allocAnalyzer = &Analyzer{
	Name: "alloc",
	Doc:  "datapath allocation: register overlaps, binding consistency, mux inputs, unit capability",
	Run:  runAlloc,
}

func runAlloc(ctx context.Context, u *Unit) diag.List {
	dp := u.Datapath
	if dp == nil || u.Graph == nil {
		return nil
	}
	g := u.Graph
	out := dp.ValidateAll(g)
	report := func(code, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: diag.Error, Artifact: "datapath",
			Loc: loc, Message: msg,
		})
	}

	bound := make([]bool, g.Len()) // by NodeID: has a binding
	for _, a := range dp.ALUs {
		for _, l := range [2][]dfg.SignalID{a.L1, a.L2} {
			for _, sig := range l {
				if !g.HasSignal(sig) {
					report(diag.CodeMuxUnknown, a.Name,
						fmt.Sprintf("ALU %s: multiplexer input %q names no primary input or node output", a.Name, g.SignalLabel(sig)))
				}
			}
		}
		for _, b := range a.Ops {
			if int(b.Node) < 0 || int(b.Node) >= g.Len() {
				report(diag.CodeALUUnplaced, a.Name,
					fmt.Sprintf("ALU %s binds node %d, which the graph does not have", a.Name, b.Node))
				continue
			}
			bound[b.Node] = true
			n := g.Node(b.Node)
			if a.Unit != nil && !n.IsLoop() && !a.Unit.Can(n.Op) {
				report(diag.CodeALUOpMismatch, a.Name,
					fmt.Sprintf("ALU %s (%s) cannot execute %q's op %v", a.Name, a.Unit.Symbol(), n.Name, n.Op))
			}
			if s := u.Schedule; s != nil {
				p, placed := s.At(b.Node)
				if !placed {
					report(diag.CodeALUUnplaced, a.Name,
						fmt.Sprintf("ALU %s binds %q, which the schedule never placed", a.Name, n.Name))
				} else if p.Step != b.Step {
					report(diag.CodeAllocStep, a.Name,
						fmt.Sprintf("ALU %s binds %q at step %d, but the schedule places it at step %d",
							a.Name, n.Name, b.Step, p.Step))
				}
			}
		}
	}

	// A complete datapath must bind every scheduled (non-loop) node.
	if s := u.Schedule; s != nil {
		for _, n := range g.Nodes() {
			if n.IsLoop() {
				continue
			}
			if _, placed := s.At(n.ID); !placed {
				continue
			}
			if !bound[n.ID] {
				report(diag.CodeAllocUnbound, n.Name,
					fmt.Sprintf("scheduled node %q has no ALU binding", n.Name))
			}
		}
	}

	if u.Style2 {
		out = append(out, mfsa.VerifyStyle2All(g, dp)...)
	}
	return out
}
