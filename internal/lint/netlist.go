package lint

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/diag"
)

// netlistAnalyzer re-parses the emitted structural Verilog and checks
// it as a netlist, without trusting the emitter that produced it:
// undriven and multiply-driven nets, undeclared identifiers, duplicate
// declarations (sanitize collisions), width mismatches on direct
// connections, unassigned output ports, and combinational loops
// through the continuous-assign network.
var netlistAnalyzer = &Analyzer{
	Name: "netlist",
	Doc:  "netlist lint on the emitted Verilog: drivers, declarations, widths, combinational loops",
	Run:  runNetlist,
}

func runNetlist(ctx context.Context, u *Unit) diag.List {
	if u.Netlist == "" {
		return nil
	}
	m, parsed := u.netlist()
	out := append(diag.List(nil), parsed...) // the parse's list is shared
	report := func(code string, sev diag.Severity, line int32, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "netlist",
			Loc: fmt.Sprintf("line %d", line), Message: msg,
		})
	}
	nets := m.nets

	// Undeclared identifiers, on either side of any assignment.
	checkDeclared := func(a *netAssign) {
		if nets[a.lhs].kind == netUndeclared {
			report(diag.CodeNetUndeclared, diag.Error, a.line,
				fmt.Sprintf("assignment target %q is never declared", nets[a.lhs].name))
		}
		for _, r := range m.rhs(a) {
			if nets[r].kind == netUndeclared {
				report(diag.CodeNetUndeclared, diag.Error, a.line,
					fmt.Sprintf("identifier %q is never declared", nets[r].name))
			}
		}
	}
	for i := range m.assigns {
		checkDeclared(&m.assigns[i])
	}
	for i := range m.procs {
		checkDeclared(&m.procs[i])
	}

	// Per-net driver rules, in declaration order for determinism.
	used := make([]bool, len(nets)) // nets read by some RHS
	for _, r := range m.reads {
		used[r] = true
	}
	for _, id := range m.order {
		d := &nets[id]
		cont, proc := d.firstCont >= 0, d.firstProc >= 0
		var contLine, procLine int32
		if cont {
			contLine = m.assigns[d.firstCont].line
		}
		if proc {
			procLine = m.procs[d.firstProc].line
		}
		switch {
		case d.kind == netInput:
			if cont || proc {
				line := procLine
				if cont {
					line = contLine
				}
				report(diag.CodeNetMultiDriven, diag.Error, line,
					fmt.Sprintf("input port %q is driven inside the module", d.name))
			}
		case cont && d.lastCont != d.firstCont:
			n := 0
			for i := d.firstCont; i >= 0; i = m.assigns[i].next {
				n++
			}
			second := m.assigns[m.assigns[d.firstCont].next].line
			report(diag.CodeNetMultiDriven, diag.Error, second,
				fmt.Sprintf("net %q has %d continuous drivers (first at line %d)", d.name, n, contLine))
		case cont && proc:
			report(diag.CodeNetMultiDriven, diag.Error, procLine,
				fmt.Sprintf("net %q is driven both continuously (line %d) and procedurally (line %d)",
					d.name, contLine, procLine))
		case d.kind == netOutput && !cont && !proc:
			report(diag.CodeNetOutput, diag.Error, d.line,
				fmt.Sprintf("output port %q is never assigned", d.name))
		case d.kind == netWire && used[id] && !cont && !proc:
			report(diag.CodeNetUndriven, diag.Error, d.line,
				fmt.Sprintf("wire %q is read but never driven", d.name))
		}
	}

	// Width agreement on direct connections (assign a = b with both
	// sides declared). Expressions are skipped: the emitted subset only
	// ever combines same-width operands, and re-deriving expression
	// widths would duplicate the emitter's job rather than check it.
	checkWidth := func(a *netAssign) {
		if a.rhsIdent < 0 {
			return
		}
		l, r := &nets[a.lhs], &nets[a.rhsIdent]
		if l.kind != netUndeclared && r.kind != netUndeclared && l.width != r.width {
			report(diag.CodeNetWidth, diag.Error, a.line,
				fmt.Sprintf("width mismatch: %q is %d bits, %q is %d bits", l.name, l.width, r.name, r.width))
		}
	}
	for i := range m.assigns {
		checkWidth(&m.assigns[i])
	}
	for i := range m.procs {
		checkWidth(&m.procs[i])
	}

	out = append(out, netCombLoops(m)...)
	return out
}

// netCombLoops finds cycles in the continuous-assign dependency graph.
// Procedural (clocked) assignments break combinational paths and are
// excluded; a cycle purely through assign statements is unsimulatable
// hardware.
func netCombLoops(m *netModule) diag.List {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(m.nets))
	onLoop := make([]bool, len(m.nets))
	found := false
	var stack []netID
	var visit func(n netID)
	visit = func(n netID) {
		color[n] = gray
		stack = append(stack, n)
		for a := m.nets[n].firstCont; a >= 0; a = m.assigns[a].next {
			for _, d := range m.rhs(&m.assigns[a]) {
				switch color[d] {
				case white:
					if m.nets[d].firstCont >= 0 {
						visit(d)
					}
				case gray:
					found = true
					for i := len(stack) - 1; i >= 0; i-- {
						onLoop[stack[i]] = true
						if stack[i] == d {
							break
						}
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}

	// Whether the network has a loop does not depend on the order of
	// the walk, so look in id order first.
	var driven []netID
	for id := range m.nets {
		if m.nets[id].firstCont >= 0 {
			driven = append(driven, netID(id))
			if color[id] == white {
				visit(netID(id))
			}
		}
	}
	if !found {
		return nil
	}
	// Which nets the walk marks does: mark them walking in name order.
	clear(color)
	clear(onLoop)
	sort.Slice(driven, func(i, j int) bool { return m.nets[driven[i]].name < m.nets[driven[j]].name })
	for _, n := range driven {
		if color[n] == white {
			visit(n)
		}
	}

	var looped []netID
	for _, n := range driven {
		if onLoop[n] {
			looped = append(looped, n)
		}
	}
	var out diag.List
	for _, n := range looped {
		out = append(out, diag.Diagnostic{
			Code: diag.CodeNetCombLoop, Severity: diag.Error, Artifact: "netlist",
			Loc:     fmt.Sprintf("line %d", m.assigns[m.nets[n].firstCont].line),
			Message: fmt.Sprintf("net %q lies on a combinational loop through assign statements", m.nets[n].name),
		})
	}
	return out
}
