package dfgio

import (
	"fmt"
	"strings"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// DOT renders a graph in Graphviz dot syntax: inputs as plain ovals,
// operations as boxes labeled "name = op" (multicycle durations and
// mutual-exclusion tags annotated), folded loops as double octagons.
func DOT(g *dfg.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, in := range g.Inputs() {
		fmt.Fprintf(&b, "  %q [shape=ellipse, style=dashed];\n", in)
	}
	for _, n := range g.Nodes() {
		label := fmt.Sprintf("%s = %s", n.Name, n.Op)
		shape := "box"
		if n.IsLoop() {
			label = fmt.Sprintf("%s = loop(%s)", n.Name, n.Sub.Name)
			shape = "doubleoctagon"
		}
		if n.Cycles > 1 {
			label += fmt.Sprintf(" [%d cyc]", n.Cycles)
		}
		for _, tag := range n.Excl {
			label += fmt.Sprintf(" {c%d.b%d}", tag.Cond, tag.Branch)
		}
		fmt.Fprintf(&b, "  %q [shape=%s, label=%q];\n", n.Name, shape, label)
	}
	for _, n := range g.Nodes() {
		for _, a := range n.Args {
			fmt.Fprintf(&b, "  %q -> %q;\n", a, n.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ScheduleDOT renders a scheduled graph with operations clustered by
// control step, so the dot layout reads as a schedule.
func ScheduleDOT(s *sched.Schedule) string {
	g := s.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name+"_sched")
	for _, in := range g.Inputs() {
		fmt.Fprintf(&b, "  %q [shape=ellipse, style=dashed];\n", in)
	}
	byStep := make(map[int][]*dfg.Node)
	for _, n := range g.Nodes() {
		p, _ := s.At(n.ID)
		byStep[p.Step] = append(byStep[p.Step], n)
	}
	for step := 1; step <= s.CS; step++ {
		nodes := byStep[step]
		if len(nodes) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  subgraph cluster_t%d {\n    label=\"step %d\";\n", step, step)
		for _, n := range nodes {
			p, _ := s.At(n.ID)
			fmt.Fprintf(&b, "    %q [shape=box, label=%q];\n",
				n.Name, fmt.Sprintf("%s @ %s%d", n.Name, p.Type, p.Index))
		}
		fmt.Fprintf(&b, "  }\n")
	}
	for _, n := range g.Nodes() {
		for _, a := range n.Args {
			fmt.Fprintf(&b, "  %q -> %q;\n", a, n.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
