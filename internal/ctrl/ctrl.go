// Package ctrl generates the control path for a synthesized design: a
// Moore FSM with one state per control step that drives the datapath's
// multiplexer selects, ALU function codes and register write enables.
// The paper's flow (behavioral synthesis = data path synthesis + control
// path design, §1) needs this step to make the RTL structure executable;
// internal/sim runs designs through it and internal/emit prints it.
package ctrl

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dfg"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// Action is one datapath operation issued in a state: the ALU that
// executes it, the function code, and the two multiplexer selects
// (indices into the ALU's L1/L2 input lists; -1 for an unused port).
type Action struct {
	Node    dfg.NodeID
	Name    string // node name, for rendering
	ALU     string
	Func    op.Kind
	Mux1Sel int
	Mux2Sel int
	Src1    string // signal selected on port 1 ("" if unused)
	Src2    string

	// Guards lists the conditional branches the operation belongs to
	// (§5.1): the controller commits the action's result only when every
	// guard's condition signal selects its branch. Unconditional actions
	// have no guards.
	Guards []dfg.CondTag
}

// Guarded reports whether the action's commit depends on branch
// conditions.
func (a Action) Guarded() bool { return len(a.Guards) > 0 }

// RegWrite latches a signal into a register at the end of a state.
type RegWrite struct {
	Reg    int
	Signal string
}

// State is one FSM state (control step).
type State struct {
	Step    int
	Actions []Action
	Writes  []RegWrite
}

// Controller is the complete control path.
type Controller struct {
	Design string
	States []State

	// Latency is the functional-pipelining initiation interval: when
	// non-zero the FSM restarts every Latency steps instead of after the
	// last state.
	Latency int
}

// Build derives the controller from a bound design. The datapath must
// contain a binding for every node of g that the schedule places, and
// its register packing must already be assigned.
func Build(g *dfg.Graph, s *sched.Schedule, dp *rtl.Datapath) (*Controller, error) {
	c := &Controller{Design: g.Name, Latency: s.Latency}
	states := make([]State, s.CS)
	for i := range states {
		states[i].Step = i + 1
	}
	// One pass over the datapath instead of a FindBinding scan per node
	// (quadratic on large designs), into tables indexed by NodeID, plus
	// lazily built per-ALU signal → mux-select maps replacing the
	// per-action list scans.
	byNode := make([]*rtl.ALU, g.Len())
	binds := make([]*rtl.Binding, g.Len())
	for _, a := range dp.ALUs {
		for i := range a.Ops {
			if id := a.Ops[i].Node; id >= 0 && int(id) < g.Len() {
				byNode[id] = a
				binds[id] = &a.Ops[i]
			}
		}
	}
	// Carve every state's action list out of one backing slice, sized by
	// a counting pass, so the appends below never regrow.
	counts := make([]int, len(states))
	total := 0
	for _, n := range g.Nodes() {
		if p, ok := s.Placements[n.ID]; ok && p.Step >= 1 && p.Step <= len(states) {
			counts[p.Step-1]++
			total++
		}
	}
	backing := make([]Action, total)
	for i, k := range counts {
		if k > 0 {
			states[i].Actions, backing = backing[:0:k], backing[k:]
		}
	}
	sels := make(map[*rtl.ALU]*muxSelects)
	for _, n := range g.Nodes() {
		p, ok := s.Placements[n.ID]
		if !ok {
			return nil, fmt.Errorf("ctrl: node %q unscheduled", n.Name)
		}
		a := byNode[n.ID]
		if a == nil {
			return nil, fmt.Errorf("ctrl: node %q unbound", n.Name)
		}
		sel := sels[a]
		if sel == nil {
			sel = newMuxSelects(a)
			sels[a] = sel
		}
		act, err := action(n, a, binds[n.ID], sel)
		if err != nil {
			return nil, err
		}
		states[p.Step-1].Actions = append(states[p.Step-1].Actions, act)
	}
	for r, grp := range dp.Registers {
		for _, iv := range grp {
			if iv.Birth < 1 || iv.Birth > s.CS {
				continue // input captured before step 1 (or held past the end)
			}
			states[iv.Birth-1].Writes = append(states[iv.Birth-1].Writes,
				RegWrite{Reg: r, Signal: iv.Name})
		}
	}
	// Both keys are unique within a state (node names are unique, and a
	// signal has one lifetime interval), so the order is total.
	for i := range states {
		slices.SortFunc(states[i].Actions, func(a, b Action) int {
			return strings.Compare(a.Name, b.Name)
		})
		slices.SortFunc(states[i].Writes, func(a, b RegWrite) int {
			if c := cmp.Compare(a.Reg, b.Reg); c != 0 {
				return c
			}
			return strings.Compare(a.Signal, b.Signal)
		})
	}
	c.States = states
	return c, nil
}

// muxSelects maps an ALU's input signals to their L1/L2 positions.
type muxSelects struct {
	l1, l2 map[string]int
}

func newMuxSelects(a *rtl.ALU) *muxSelects {
	m := &muxSelects{
		l1: make(map[string]int, len(a.L1)),
		l2: make(map[string]int, len(a.L2)),
	}
	for i, s := range a.L1 {
		m.l1[s] = i
	}
	for i, s := range a.L2 {
		m.l2[s] = i
	}
	return m
}

func (m *muxSelects) index1(s string) int {
	if i, ok := m.l1[s]; ok {
		return i
	}
	return -1
}

func (m *muxSelects) index2(s string) int {
	if i, ok := m.l2[s]; ok {
		return i
	}
	return -1
}

func action(n *dfg.Node, a *rtl.ALU, bind *rtl.Binding, sel *muxSelects) (Action, error) {
	act := Action{
		Node: n.ID, Name: n.Name, ALU: a.Name, Func: n.Op,
		Mux1Sel: -1, Mux2Sel: -1,
		Guards: append([]dfg.CondTag(nil), n.Excl...),
	}
	if bind == nil {
		return act, fmt.Errorf("ctrl: node %q missing from ALU %s op list", n.Name, a.Name)
	}
	ports := rtl.OperandPorts(n, bind.Swapped)
	act.Src1 = n.Args[ports[0]]
	if act.Mux1Sel = sel.index1(act.Src1); act.Mux1Sel < 0 {
		return act, fmt.Errorf("ctrl: %q: signal %q missing from %s.L1", n.Name, act.Src1, a.Name)
	}
	if ports[1] >= 0 {
		act.Src2 = n.Args[ports[1]]
		if act.Mux2Sel = sel.index2(act.Src2); act.Mux2Sel < 0 {
			return act, fmt.Errorf("ctrl: %q: signal %q missing from %s.L2", n.Name, act.Src2, a.Name)
		}
	}
	return act, nil
}

// NextState returns the state index following i, honoring functional
// pipelining restarts and the steady loop back to state 0.
func (c *Controller) NextState(i int) int {
	if i+1 < len(c.States) {
		return i + 1
	}
	return 0
}

// String renders the FSM as a readable state table.
func (c *Controller) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "controller %s: %d states", c.Design, len(c.States))
	if c.Latency > 0 {
		fmt.Fprintf(&b, " (pipeline latency %d)", c.Latency)
	}
	b.WriteByte('\n')
	for _, st := range c.States {
		fmt.Fprintf(&b, "S%d:\n", st.Step)
		for _, a := range st.Actions {
			guard := ""
			for _, g := range a.Guards {
				guard += fmt.Sprintf(" if c%d=b%d", g.Cond, g.Branch)
			}
			fmt.Fprintf(&b, "  %-12s %s fn=%s mux1=%d(%s) mux2=%d(%s)%s\n",
				a.Name, a.ALU, a.Func, a.Mux1Sel, a.Src1, a.Mux2Sel, a.Src2, guard)
		}
		for _, w := range st.Writes {
			fmt.Fprintf(&b, "  R%d <= %s\n", w.Reg, w.Signal)
		}
	}
	return b.String()
}
