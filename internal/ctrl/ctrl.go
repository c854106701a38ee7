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

// Action is one datapath operation issued in a state: the node, the ALU
// that executes it (by position in Datapath.ALUs), the function code,
// and the two multiplexer selects (indices into the ALU's L1/L2 input
// lists; -1 for an unused port) with the signals they pick.
type Action struct {
	Node    dfg.NodeID
	ALU     int
	Func    op.Kind
	Mux1Sel int
	Mux2Sel int
	Src1    dfg.SignalID // signal selected on port 1
	Src2    dfg.SignalID // signal selected on port 2 (dfg.NoSignal if unused)

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
	Signal dfg.SignalID
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

	// g and dp are what Build derived the controller from: String names
	// nodes, ALUs and signals through them.
	g  *dfg.Graph
	dp *rtl.Datapath
}

// Build derives the controller from a bound design. The datapath must
// contain a binding for every node of g that the schedule places, and
// its register packing must already be assigned. When several nodes
// cannot be issued, the error names the first by NodeID.
func Build(g *dfg.Graph, s *sched.Schedule, dp *rtl.Datapath) (*Controller, error) {
	c := &Controller{Design: g.Name, Latency: s.Latency, g: g, dp: dp}
	states := make([]State, s.CS)
	for i := range states {
		states[i].Step = i + 1
	}
	// One pass over the datapath instead of a FindBinding scan per node
	// (quadratic on large designs): where[id] locates node id's binding,
	// one past its ALU's position (0: unbound) and its index in that
	// ALU's Ops. A node bound twice keeps its last binding.
	type binding struct{ alu, op int32 }
	where := make([]binding, g.Len())
	for ai, a := range dp.ALUs {
		for i := range a.Ops {
			if id := a.Ops[i].Node; id >= 0 && int(id) < g.Len() {
				where[id] = binding{int32(ai) + 1, int32(i)}
			}
		}
	}
	// bad is the first node Build cannot issue, and err why.
	bad, err := g.Len(), error(nil)
	fail := func(id dfg.NodeID, e error) {
		if int(id) < bad {
			bad, err = int(id), e
		}
	}
	// Carve every state's action list out of one backing slice, sized by
	// a counting pass, so the appends below never regrow.
	counts := make([]int, len(states))
	total := 0
	for _, n := range g.Nodes() {
		p, ok := s.At(n.ID)
		switch {
		case !ok:
			fail(n.ID, fmt.Errorf("ctrl: node %q unscheduled", n.Name))
		case where[n.ID].alu == 0:
			fail(n.ID, fmt.Errorf("ctrl: node %q unbound", n.Name))
		case p.Step >= 1 && p.Step <= len(states):
			counts[p.Step-1]++
			total++
		}
		if err != nil {
			break
		}
	}
	backing := make([]Action, total)
	for i, k := range counts {
		if k > 0 {
			states[i].Actions, backing = backing[:0:k], backing[k:]
		}
	}
	// Issue each ALU's operations with its input lists loaded into one
	// SignalID-indexed position table per port (one past the select; 0:
	// not on the port), cleared again after the ALU.
	pos := [2][]int32{make([]int32, g.NumSignals()), make([]int32, g.NumSignals())}
	for ai, a := range dp.ALUs {
		load(pos[0], a.L1, 1)
		load(pos[1], a.L2, 1)
		for i, b := range a.Ops {
			if b.Node < 0 || int(b.Node) >= bad || where[b.Node] != (binding{int32(ai) + 1, int32(i)}) {
				continue // not this node's binding, or past the first fault
			}
			n := g.Node(b.Node)
			act, e := action(g, n, ai, a, b.Swapped, pos)
			if e != nil {
				fail(n.ID, e)
				continue
			}
			p, _ := s.At(n.ID)
			states[p.Step-1].Actions = append(states[p.Step-1].Actions, act)
		}
		load(pos[0], a.L1, 0)
		load(pos[1], a.L2, 0)
	}
	if err != nil {
		return nil, err
	}
	// The register writes are carved the same way.
	clear(counts)
	total = 0
	for _, grp := range dp.Registers {
		for _, iv := range grp {
			if iv.Birth >= 1 && iv.Birth <= s.CS {
				counts[iv.Birth-1]++
				total++
			}
		}
	}
	writes := make([]RegWrite, total)
	for i, k := range counts {
		if k > 0 {
			states[i].Writes, writes = writes[:0:k], writes[k:]
		}
	}
	for r, grp := range dp.Registers {
		for _, iv := range grp {
			if iv.Birth < 1 || iv.Birth > s.CS {
				continue // input captured before step 1 (or held past the end)
			}
			states[iv.Birth-1].Writes = append(states[iv.Birth-1].Writes,
				RegWrite{Reg: r, Signal: iv.Signal})
		}
	}
	// Both keys are unique within a state (node names are unique, and a
	// signal has one lifetime interval), so the order is total.
	for i := range states {
		slices.SortFunc(states[i].Actions, func(a, b Action) int {
			return strings.Compare(g.Node(a.Node).Name, g.Node(b.Node).Name)
		})
		slices.SortFunc(states[i].Writes, func(a, b RegWrite) int {
			if c := cmp.Compare(a.Reg, b.Reg); c != 0 {
				return c
			}
			return strings.Compare(g.SignalLabel(a.Signal), g.SignalLabel(b.Signal))
		})
	}
	c.States = states
	return c, nil
}

// load sets pos[id] for each signal id of a port list to one past its
// index when on is 1, and back to 0 when on is 0. A signal listed twice
// keeps its last index; one outside the table is skipped.
func load(pos []int32, list []dfg.SignalID, on int32) {
	for i, id := range list {
		if id >= 0 && int(id) < len(pos) {
			pos[id] = on * int32(i+1)
		}
	}
}

// action issues node n on ALU a, the ai-th of the datapath, reading the
// mux selects from the loaded position tables.
func action(g *dfg.Graph, n *dfg.Node, ai int, a *rtl.ALU, swapped bool, pos [2][]int32) (Action, error) {
	act := Action{
		Node: n.ID, ALU: ai, Func: n.Op,
		Mux1Sel: -1, Mux2Sel: -1, Src2: dfg.NoSignal,
		Guards: append([]dfg.CondTag(nil), n.Excl...),
	}
	ports := rtl.OperandPorts(n, swapped)
	act.Src1 = n.ArgIDs()[ports[0]]
	if act.Mux1Sel = int(pos[0][act.Src1]) - 1; act.Mux1Sel < 0 {
		return act, fmt.Errorf("ctrl: %q: signal %q missing from %s.L1", n.Name, g.SignalName(act.Src1), a.Name)
	}
	if ports[1] >= 0 {
		act.Src2 = n.ArgIDs()[ports[1]]
		if act.Mux2Sel = int(pos[1][act.Src2]) - 1; act.Mux2Sel < 0 {
			return act, fmt.Errorf("ctrl: %q: signal %q missing from %s.L2", n.Name, g.SignalName(act.Src2), a.Name)
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

// String renders the FSM as a readable state table, naming nodes, ALUs
// and signals as the graph and datapath Build read them do (#id, for a
// controller Build did not make).
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
			src2 := "" // the unused port's
			if a.Src2 != dfg.NoSignal {
				src2 = c.g.SignalLabel(a.Src2)
			}
			fmt.Fprintf(&b, "  %-12s %s fn=%s mux1=%d(%s) mux2=%d(%s)%s\n",
				c.g.NodeLabel(a.Node), c.dp.ALULabel(a.ALU), a.Func, a.Mux1Sel, c.g.SignalLabel(a.Src1),
				a.Mux2Sel, src2, guard)
		}
		for _, w := range st.Writes {
			fmt.Fprintf(&b, "  R%d <= %s\n", w.Reg, c.g.SignalLabel(w.Signal))
		}
	}
	return b.String()
}
