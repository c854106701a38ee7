// Package rtl models the register-transfer-level datapath MFSA constructs:
// ALU instances drawn from a cell library, the two multiplexers feeding
// each ALU (with the §5.6 input-list optimization), registers allocated by
// the §5.8 activity-selection (left-edge) packer, and the cost breakdown
// reported in the paper's Table 2 (total area, register, multiplexer and
// multiplexer-input counts).
package rtl

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/library"
)

// Binding records one operation's assignment to an ALU instance.
type Binding struct {
	Node dfg.NodeID
	Step int // start control step

	// Swapped is true when a commutative operation feeds its first
	// operand to MUX2 and its second to MUX1 (the §5.6 optimization).
	Swapped bool
}

// ALU is one functional-unit instance with its two input multiplexers.
type ALU struct {
	Name string
	Unit *library.Unit
	Ops  []Binding

	// L1 and L2 are the signals feeding the ALU's first and second input
	// port, in multiplexer-select order (a controller select indexes
	// them), deduplicated — each distinct signal is one multiplexer input
	// (§5.7: shared lines between the same source and ALU cost one
	// input). ReoptimizeMuxes leaves them in signal-name order.
	L1, L2 []dfg.SignalID
}

// Presence records which input ports of an ALU already carry a node's
// operands: bit 2·i+p is set when operand i (an index into the node's
// ArgIDs) is on port p (0: L1, 1: L2). It is all the orientation rule
// and a port list's growth depend on, so a caller that indexes port
// membership itself binds without probing the lists.
type Presence uint8

// Has reports whether operand i is already on port p.
func (m Presence) Has(i, p int) bool { return m>>(2*i+p)&1 != 0 }

// PresenceOf scans the ALU's port lists for n's operands.
func (a *ALU) PresenceOf(n *dfg.Node) Presence {
	var m Presence
	for i, id := range operands(n) {
		if slices.Contains(a.L1, id) {
			m |= 1 << (2 * i)
		}
		if slices.Contains(a.L2, id) {
			m |= 1 << (2*i + 1)
		}
	}
	return m
}

// Orient returns how many new multiplexer inputs binding node n to an
// ALU whose ports carry n's operands as m says would create, and
// whether n's operands go crossed: a commutative operation takes the
// orientation with fewer new inputs, and a tie keeps the direct one.
func (m Presence) Orient(n *dfg.Node) (growth int, swapped bool) {
	if len(n.ArgIDs()) == 1 {
		return m.Missing(0, 0), false
	}
	direct := m.Missing(0, 0) + m.Missing(1, 1)
	if !n.Op.Commutative() {
		return direct, false
	}
	crossed := m.Missing(1, 0) + m.Missing(0, 1)
	if crossed < direct {
		return crossed, true
	}
	return direct, false
}

// Missing is the input port p's list gains from operand i: 1 unless the
// port already carries it.
func (m Presence) Missing(i, p int) int {
	if m.Has(i, p) {
		return 0
	}
	return 1
}

// Bind commits node n to the ALU at the given step, using the
// orientation MuxGrowth would pick.
func (a *ALU) Bind(n *dfg.Node, step int) {
	a.BindAs(n, step, a.PresenceOf(n))
}

// BindAs commits node n to the ALU at the given step when m is where the
// ALU's ports already carry n's operands: the orientation is Orient's,
// and each port's list gains the operand it is fed unless m has it.
func (a *ALU) BindAs(n *dfg.Node, step int, m Presence) {
	_, swapped := m.Orient(n)
	a.Ops = append(a.Ops, Binding{Node: n.ID, Step: step, Swapped: swapped})
	ports, args := OperandPorts(n, swapped), n.ArgIDs()
	if i := ports[0]; i >= 0 && !m.Has(i, 0) {
		a.L1 = append(a.L1, args[i])
	}
	if i := ports[1]; i >= 0 && !m.Has(i, 1) {
		a.L2 = append(a.L2, args[i])
	}
}

// OperandPorts returns which of n's arguments feed port 0 (MUX1) and
// port 1 (MUX2) under the given orientation: indexes into n.Args and
// n.ArgIDs(), -1 for the port a unary operation leaves unused.
func OperandPorts(n *dfg.Node, swapped bool) [2]int {
	switch {
	case len(n.Args) == 1:
		return [2]int{0, -1}
	case swapped:
		return [2]int{1, 0}
	}
	return [2]int{0, 1}
}

// BindingFor returns the binding of node id on this ALU, if present.
// The pointer aliases the ALU's Ops slice.
func (a *ALU) BindingFor(id dfg.NodeID) (*Binding, bool) {
	for i := range a.Ops {
		if a.Ops[i].Node == id {
			return &a.Ops[i], true
		}
	}
	return nil, false
}

// HasNode reports whether node id is bound to this ALU.
func (a *ALU) HasNode(id dfg.NodeID) bool {
	_, ok := a.BindingFor(id)
	return ok
}

// Interval is one value's storage lifetime in control steps: the value is
// born at the end of step Birth (its producer's finish step; 0 for a
// design input captured before step 1) and last read during step Death.
// It needs register storage iff Death > Birth — i.e. it crosses at least
// one step boundary.
type Interval struct {
	Signal dfg.SignalID
	Birth  int
	Death  int
}

// Stored reports whether the value outlives its producing step.
func (iv Interval) Stored() bool { return iv.Death > iv.Birth }

// overlaps reports whether two stored intervals [Birth, Death) conflict.
func (iv Interval) overlaps(o Interval) bool {
	return iv.Birth < o.Death && o.Birth < iv.Death
}

// PackRegisters assigns the stored intervals to a minimal set of
// registers with the left-edge algorithm ([19], which §5.8's activity
// selection extends): intervals are sorted by birth, then death, then
// the name g gives their signal, and each goes to the first register
// whose occupants it does not overlap. Left-edge first-fit is optimal for
// interval lifetimes — the register count equals the maximum number of
// simultaneously live values. The result is deterministic; unstored
// intervals are dropped.
//
// Because intervals arrive in birth order, a register's occupants are
// non-overlapping and birth-sorted, so a new interval conflicts with a
// register iff its birth precedes the register's last occupant's death.
// First-fit therefore reduces to "leftmost register whose last death is
// ≤ the new birth", answered in O(log R) by a segment tree over the
// per-register last-death values (an empty register scores 0, so the
// historical append-a-new-register fallback is the leftmost untouched
// leaf). The packing — grouping AND order — is byte-identical to the
// historical all-pairs scan, which the golden netlists depend on. The
// registers share one backing array, each capped to its own length.
func PackRegisters(g *dfg.Graph, ivals []Interval) [][]Interval {
	// order holds the positions of the stored intervals in packing
	// order; names break exact (birth, death) ties only.
	order := make([]int32, 0, len(ivals))
	for i, iv := range ivals {
		if iv.Stored() {
			order = append(order, int32(i))
		}
	}
	if len(order) == 0 {
		return nil
	}
	slices.SortFunc(order, func(x, y int32) int {
		a, b := &ivals[x], &ivals[y]
		if c := cmp.Compare(a.Birth, b.Birth); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Death, b.Death); c != 0 {
			return c
		}
		return strings.Compare(g.SignalLabel(a.Signal), g.SignalLabel(b.Signal))
	})
	size := 1
	for size < len(order) {
		size <<= 1
	}
	// min[size+r] is register r's last death (0 = empty); internal nodes
	// hold subtree minima. At most len(order) registers are ever needed.
	min := make([]int, 2*size)
	// regOf[k] is the register of the k-th interval in packing order.
	regOf := make([]int32, len(order))
	nregs := 0
	for k, o := range order {
		iv := &ivals[o]
		i := 1
		for i < size {
			if min[2*i] <= iv.Birth {
				i = 2 * i
			} else {
				i = 2*i + 1
			}
		}
		r := i - size
		nregs = max(nregs, r+1)
		regOf[k] = int32(r)
		min[i] = iv.Death
		for i >>= 1; i >= 1; i >>= 1 {
			m := min[2*i]
			if min[2*i+1] < m {
				m = min[2*i+1]
			}
			min[i] = m
		}
	}
	// Group by register in packing order: count, then carve each
	// register out of one backing array.
	end := make([]int, nregs)
	for _, r := range regOf {
		end[r]++
	}
	for r := 1; r < nregs; r++ {
		end[r] += end[r-1]
	}
	backing := make([]Interval, len(order))
	regs := make([][]Interval, nregs)
	for r := range regs {
		lo := 0
		if r > 0 {
			lo = end[r-1]
		}
		regs[r] = backing[lo:lo:end[r]]
	}
	for k, o := range order {
		regs[regOf[k]] = append(regs[regOf[k]], ivals[o])
	}
	return regs
}

// Datapath is the RTL structure under construction or completed.
type Datapath struct {
	Lib  *library.Library
	ALUs []*ALU

	// Registers is the left-edge packing of the design's value lifetimes,
	// set by AssignRegisters.
	Registers [][]Interval
}

// NewDatapath returns an empty datapath over the given library.
func NewDatapath(lib *library.Library) *Datapath {
	return &Datapath{Lib: lib}
}

// AddALU instantiates a new ALU of the given unit and returns it.
func (d *Datapath) AddALU(u *library.Unit) *ALU {
	a := &ALU{Name: fmt.Sprintf("%s#%d", u.Name, len(d.ALUs)+1), Unit: u}
	d.ALUs = append(d.ALUs, a)
	return a
}

// AssignRegisters runs the register allocator over the value lifetimes
// of graph g and stores the packing.
func (d *Datapath) AssignRegisters(g *dfg.Graph, ivals []Interval) {
	d.Registers = PackRegisters(g, ivals)
}

// Coverage indexes a datapath's register intervals by signal. Both the
// RTL simulator and the translation-validation pass ask it whether a
// cross-step operand actually survives in storage, at a cost that
// follows that signal's own intervals rather than the whole packing.
// It is a snapshot of Registers: build one per verification run, since
// lint's mutations edit a datapath in place.
type Coverage struct {
	// The intervals of signal id are spans[start[id]:start[id+1]].
	start []int32
	spans []span
}

type span struct{ birth, death int }

// Coverage indexes the datapath's registers by the signals of g.
// Intervals naming no signal of g are left out: no read of g asks for
// them.
func (d *Datapath) Coverage(g *dfg.Graph) *Coverage {
	c := &Coverage{start: make([]int32, g.NumSignals()+1)}
	for _, grp := range d.Registers {
		for _, iv := range grp {
			if g.HasSignal(iv.Signal) {
				c.start[iv.Signal+1]++
			}
		}
	}
	for i := 1; i < len(c.start); i++ {
		c.start[i] += c.start[i-1]
	}
	c.spans = make([]span, c.start[len(c.start)-1])
	next := slices.Clone(c.start)
	for _, grp := range d.Registers {
		for _, iv := range grp {
			if g.HasSignal(iv.Signal) {
				c.spans[next[iv.Signal]] = span{iv.Birth, iv.Death}
				next[iv.Signal]++
			}
		}
	}
	return c
}

// Covers reports whether a register holds signal id over the whole span
// (birth, readStep]: an interval of id born no later than birth and
// dying no earlier than readStep.
func (c *Coverage) Covers(id dfg.SignalID, birth, readStep int) bool {
	for _, s := range c.spans[c.start[id]:c.start[id+1]] {
		if s.birth <= birth && s.death >= readStep {
			return true
		}
	}
	return false
}

// ALULabel is the name of the i-th ALU, or "#i" when d has none or is
// nil: only a hand-built controller names an ALU its datapath lacks.
func (d *Datapath) ALULabel(i int) string {
	if d != nil && i >= 0 && i < len(d.ALUs) {
		return d.ALUs[i].Name
	}
	return "#" + strconv.Itoa(i)
}

// FindBinding returns the ALU executing node id, if bound.
func (d *Datapath) FindBinding(id dfg.NodeID) (*ALU, bool) {
	for _, a := range d.ALUs {
		if a.HasNode(id) {
			return a, true
		}
	}
	return nil, false
}

// Cost is the Table 2 result row for one design.
type Cost struct {
	ALUArea float64
	MuxArea float64
	RegArea float64
	Total   float64

	NumALUs      int
	NumRegs      int
	NumMux       int // multiplexers with at least 2 inputs
	NumMuxInputs int // total inputs across those multiplexers
}

// MuxCost returns the area of the ALU's two input multiplexers.
func (d *Datapath) muxAreaOf(a *ALU) float64 {
	return d.Lib.MuxArea(len(a.L1)) + d.Lib.MuxArea(len(a.L2))
}

// Cost computes the datapath's cost breakdown against its library.
func (d *Datapath) Cost() Cost {
	var c Cost
	for _, a := range d.ALUs {
		c.ALUArea += a.Unit.Area
		c.MuxArea += d.muxAreaOf(a)
		for _, n := range [2]int{len(a.L1), len(a.L2)} {
			if n >= 2 {
				c.NumMux++
				c.NumMuxInputs += n
			}
		}
	}
	c.NumALUs = len(d.ALUs)
	c.NumRegs = len(d.Registers)
	c.RegArea = float64(c.NumRegs) * d.Lib.RegArea
	c.Total = c.ALUArea + c.MuxArea + c.RegArea
	return c
}

// ALUSummary renders the allocation in the paper's Table 2 notation,
// e.g. "2(+-); (*)": counts of identical capability sets.
func (d *Datapath) ALUSummary() string {
	counts := make(map[string]int)
	for _, a := range d.ALUs {
		counts[a.Unit.Symbol()]++
	}
	syms := make([]string, 0, len(counts))
	for s := range counts {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	out := ""
	for i, s := range syms {
		if i > 0 {
			out += "; "
		}
		if counts[s] > 1 {
			out += fmt.Sprintf("%d%s", counts[s], s)
		} else {
			out += s
		}
	}
	return out
}

// ValidateAll checks structural sanity — every binding's step positive,
// no node bound twice, mux lists deduplicated, registers non-overlapping
// — and returns every violation found as a typed diagnostic, naming
// signals as g does. Validate is the historical first-error shim on top.
func (d *Datapath) ValidateAll(g *dfg.Graph) diag.List {
	var out diag.List
	report := func(code, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: diag.Error,
			Artifact: "datapath", Loc: loc, Message: msg,
		})
	}
	// A node bound twice reports against the ALU that bound it first.
	// firstALU[node] is one past the index of that ALU (0: not bound
	// yet); the bindings of nodes g does not have are kept in stray.
	type binding struct {
		node dfg.NodeID
		alu  int
	}
	firstALU := make([]int32, g.Len())
	var stray []binding
	// seen[sig] is the stamp of the last mux list found carrying sig.
	seen := make([]int32, g.NumSignals())
	stamp := int32(0)
	for ai, a := range d.ALUs {
		if a.Unit == nil {
			report(diag.CodeALUNoUnit, a.Name,
				fmt.Sprintf("rtl: ALU %s has no unit", a.Name))
		}
		for _, b := range a.Ops {
			if b.Step < 1 {
				report(diag.CodeALUBadStep, a.Name,
					fmt.Sprintf("rtl: ALU %s: node %d at step %d", a.Name, b.Node, b.Step))
			}
			first := -1
			if b.Node >= 0 && int(b.Node) < len(firstALU) {
				if f := firstALU[b.Node]; f > 0 {
					first = int(f) - 1
				} else {
					firstALU[b.Node] = int32(ai) + 1
				}
			} else if k := slices.IndexFunc(stray, func(s binding) bool { return s.node == b.Node }); k >= 0 {
				first = stray[k].alu
			} else {
				stray = append(stray, binding{b.Node, ai})
			}
			if first >= 0 {
				report(diag.CodeALUDupBind, a.Name,
					fmt.Sprintf("rtl: node %d bound to both %s and %s", b.Node, d.ALUs[first].Name, a.Name))
			}
		}
		for _, l := range [2][]dfg.SignalID{a.L1, a.L2} {
			stamp++
			for i, id := range l {
				var dup bool
				if g.HasSignal(id) {
					dup = seen[id] == stamp
					seen[id] = stamp
				} else {
					dup = slices.Contains(l[:i], id)
				}
				if dup {
					report(diag.CodeMuxDupInput, a.Name,
						fmt.Sprintf("rtl: ALU %s: duplicate mux input %q", a.Name, g.SignalLabel(id)))
				}
			}
		}
	}
	for r, grp := range d.Registers {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				if grp[i].overlaps(grp[j]) {
					report(diag.CodeRegOverlap, fmt.Sprintf("R%d", r),
						fmt.Sprintf("rtl: register %d: %q overlaps %q", r,
							g.SignalLabel(grp[i].Signal), g.SignalLabel(grp[j].Signal)))
				}
			}
		}
	}
	return out
}

// Validate returns the first violation ValidateAll finds (with the same
// message string as the historical single-error validator), or nil.
func (d *Datapath) Validate(g *dfg.Graph) error {
	if all := d.ValidateAll(g); len(all) > 0 {
		return all[:1].ErrOrNil()
	}
	return nil
}
