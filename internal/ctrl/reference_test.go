package ctrl_test

// The name-keyed datapath and controller the id-keyed ones replaced, with
// the two functions that consumed them kept verbatim — the left-edge
// packer and the controller builder — as the oracles of
// TestBuildAndPackingMatchReference. Only their type names changed: the
// ref* types are the old rtl.ALU, rtl.Interval, rtl.Datapath and
// ctrl.Action, RegWrite, State and Controller, which named every signal,
// node and ALU by string.

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

type refALU struct {
	Name   string
	Unit   *library.Unit
	Ops    []rtl.Binding
	L1, L2 []string
}

type refInterval struct {
	Name  string
	Birth int
	Death int
}

func (iv refInterval) Stored() bool { return iv.Death > iv.Birth }

type refDatapath struct {
	ALUs      []*refALU
	Registers [][]refInterval
}

type refAction struct {
	Node    dfg.NodeID
	Name    string
	ALU     string
	Func    op.Kind
	Mux1Sel int
	Mux2Sel int
	Src1    string
	Src2    string
	Guards  []dfg.CondTag
}

type refRegWrite struct {
	Reg    int
	Signal string
}

type refState struct {
	Step    int
	Actions []refAction
	Writes  []refRegWrite
}

type refController struct {
	Design  string
	States  []refState
	Latency int
}

// refPackRegisters is rtl.PackRegisters before intervals named their
// signal by id.
func refPackRegisters(ivals []refInterval) [][]refInterval {
	live := make([]refInterval, 0, len(ivals))
	for _, iv := range ivals {
		if iv.Stored() {
			live = append(live, iv)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.Birth != b.Birth {
			return a.Birth < b.Birth
		}
		if a.Death != b.Death {
			return a.Death < b.Death
		}
		return a.Name < b.Name
	})
	var regs [][]refInterval
	if len(live) == 0 {
		return regs
	}
	size := 1
	for size < len(live) {
		size <<= 1
	}
	// min[size+r] is register r's last death (0 = empty); internal nodes
	// hold subtree minima. At most len(live) registers are ever needed.
	min := make([]int, 2*size)
	for _, iv := range live {
		i := 1
		for i < size {
			if min[2*i] <= iv.Birth {
				i = 2 * i
			} else {
				i = 2*i + 1
			}
		}
		r := i - size
		if r == len(regs) {
			regs = append(regs, nil)
		}
		regs[r] = append(regs[r], iv)
		min[i] = iv.Death
		for i >>= 1; i >= 1; i >>= 1 {
			m := min[2*i]
			if min[2*i+1] < m {
				m = min[2*i+1]
			}
			min[i] = m
		}
	}
	return regs
}

// refBuild is ctrl.Build before actions named their node, ALU and
// operands by id.
func refBuild(g *dfg.Graph, s *sched.Schedule, dp *refDatapath) (*refController, error) {
	c := &refController{Design: g.Name, Latency: s.Latency}
	states := make([]refState, s.CS)
	for i := range states {
		states[i].Step = i + 1
	}
	// One pass over the datapath instead of a FindBinding scan per node
	// (quadratic on large designs), into tables indexed by NodeID, plus
	// lazily built per-ALU signal → mux-select maps replacing the
	// per-action list scans.
	byNode := make([]*refALU, g.Len())
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
		if p, ok := s.At(n.ID); ok && p.Step >= 1 && p.Step <= len(states) {
			counts[p.Step-1]++
			total++
		}
	}
	backing := make([]refAction, total)
	for i, k := range counts {
		if k > 0 {
			states[i].Actions, backing = backing[:0:k], backing[k:]
		}
	}
	sels := make(map[*refALU]*refMuxSelects)
	for _, n := range g.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			return nil, fmt.Errorf("ctrl: node %q unscheduled", n.Name)
		}
		a := byNode[n.ID]
		if a == nil {
			return nil, fmt.Errorf("ctrl: node %q unbound", n.Name)
		}
		sel := sels[a]
		if sel == nil {
			sel = newRefMuxSelects(a)
			sels[a] = sel
		}
		act, err := refActionOf(n, a, binds[n.ID], sel)
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
				refRegWrite{Reg: r, Signal: iv.Name})
		}
	}
	// Both keys are unique within a state (node names are unique, and a
	// signal has one lifetime interval), so the order is total.
	for i := range states {
		slices.SortFunc(states[i].Actions, func(a, b refAction) int {
			return strings.Compare(a.Name, b.Name)
		})
		slices.SortFunc(states[i].Writes, func(a, b refRegWrite) int {
			if c := cmp.Compare(a.Reg, b.Reg); c != 0 {
				return c
			}
			return strings.Compare(a.Signal, b.Signal)
		})
	}
	c.States = states
	return c, nil
}

// refMuxSelects maps an ALU's input signals to their L1/L2 positions.
type refMuxSelects struct {
	l1, l2 map[string]int
}

func newRefMuxSelects(a *refALU) *refMuxSelects {
	m := &refMuxSelects{
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

func (m *refMuxSelects) index1(s string) int {
	if i, ok := m.l1[s]; ok {
		return i
	}
	return -1
}

func (m *refMuxSelects) index2(s string) int {
	if i, ok := m.l2[s]; ok {
		return i
	}
	return -1
}

func refActionOf(n *dfg.Node, a *refALU, bind *rtl.Binding, sel *refMuxSelects) (refAction, error) {
	act := refAction{
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

// names is the names g gives a signal list.
func names(g *dfg.Graph, ids []dfg.SignalID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.SignalLabel(id)
	}
	return out
}

// refIntervals is the name-keyed form of a list of intervals.
func refIntervals(g *dfg.Graph, ivals []rtl.Interval) []refInterval {
	out := make([]refInterval, len(ivals))
	for i, iv := range ivals {
		out[i] = refInterval{Name: g.SignalLabel(iv.Signal), Birth: iv.Birth, Death: iv.Death}
	}
	return out
}

// refDatapathOf is the name-keyed form of dp.
func refDatapathOf(g *dfg.Graph, dp *rtl.Datapath) *refDatapath {
	out := &refDatapath{}
	for _, a := range dp.ALUs {
		out.ALUs = append(out.ALUs, &refALU{Name: a.Name, Unit: a.Unit, Ops: slices.Clone(a.Ops),
			L1: names(g, a.L1), L2: names(g, a.L2)})
	}
	for _, grp := range dp.Registers {
		out.Registers = append(out.Registers, refIntervals(g, grp))
	}
	return out
}

// refControllerOf is the name-keyed form of c, which Build made from g
// and dp.
func refControllerOf(g *dfg.Graph, dp *rtl.Datapath, c *ctrl.Controller) *refController {
	out := &refController{Design: c.Design, Latency: c.Latency}
	for _, st := range c.States {
		rs := refState{Step: st.Step}
		for _, a := range st.Actions {
			ra := refAction{
				Node: a.Node, Name: g.Node(a.Node).Name, ALU: dp.ALUs[a.ALU].Name, Func: a.Func,
				Mux1Sel: a.Mux1Sel, Mux2Sel: a.Mux2Sel, Src1: g.SignalLabel(a.Src1), Guards: a.Guards,
			}
			if a.Src2 != dfg.NoSignal {
				ra.Src2 = g.SignalLabel(a.Src2)
			}
			rs.Actions = append(rs.Actions, ra)
		}
		for _, w := range st.Writes {
			rs.Writes = append(rs.Writes, refRegWrite{Reg: w.Reg, Signal: g.SignalLabel(w.Signal)})
		}
		out.States = append(out.States, rs)
	}
	return out
}

// refCase is one datapath the oracles are compared on.
type refCase struct {
	name string
	d    *core.Design
	cfg  core.Config
}

// refCorpus synthesizes the paper graphs under both styles at cs =
// cp..cp+2 (plus their pipelined variants), the designs/*.hls sources
// at their critical path and with two steps of slack, generated 300-
// and 2000-node designs and two FIR kernels.
func refCorpus(t *testing.T) []refCase {
	t.Helper()
	var out []refCase
	add := func(name string, g *dfg.Graph, cfg core.Config) {
		t.Helper()
		d, err := core.Synthesize(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, refCase{name, d, cfg})
	}
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for style := 1; style <= 2; style++ {
			for cs := cp; cs <= cp+2; cs++ {
				add(fmt.Sprintf("%s/style%d/cs%d", ex.Name, style, cs), ex.Graph,
					core.Config{CS: cs, Style: style, ClockNs: ex.ClockNs, RegisterInputs: cs == cp+1})
			}
		}
		if ex.Latency != nil {
			cs := ex.TimeConstraints[0]
			add(ex.Name+"/latency", ex.Graph, core.Config{CS: cs, ClockNs: ex.ClockNs, Latency: ex.Latency(cs)})
		}
		if len(ex.PipelinedOps) > 0 {
			add(ex.Name+"/pipelined", ex.Graph,
				core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs, PipelinedOps: ex.PipelinedOps})
		}
	}
	files, err := filepath.Glob("../../designs/*.hls")
	if err != nil || len(files) == 0 {
		t.Fatalf("designs/*.hls: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for cs := 2; cs <= 13; cs++ {
			if d, err := core.SynthesizeSource(string(src), core.Config{CS: cs}); err == nil {
				out = append(out, refCase{fmt.Sprintf("%s/cs%d", filepath.Base(f), cs), d, core.Config{CS: cs}})
			}
		}
	}
	for _, cfg := range []gen.Config{
		{Nodes: 300, MulCycles: 2, Seed: 1}, {Nodes: 300, Seed: 2}, {Nodes: 300, MulCycles: 2, Seed: 3},
		{Nodes: 2000, MulCycles: 2, Seed: 1},
	} {
		g, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("gen%d/seed%d", cfg.Nodes, cfg.Seed), g, core.Config{CS: g.CriticalPathCycles() + 4})
	}
	for _, taps := range []int{64, 1024} {
		fir, err := gen.FIR(taps, 2)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fir%d", taps), fir, core.Config{CS: fir.CriticalPathCycles() + 4})
	}
	return out
}

// corruptions edit a synthesized design so that Build fails or builds
// from an unusual datapath: a mux input gone, a placement gone (with
// and without an earlier select fault), a binding gone, a node bound
// twice, and register intervals outside the schedule.
var corruptions = []struct {
	name  string
	apply func(d *core.Design)
}{
	{"drop-mux-input", func(d *core.Design) {
		for _, a := range d.Datapath.ALUs {
			if len(a.L1) >= 2 {
				a.L1 = a.L1[1:]
				return
			}
		}
	}},
	{"drop-placement", func(d *core.Design) { dropPlacement(d, dfg.NodeID(d.Graph.Len()-1)) }},
	{"drop-placement-and-mux-input", func(d *core.Design) {
		dropPlacement(d, dfg.NodeID(d.Graph.Len()/2))
		a := d.Datapath.ALUs[len(d.Datapath.ALUs)-1]
		a.L1 = a.L1[:0]
	}},
	{"drop-binding", func(d *core.Design) {
		a := d.Datapath.ALUs[0]
		a.Ops = a.Ops[:len(a.Ops)-1]
	}},
	{"bind-twice", func(d *core.Design) {
		alus := d.Datapath.ALUs
		last := alus[len(alus)-1]
		alus[0].Ops = append(alus[0].Ops, last.Ops[0])
	}},
	{"registers-outside", func(d *core.Design) {
		id := d.Graph.Nodes()[0].OutID()
		d.Datapath.Registers = append(d.Datapath.Registers,
			[]rtl.Interval{{Signal: id, Birth: 0, Death: 1}, {Signal: id, Birth: d.Schedule.CS + 1, Death: d.Schedule.CS + 3}})
	}},
}

// dropPlacement removes node id's placement from a copy of the schedule.
func dropPlacement(d *core.Design, id dfg.NodeID) {
	s := *d.Schedule
	placed := make([]sched.Placement, d.Graph.Len())
	for _, n := range d.Graph.Nodes() {
		if n.ID != id {
			placed[n.ID], _ = d.Schedule.At(n.ID)
		}
	}
	s.Adopt(placed)
	d.Schedule = &s
}

// TestBuildAndPackingMatchReference compares the id-keyed packer and
// controller builder with the name-keyed ones they replaced: the
// packing of every design's intervals (reversed, with unstored ones
// added), and every controller's states, actions, selects and writes,
// or the error, on the corpus and on corrupted copies of its paper
// designs.
func TestBuildAndPackingMatchReference(t *testing.T) {
	builds, faults := 0, 0
	for _, c := range refCorpus(t) {
		g, d := c.d.Graph, c.d.Datapath
		var ivals []rtl.Interval
		for _, grp := range d.Registers {
			ivals = append(ivals, grp...)
		}
		for _, n := range g.Nodes() {
			ivals = append(ivals, rtl.Interval{Signal: n.OutID(), Birth: 2, Death: 2})
		}
		slices.Reverse(ivals)
		got := rtl.PackRegisters(g, ivals)
		want := refPackRegisters(refIntervals(g, ivals))
		if gotNames := refDatapathOf(g, &rtl.Datapath{Registers: got}).Registers; !reflect.DeepEqual(gotNames, want) {
			t.Fatalf("%s: packing\n%v\nthe oracle packs\n%v", c.name, gotNames, want)
		}
		if !reflect.DeepEqual(got, d.Registers) {
			t.Fatalf("%s: repacking the registers moved them", c.name)
		}

		cases := []struct {
			name string
			d    *core.Design
		}{{c.name, c.d}}
		if strings.Contains(c.name, "/style1/") {
			for _, k := range corruptions {
				fresh, err := core.Synthesize(g, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				k.apply(fresh)
				cases = append(cases, struct {
					name string
					d    *core.Design
				}{c.name + "/" + k.name, fresh})
			}
		}
		for _, k := range cases {
			s, dp := k.d.Schedule, k.d.Datapath
			gotC, gotErr := ctrl.Build(g, s, dp)
			wantC, wantErr := refBuild(g, s, refDatapathOf(g, dp))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Build fails with %v, the oracle with %v", k.name, gotErr, wantErr)
			}
			if wantErr != nil {
				faults++
				continue
			}
			builds++
			if got := refControllerOf(g, dp, gotC); !reflect.DeepEqual(got, wantC) {
				t.Fatalf("%s: controller\n%+v\nthe oracle builds\n%+v", k.name, got, wantC)
			}
		}
	}
	if faults == 0 || builds == 0 {
		t.Fatalf("%d controllers built and %d refused; want both", builds, faults)
	}
	t.Logf("%d controllers built and %d refused alike", builds, faults)
}
