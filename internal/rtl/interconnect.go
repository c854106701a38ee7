package rtl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// Interconnect is the §5.7 physical-connection analysis of a bound
// design. The mux input lists L1/L2 are per-signal; physically a
// multiplexer input is a wire from a source terminal — a register
// output, a primary-input port, or another ALU's output (for chained
// reads) — and several signals that share a register arrive over the
// same wire. Line sharing therefore reduces the effective multiplexer
// input count below the signal count, the "secondary effect on
// Cost(MUX)" the paper describes.
type Interconnect struct {
	// Sources lists, per ALU name, the distinct source terminals feeding
	// each of its two ports. Terminal syntax: "reg:<k>", "in:<name>",
	// "alu:<name>" (chained), sorted.
	Sources map[string][2][]string

	// NumLinks is the total number of distinct point-to-point links
	// (terminal → ALU port) in the design.
	NumLinks int

	// SignalInputs and EffectiveInputs compare the per-signal mux input
	// count with the post-sharing terminal count.
	SignalInputs    int
	EffectiveInputs int
}

// AnalyzeInterconnect maps every operand read in the design to its
// physical source terminal and aggregates the per-port terminal sets.
// It needs the schedule to distinguish chained reads (direct ALU-to-ALU
// lines) from registered reads, and the datapath's register packing to
// name the register terminals.
func AnalyzeInterconnect(g *dfg.Graph, s *sched.Schedule, dp *Datapath) (*Interconnect, error) {
	src := newSources(g, s, dp)
	out := &Interconnect{Sources: make(map[string][2][]string)}
	perPort := make(map[string][2]map[string]bool)
	for _, a := range dp.ALUs {
		perPort[a.Name] = [2]map[string]bool{make(map[string]bool), make(map[string]bool)}
		out.SignalInputs += muxable(len(a.L1)) + muxable(len(a.L2))
	}

	for _, n := range g.Nodes() {
		a := src.alu[n.ID]
		if a == nil {
			return nil, fmt.Errorf("rtl: node %q unbound", n.Name)
		}
		p, ok := s.At(n.ID)
		if !ok {
			return nil, fmt.Errorf("rtl: node %q unscheduled", n.Name)
		}
		for port, i := range OperandPorts(n, src.bind[n.ID].Swapped) {
			if i < 0 {
				continue
			}
			term, err := src.terminal(n.ArgIDs()[i], p.Step)
			if err != nil {
				return nil, err
			}
			perPort[a.Name][port][term] = true
		}
	}

	//hls:orderok writes are keyed by ALU name, source lists are sorted before use, and the counters are commutative += folds
	for name, ports := range perPort {
		var srcs [2][]string
		for i := 0; i < 2; i++ {
			for t := range ports[i] {
				srcs[i] = append(srcs[i], t)
			}
			sort.Strings(srcs[i])
			out.NumLinks += len(srcs[i])
			out.EffectiveInputs += muxable(len(srcs[i]))
		}
		out.Sources[name] = srcs
	}
	return out, nil
}

func muxable(n int) int {
	if n >= 2 {
		return n
	}
	return 0
}

// sources resolves a bound design's operand reads to the physical
// terminals that drive them, for AnalyzeInterconnect and PlanBuses.
type sources struct {
	g    *dfg.Graph
	s    *sched.Schedule
	alu  []*ALU     // by NodeID: the ALU executing the node
	bind []*Binding // by NodeID: its binding there
	reg  []int      // by SignalID: the register holding the signal, or -1
}

func newSources(g *dfg.Graph, s *sched.Schedule, dp *Datapath) *sources {
	src := &sources{
		g: g, s: s,
		alu:  make([]*ALU, g.Len()),
		bind: make([]*Binding, g.Len()),
		reg:  make([]int, g.NumSignals()),
	}
	for _, a := range dp.ALUs {
		for i := range a.Ops {
			if id := a.Ops[i].Node; id >= 0 && int(id) < g.Len() {
				src.alu[id], src.bind[id] = a, &a.Ops[i]
			}
		}
	}
	for i := range src.reg {
		src.reg[i] = -1
	}
	for r, grp := range dp.Registers {
		for _, iv := range grp {
			if g.HasSignal(iv.Signal) {
				src.reg[iv.Signal] = r
			}
		}
	}
	return src
}

// terminal resolves signal sig read at readStep to its physical source.
func (src *sources) terminal(sig dfg.SignalID, readStep int) (string, error) {
	r := src.reg[sig]
	prod := src.g.Producer(sig)
	if prod == nil {
		if r >= 0 {
			return "reg:" + strconv.Itoa(r), nil
		}
		return "in:" + src.g.SignalName(sig), nil
	}
	pp, _ := src.s.At(prod.ID)
	if pp.Step+prod.Cycles-1 == readStep {
		// Chained: a direct combinational line from the producing ALU.
		if a := src.alu[prod.ID]; a != nil {
			return "alu:" + a.Name, nil
		}
		return "", fmt.Errorf("rtl: chained producer %q unbound", prod.Name)
	}
	if r < 0 {
		return "", fmt.Errorf("rtl: signal %q read at step %d but not registered", prod.Name, readStep)
	}
	return "reg:" + strconv.Itoa(r), nil
}

// EffectiveMuxArea recomputes the design's multiplexer area from the
// interconnect analysis: each port's area is priced by its distinct
// terminal count instead of its signal count, quantifying the §5.7
// sharing gain.
func (d *Datapath) EffectiveMuxArea(ic *Interconnect) float64 {
	area := 0.0
	for _, srcs := range ic.Sources {
		area += d.Lib.MuxArea(len(srcs[0])) + d.Lib.MuxArea(len(srcs[1]))
	}
	return area
}

// BusPlan is the paper's alternative interconnect style ("multiplexers
// (or buses)", §4.1): instead of per-port multiplexers, shared buses
// carry one transfer each per control step.
type BusPlan struct {
	// Buses is the minimum number of buses: the peak number of
	// simultaneous distinct transfers (source terminal → port) in any
	// control step.
	Buses int

	// TransfersPerStep records the distinct transfer count per step.
	TransfersPerStep []int
}

// PlanBuses sizes a bus-based interconnect for the design: in each
// control step, every operand read is one transfer, with reads of the
// same terminal in the same step sharing a bus grant per destination.
func PlanBuses(g *dfg.Graph, s *sched.Schedule, dp *Datapath) (*BusPlan, error) {
	src := newSources(g, s, dp)
	perStep := make([]map[string]bool, s.CS+1)
	for i := range perStep {
		perStep[i] = make(map[string]bool)
	}
	for _, n := range g.Nodes() {
		p, _ := s.At(n.ID)
		a, dest, swapped := src.alu[n.ID], "?", false
		if a != nil {
			dest, swapped = a.Name, src.bind[n.ID].Swapped
		}
		for port, i := range OperandPorts(n, swapped) {
			if i < 0 {
				continue
			}
			term, err := src.terminal(n.ArgIDs()[i], p.Step)
			if err != nil {
				return nil, err
			}
			if strings.HasPrefix(term, "alu:") {
				continue // chained lines bypass the buses
			}
			perStep[p.Step][fmt.Sprintf("%s->%s.%d", term, dest, port)] = true
		}
	}
	plan := &BusPlan{TransfersPerStep: make([]int, s.CS+1)}
	for step := 1; step <= s.CS; step++ {
		plan.TransfersPerStep[step] = len(perStep[step])
		if plan.TransfersPerStep[step] > plan.Buses {
			plan.Buses = plan.TransfersPerStep[step]
		}
	}
	return plan, nil
}
