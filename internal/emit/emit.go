// Package emit renders a synthesized design as a structural Verilog-style
// netlist: the datapath (ALU instances with their input multiplexers and
// the register bank) plus the FSM control path. The output is a textual
// deliverable in the spirit of the RTL structures the paper's §6 costs
// against the NCR library; it is library-relative and documents the
// structure rather than targeting a particular simulator.
package emit

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// namer assigns collision-free Verilog identifiers. sanitize is lossy —
// "a+b" and "a-b" both flatten to "a_b" — so distinct source signals are
// uniqued with a numeric suffix, and generated names never shadow the
// fixed infrastructure identifiers (clk, rst, state, ...). Port names
// are pre-assigned in declaration order so Verilog and Testbench agree
// on the module interface.
//
// Every other identifier is assigned at its first use, so the order the
// text names signals in decides which of two colliding names gets the
// suffix: ports (inputs sorted, then outputs sorted), input taps,
// R0..Rn, the wires the register writes name (in state and write
// order), then the remaining node wires in NodeID order. Identifiers
// sit in slices indexed by position or dfg.SignalID, so naming a signal
// again is one lookup.
type namer struct {
	g    *dfg.Graph
	ins  []string        // primary inputs, sorted
	outs []string        // primary outputs, sorted
	port []string        // input ports by position in ins, then output ports by position in outs
	sig  []dfg.SignalID  // the signals of the ports, in port order
	wire []string        // signal wires (input taps and node results) by SignalID
	reg  []string        // register identifiers by index
	used map[string]bool // identifiers already taken

	// other names what lies outside the graph's slots — a vector key
	// that is not an input, a write of a signal or register the graph
	// and datapath lack — by namespaced key; only a hand-built controller
	// or vector reaches it.
	other map[string]string
}

func newNamer(g *dfg.Graph, regs int) *namer {
	ins, outs := g.Inputs(), g.Outputs()
	nm := &namer{
		g: g, ins: ins, outs: outs,
		port: make([]string, 0, len(ins)+len(outs)),
		sig:  make([]dfg.SignalID, 0, len(ins)+len(outs)),
		wire: make([]string, g.NumSignals()),
		reg:  make([]string, regs),
		used: make(map[string]bool, 5+2*len(ins)+len(outs)+g.Len()+regs),
	}
	for _, id := range []string{"clk", "rst", "state", "sig", "errors"} {
		nm.used[id] = true
	}
	for _, in := range ins {
		nm.port = append(nm.port, nm.fresh(in))
	}
	for _, out := range outs {
		nm.port = append(nm.port, nm.fresh("out_"+out))
	}
	for _, names := range [2][]string{ins, outs} {
		for _, name := range names {
			id, _ := g.Signal(name)
			nm.sig = append(nm.sig, id)
		}
	}
	return nm
}

// fresh derives an identifier from want, appending _2, _3, ... until it
// is unique, and takes it.
func (nm *namer) fresh(want string) string {
	base := sanitize(want)
	id := base
	for i := 2; nm.used[id]; i++ {
		id = base + "_" + strconv.Itoa(i)
	}
	nm.used[id] = true
	return id
}

// outside is the identifier of a name no slot holds, kept per
// namespaced key.
func (nm *namer) outside(key, want string) string {
	if id, ok := nm.other[key]; ok {
		return id
	}
	if nm.other == nil {
		nm.other = make(map[string]string)
	}
	id := nm.fresh(want)
	nm.other[key] = id
	return id
}

// input is the port identifier for the i-th primary input.
func (nm *namer) input(i int) string { return nm.port[i] }

// output is the port identifier for the i-th primary output.
func (nm *namer) output(i int) string { return nm.port[len(nm.ins)+i] }

// inputNamed is the port identifier for a primary input given by name.
func (nm *namer) inputNamed(sig string) string {
	if i, ok := slices.BinarySearch(nm.ins, sig); ok {
		return nm.input(i)
	}
	return nm.outside("in:"+sig, sig)
}

// wireOf is the wire carrying signal id: an input tap, or a node's
// result wire.
func (nm *namer) wireOf(id dfg.SignalID) string {
	if !nm.g.HasSignal(id) {
		label := nm.g.SignalLabel(id)
		return nm.outside("sig:"+label, "w_"+label)
	}
	if w := nm.wire[id]; w != "" {
		return w
	}
	nm.wire[id] = nm.fresh("w_" + nm.g.SignalName(id))
	return nm.wire[id]
}

// register is the register-bank identifier for register r.
func (nm *namer) register(r int) string {
	if r < 0 || r >= len(nm.reg) {
		return nm.outside("reg:"+strconv.Itoa(r), "R"+strconv.Itoa(r))
	}
	if nm.reg[r] == "" {
		nm.reg[r] = nm.fresh("R" + strconv.Itoa(r))
	}
	return nm.reg[r]
}

// writer appends text to one builder; num holds a formatted number or
// quoted string on its way in.
type writer struct {
	strings.Builder
	num []byte
}

// put writes each string in turn.
func (w *writer) put(ss ...string) {
	for _, s := range ss {
		w.WriteString(s)
	}
}

// int writes v in decimal, as %d does.
func (w *writer) int(v int) {
	w.num = strconv.AppendInt(w.num[:0], int64(v), 10)
	w.Write(w.num)
}

// uint writes v in decimal.
func (w *writer) uint(v uint64) {
	w.num = strconv.AppendUint(w.num[:0], v, 10)
	w.Write(w.num)
}

// quote writes s as a Go string literal, as %q does.
func (w *writer) quote(s string) {
	w.num = strconv.AppendQuote(w.num[:0], s)
	w.Write(w.num)
}

// signals writes the names g gives a signal list as %v writes a string
// slice: [a b c].
func (w *writer) signals(g *dfg.Graph, ids []dfg.SignalID) {
	w.WriteByte('[')
	for i, id := range ids {
		if i > 0 {
			w.WriteByte(' ')
		}
		w.WriteString(g.SignalLabel(id))
	}
	w.WriteByte(']')
}

// Verilog renders the complete design.
func Verilog(g *dfg.Graph, s *sched.Schedule, dp *rtl.Datapath, c *ctrl.Controller) string {
	nm := newNamer(g, len(dp.Registers))
	var b writer
	b.Grow(netlistSize(nm, dp, c))
	b.put("// Generated by MFSA synthesis: ")
	b.int(s.CS)
	b.put(" control steps, ")
	b.int(len(dp.ALUs))
	b.put(" ALUs, ")
	b.int(len(dp.Registers))
	b.put(" registers\n// ALU set: ", dp.ALUSummary(), "\nmodule ", sanitize(g.Name), " (\n")
	b.put("    input  wire        clk,\n    input  wire        rst,\n")
	for i := range nm.ins {
		b.put("    input  wire [31:0] ", nm.input(i), ",\n")
	}
	for i := range nm.outs {
		b.put("    output wire [31:0] ", nm.output(i))
		if i < len(nm.outs)-1 {
			b.put(",")
		}
		b.put("\n")
	}
	b.put(");\n\n")

	emitState(&b, c)
	emitInputTaps(&b, nm)
	emitRegisters(&b, nm, c)
	emitALUs(&b, nm, dp, c)
	for i := range nm.outs {
		b.put("    assign ", nm.output(i), " = ", nm.wireOf(nm.sig[len(nm.ins)+i]), ";\n")
	}
	b.put("endmodule\n")
	return b.String()
}

// netlistSize estimates the netlist's length from the names it prints,
// so the builder is allocated once.
func netlistSize(nm *namer, dp *rtl.Datapath, c *ctrl.Controller) int {
	g := nm.g
	size := 1024 + 32*len(c.States) + 24*len(dp.Registers)
	for _, in := range nm.ins {
		size += 64 + 4*len(in) // port, tap wire and tap assignment
	}
	for _, n := range g.Nodes() {
		size += 80 + 4*len(n.Name) // result wire, assignment, output port if any
	}
	for _, st := range c.States {
		for _, w := range st.Writes {
			size += 40 + 2*len(g.SignalLabel(w.Signal))
		}
	}
	for _, a := range dp.ALUs {
		size += 48 + len(a.Name)
		for _, l := range [2][]dfg.SignalID{a.L1, a.L2} {
			for _, id := range l {
				size += 1 + len(g.SignalLabel(id))
			}
		}
	}
	return size
}

// emitInputTaps binds each primary input port to the w_ wire the rest of
// the netlist references it by, so every operand read names a declared,
// driven wire.
func emitInputTaps(b *writer, nm *namer) {
	if len(nm.ins) == 0 {
		return
	}
	b.put("    // primary-input taps\n")
	for i := range nm.ins {
		b.put("    wire [31:0] ", nm.wireOf(nm.sig[i]), ";\n")
	}
	for i := range nm.ins {
		b.put("    assign ", nm.wireOf(nm.sig[i]), " = ", nm.input(i), ";\n")
	}
	b.put("\n")
}

func emitState(b *writer, c *ctrl.Controller) {
	n := len(c.States)
	b.put("    // control FSM: one state per control step\n    reg [")
	b.int(bits(n) - 1)
	b.put(":0] state;\n")
	restart := n
	if c.Latency > 0 {
		restart = c.Latency
		b.put("    // functional pipelining: a new iteration starts every ")
		b.int(c.Latency)
		b.put(" steps\n")
	}
	b.put("    always @(posedge clk) begin\n        if (rst) state <= 0;\n        else if (state == ")
	b.int(restart - 1)
	b.put(") state <= 0;\n        else state <= state + 1;\n    end\n\n")
}

func emitRegisters(b *writer, nm *namer, c *ctrl.Controller) {
	b.put("    // register bank (")
	b.int(len(nm.reg))
	b.put(" registers, left-edge packed)\n")
	for r := range nm.reg {
		b.put("    reg [31:0] ", nm.register(r), ";\n")
	}
	b.put("    always @(posedge clk) begin\n        case (state)\n")
	for i, st := range c.States {
		if len(st.Writes) == 0 {
			continue
		}
		b.put("        ")
		b.int(i)
		b.put(": begin\n")
		for _, w := range st.Writes {
			b.put("            ", nm.register(w.Reg), " <= ", nm.wireOf(w.Signal), "; // holds ")
			b.quote(nm.g.SignalLabel(w.Signal))
			b.put("\n")
		}
		b.put("        end\n")
	}
	b.put("        default: ;\n        endcase\n    end\n\n")
}

func emitALUs(b *writer, nm *namer, dp *rtl.Datapath, c *ctrl.Controller) {
	g := nm.g
	// Per-node result wires.
	for _, n := range g.Nodes() {
		b.put("    wire [31:0] ", nm.wireOf(n.OutID()), ";\n")
	}
	b.put("\n")
	for _, a := range dp.ALUs {
		b.put("    // ", sanitize(a.Name), ": ", a.Unit.Symbol(), " — L1=")
		b.signals(g, a.L1)
		b.put(" L2=")
		b.signals(g, a.L2)
		b.put("\n")
	}
	b.put("\n")
	// Each node's value as a combinational select of its operands; the
	// schedule guarantees its ALU computes it in its state. Both tables
	// are indexed by NodeID: aluByNode keeps the ALU of the last action
	// issuing the node, stepByNode the 1-based position of the first
	// state issuing it (0: none).
	aluByNode := make([]int32, g.Len())
	stepByNode := make([]int32, g.Len())
	for i, st := range c.States {
		for _, act := range st.Actions {
			aluByNode[act.Node] = int32(act.ALU)
			if stepByNode[act.Node] == 0 {
				stepByNode[act.Node] = int32(i + 1)
			}
		}
	}
	for _, n := range g.Nodes() { // in NodeID order
		out, args := nm.wireOf(n.OutID()), n.ArgIDs()
		switch {
		case n.IsLoop():
			b.put("    // folded loop ")
			b.quote(n.Name)
			b.put(": see submodule ", sanitize(n.Sub.Name), "\n")
			b.put("    assign ", out, " = 32'd0; // placeholder port of the loop submodule\n")
			continue
		case len(args) == 1:
			b.put("    assign ", out, " = ", vOp(n.Op.String()), " ", nm.wireOf(args[0]))
		default:
			b.put("    assign ", out, " = ", nm.wireOf(args[0]), " ", vOp(n.Op.String()), " ", nm.wireOf(args[1]))
		}
		b.put("; // ")
		if step := stepByNode[n.ID]; step > 0 {
			b.put(dp.ALULabel(int(aluByNode[n.ID])), " state S")
			b.int(int(step))
		} else {
			b.put(" state ?")
		}
		b.put("\n")
	}
	b.put("\n")
}

func bits(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

// sanitize maps s to a legal identifier, one underscore per rune outside
// [A-Za-z0-9_]; a name that is already legal comes back as is.
func sanitize(s string) string {
	if s == "" {
		return "sig"
	}
	legal := true
	for i := 0; i < len(s) && legal; i++ {
		legal = identByte(s[i])
	}
	if legal {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if r < 0x80 && identByte(byte(r)) {
			b.WriteByte(byte(r))
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func identByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func vOp(sym string) string {
	switch sym {
	case "neg":
		return "-"
	case "mov":
		return ""
	}
	return sym
}
