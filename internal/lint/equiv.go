package lint

// equiv.go is the translation-validation pass: a symbolic proof that
// every artifact layer of a synthesized design computes the same
// function as the behavioral data-flow graph it was synthesized from.
//
// Three evaluators each reduce one artifact to a canonical symbolic
// expression per design output, all interned in one shared
// symb.Builder:
//
//   1. the DFG reference semantics (a topological walk of the graph),
//   2. the scheduled datapath (walking the FSM controller state by
//      state through the register transfers and multiplexer
//      selections of rtl.Datapath),
//   3. the emitted Verilog, re-parsed by this package's netlist parser
//      and interpreted as a clocked netlist (the combinational assign
//      network from the input ports to the output ports).
//
// Because the builder hash-conses, pointer equality of the root
// expressions IS the equivalence proof. A divergence becomes a typed
// diagnostic (HL0601/HL0602) carrying a structural diff and — whenever
// the divergence can be instantiated — a concrete counterexample input
// vector, confirmed against the cycle-accurate simulator. Structural
// defects that block symbolic execution (an operand no register holds
// across a step boundary, a latch of a not-yet-computed wire, an
// out-of-range mux select) are HL0603/HL0604.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/symb"
)

var equivAnalyzer = &Analyzer{
	Name: "equiv",
	Doc:  "translation validation: symbolic DFG/datapath/netlist equivalence proof",
	Run:  runEquiv,
}

func runEquiv(ctx context.Context, u *Unit) diag.List {
	// The gate keeps only the findings, so it renders no Reference. On
	// cancellation the driver reports ctx.Err().
	cert, _ := certify(ctx, u, false)
	return cert.Diagnostics
}

// counterexampleSeeds is how many reproducible random vectors the pass
// tries when instantiating a symbolic divergence.
const counterexampleSeeds = 64

// OutputProof records the per-layer verdict for one design output.
type OutputProof struct {
	// Output is the design output (graph sink) the proof is about.
	Output string `json:"output"`

	// Reference is the canonical reference expression, depth-capped.
	Reference string `json:"reference"`

	// Datapath is "equal" or "diverges": whether the controller-driven
	// datapath walk reduced to the same interned expression.
	Datapath string `json:"datapath"`

	// Netlist is "equal", "diverges", or "skipped" (no netlist in the
	// unit, or the design folds loop nodes the emitter only stubs).
	Netlist string `json:"netlist"`
}

// Certificate is the machine-readable result of one translation
// validation: the per-output proofs, the concrete cross-check verdict,
// and every diagnostic the pass raised.
type Certificate struct {
	Design string `json:"design"`

	// Status is "certified" (every layer of every output proved equal),
	// "refuted" (at least one diagnostic), or "skipped" (the unit lacks
	// a schedule or datapath to validate).
	Status string `json:"status"`

	// CS is the schedule's control-step count.
	CS int `json:"cs,omitempty"`

	Outputs []OutputProof `json:"outputs,omitempty"`

	// CrossCheck is the concrete confirmation verdict: "pass (N seeds)",
	// "fail: ...", or "skipped: symbolic refutation".
	CrossCheck string `json:"cross_check,omitempty"`

	Diagnostics diag.List `json:"diagnostics"`
}

// Certify runs the translation-validation pass over the unit and
// returns its certificate. The error is non-nil only when ctx is done,
// in which case the certificate holds the partial findings gathered so
// far. A unit without a schedule, datapath, or controller is "skipped":
// there is nothing to validate against the graph yet.
func Certify(ctx context.Context, u *Unit) (*Certificate, error) {
	return certify(ctx, u, true)
}

// certify is Certify; render says whether each proof carries its
// rendered Reference expression.
func certify(ctx context.Context, u *Unit, render bool) (*Certificate, error) {
	cert := &Certificate{Design: u.designName(), Status: "skipped", Diagnostics: diag.List{}}
	if u.Graph == nil || u.Schedule == nil || u.Datapath == nil || u.Controller == nil {
		return cert, nil
	}
	cert.CS = u.Schedule.CS
	ins := u.Graph.Inputs()
	e := &prover{
		// Every layer reduces to the reference's expressions when the
		// design is sound: one interior node per graph node at most.
		u: u, b: symb.NewBuilderSize(len(ins), u.Graph.Len()),
		g: u.Graph, s: u.Schedule, dp: u.Datapath, c: u.Controller,
		ins: ins, outs: u.Graph.Outputs(),
	}
	// Reference first: its topological walk interns the leaves in graph
	// order, so operand sorting by intern id is stable across layers.
	ref := e.dfgExprs()
	if err := ctx.Err(); err != nil {
		return e.finish(cert), err
	}
	dpv := e.datapathExprs(ctx)
	if err := ctx.Err(); err != nil {
		return e.finish(cert), err
	}
	netv, netSkipped := e.netlistExprs(ctx)
	if err := ctx.Err(); err != nil {
		return e.finish(cert), err
	}

	outputs := u.Outputs
	if len(outputs) == 0 {
		outputs = e.outs
	}
	for _, o := range outputs {
		if err := ctx.Err(); err != nil {
			return e.finish(cert), err
		}
		refE, ok := ref[o]
		if !ok {
			continue // output names no node: the dfg analyzer owns that report
		}
		proof := OutputProof{Output: o, Datapath: "equal", Netlist: "equal"}
		if render {
			proof.Reference = refE.String()
		}
		if netSkipped {
			proof.Netlist = "skipped"
		}
		var dpE *symb.Expr
		if id, ok := e.g.Signal(o); ok {
			dpE = dpv[id]
		}
		if dpE != refE {
			proof.Datapath = "diverges"
			e.reportDivergence(ctx, diag.CodeEquivDatapath, "datapath", o, refE, dpE)
		}
		if !netSkipped {
			if netE := netv[o]; netE != refE {
				proof.Netlist = "diverges"
				e.reportDivergence(ctx, diag.CodeEquivNetlist, "netlist", o, refE, netE)
			}
		}
		cert.Outputs = append(cert.Outputs, proof)
	}

	// Concrete confirmation hook: when the symbolic layers all agree,
	// the certificate is additionally backed by the N-seed simulator
	// cross-check; a symbolic refutation makes it redundant.
	switch {
	case len(e.diags) > 0:
		cert.CrossCheck = "skipped: symbolic refutation"
	default:
		err := sim.CrossCheckSeedsCtx(ctx, e.s, e.dp, 0, nil)
		switch {
		case err == nil:
			cert.CrossCheck = fmt.Sprintf("pass (%d seeds)", sim.DefaultCrossCheckSeeds)
		case ctx.Err() != nil:
			return e.finish(cert), ctx.Err()
		default:
			cert.CrossCheck = "fail: " + err.Error()
			e.report(diag.CodeEquivDatapath, "datapath", "",
				fmt.Sprintf("concrete cross-check refutes the symbolic certificate: %v", err),
				"the simulator and the symbolic walk disagree; one artifact changed under the pass")
		}
	}
	cert.Status = "certified" // finish downgrades to "refuted" on findings
	return e.finish(cert), nil
}

// prover carries the shared state of one Certify run.
type prover struct {
	u  *Unit
	b  *symb.Builder
	g  *dfg.Graph
	s  *sched.Schedule
	dp *rtl.Datapath
	c  *ctrl.Controller

	// ins and outs are the graph's sorted inputs and outputs.
	ins, outs []string

	diags diag.List
}

// finish stamps, sorts, and attaches the accumulated diagnostics.
func (e *prover) finish(cert *Certificate) *Certificate {
	for i := range e.diags {
		if e.diags[i].Analyzer == "" {
			e.diags[i].Analyzer = "equiv"
		}
		if e.diags[i].Design == "" {
			e.diags[i].Design = cert.Design
		}
	}
	e.diags.Sort()
	cert.Diagnostics = e.diags
	if len(e.diags) > 0 {
		cert.Status = "refuted"
	}
	return cert
}

func (e *prover) report(code, artifact, loc, msg, fix string) *diag.Diagnostic {
	e.diags = append(e.diags, diag.Diagnostic{
		Code: code, Severity: diag.Error, Artifact: artifact,
		Loc: loc, Message: msg, Fix: fix,
	})
	return &e.diags[len(e.diags)-1]
}

// poisonVar is the leaf standing in for a value symbolic execution
// could not derive; the ":" keeps it disjoint from every behavioral
// signal name the emitter could produce.
func (e *prover) poisonVar(sig string, step int) *symb.Expr {
	return e.b.Var(fmt.Sprintf("undef:%s@S%d", sig, step))
}

// --- layer 1: the DFG reference semantics -------------------------------

// dfgExprs reduces every graph signal to its canonical expression over
// the primary inputs by a topological walk.
func (e *prover) dfgExprs() map[string]*symb.Expr {
	vals := make(map[string]*symb.Expr, len(e.ins)+e.g.Len())
	for _, in := range e.ins {
		vals[in] = e.b.Var(in)
	}
	var args []*symb.Expr // Apply copies its operands, so one list serves every node
	for _, id := range e.g.TopoOrder() {
		n := e.g.Node(id)
		args = args[:0]
		for _, a := range n.Args {
			v, ok := vals[a]
			if !ok {
				v = e.b.Var("undef:" + a) // dangling edge: the dfg analyzer owns HL0011
			}
			args = append(args, v)
		}
		if n.IsLoop() {
			vals[n.Name] = e.loopExpr(n, args)
		} else {
			vals[n.Name] = e.b.Apply(n.Op, args...)
		}
	}
	return vals
}

// loopExpr symbolically evaluates a folded loop node's subgraph on the
// given (already symbolic) arguments, mirroring sim's concrete loop
// semantics: SubIns bind positionally to Args, SubOut is the result.
// Both the reference and the datapath layer funnel loops through here,
// so a loop body is proved once and compared by construction.
func (e *prover) loopExpr(n *dfg.Node, args []*symb.Expr) *symb.Expr {
	env := make(map[string]*symb.Expr, len(n.SubIns))
	for i, in := range n.SubIns {
		if i < len(args) {
			env[in] = args[i]
		}
	}
	for _, id := range n.Sub.TopoOrder() {
		sn := n.Sub.Node(id)
		sargs := make([]*symb.Expr, len(sn.Args))
		for i, a := range sn.Args {
			v, ok := env[a]
			if !ok {
				v = e.b.Var("undef:" + n.Name + "." + a)
			}
			sargs[i] = v
		}
		if sn.IsLoop() {
			env[sn.Name] = e.loopExpr(sn, sargs)
		} else {
			env[sn.Name] = e.b.Apply(sn.Op, sargs...)
		}
	}
	if v, ok := env[n.SubOut]; ok {
		return v
	}
	return e.b.Var("undef:" + n.Name + "." + n.SubOut)
}

// --- layer 2: the scheduled datapath ------------------------------------

// datapathExprs walks the FSM controller state by state, resolving
// every action's operands through its ALU's input multiplexers and
// latching register writes, and returns the symbolic value each signal
// wire carries when its action executes, indexed by dfg.SignalID (nil
// for a signal no action computes). The walk follows the ids the
// controller and datapath carry, never the graph's public Args, so a
// graph whose names drifted from its ids diverges from the reference.
// It enforces the register-transfer availability rules the simulator
// enforces concretely: a value read across a step boundary must be held
// by an allocated register over the whole span (HL0603), a value read
// in its own step is legal only as single-cycle chaining under a clock
// budget, and a latch of a wire that is not ready is a structural
// defect (HL0604).
func (e *prover) datapathExprs(ctx context.Context) []*symb.Expr {
	g := e.g
	topoIdx := make([]int, g.Len())
	for i, id := range g.TopoOrder() {
		topoIdx[id] = i
	}
	cov := e.dp.Coverage(g)

	// By SignalID: the value a signal's ALU computes, the finish step of
	// its action (0: never computed), and the value its register holds
	// (nil: never latched).
	wireVal := make([]*symb.Expr, g.NumSignals())
	wireReady := make([]int, g.NumSignals())
	latched := make([]*symb.Expr, g.NumSignals())

	// resolve yields the symbolic value the hardware delivers when an
	// operand signal is read during step t.
	resolve := func(sig dfg.SignalID, t int, chainOK bool, who string) *symb.Expr {
		if !g.HasSignal(sig) {
			name := g.SignalLabel(sig)
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("operand %q read in S%d is never computed by an earlier state", name, t),
				"schedule the producing operation before its consumer")
			return e.poisonVar(name, t)
		}
		name := g.SignalName(sig)
		if g.Producer(sig) == nil {
			return e.b.Var(name) // primary inputs are stable ports
		}
		switch r := wireReady[sig]; {
		case r == 0:
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("operand %q read in S%d is never computed by an earlier state", name, t),
				"schedule the producing operation before its consumer")
			return e.poisonVar(name, t)
		case r < t:
			// Crossed a step boundary: only a covering register carries
			// the value here.
			if !cov.Covers(sig, r, t) {
				d := e.report(diag.CodeEquivRegister, "datapath", name,
					fmt.Sprintf("value %q born in S%d is read in S%d but no allocated register holds it over [%d,%d]", name, r, t, r, t),
					"extend the value's storage interval or re-run register allocation")
				d.Counterexample = e.structuralCounterexample(ctx, name)
			}
			if lv := latched[sig]; lv != nil {
				return lv
			}
			return wireVal[sig] // uncovered and unlatched: the HL0603 above already refutes
		case r == t:
			if chainOK {
				return wireVal[sig]
			}
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("operand %q is read in S%d but only ready at the end of that step (chaining needs a clock budget and a single-cycle consumer)", name, t),
				"place the consumer one step later or enable chaining")
			return e.poisonVar(name, t)
		default: // r > t
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("operand %q is read in S%d before its producer finishes in S%d", name, t, r),
				"the schedule and controller disagree on the producer's step")
			return e.poisonVar(name, t)
		}
	}

	muxPort := func(alu *rtl.ALU, list []dfg.SignalID, sel, port, t int, chainOK bool, who string) *symb.Expr {
		switch {
		case sel < 0:
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("action %q leaves multiplexer port %d unselected in S%d", who, port, t),
				"the controller did not derive a mux select for a needed operand")
			return e.poisonVar(fmt.Sprintf("%s.mux%d", alu.Name, port), t)
		case sel >= len(list):
			e.report(diag.CodeEquivStructure, "datapath", who,
				fmt.Sprintf("action %q selects mux%d input %d of %s but the port has only %d inputs", who, port, sel, alu.Name, len(list)),
				"the controller's select and the datapath's mux tables diverged")
			return e.poisonVar(fmt.Sprintf("%s.mux%d", alu.Name, port), t)
		}
		return resolve(list[sel], t, chainOK, who)
	}

	var acts []*ctrl.Action
	for i := range e.c.States {
		if ctx.Err() != nil {
			return wireVal
		}
		st := &e.c.States[i]
		t := i + 1 // state i drives control step i+1

		// Controller actions are sorted by name; chaining makes values
		// flow between actions of one step, so process them in
		// dataflow (topological) order instead, unknown nodes last.
		acts = acts[:0]
		for j := range st.Actions {
			acts = append(acts, &st.Actions[j])
		}
		known := func(a *ctrl.Action) bool { return a.Node >= 0 && int(a.Node) < g.Len() }
		slices.SortStableFunc(acts, func(a, b *ctrl.Action) int {
			ka, kb := known(a), known(b)
			switch {
			case ka != kb:
				if ka {
					return -1
				}
				return 1
			case !ka:
				return 0
			}
			return cmp.Compare(topoIdx[a.Node], topoIdx[b.Node])
		})

		for _, act := range acts {
			if !known(act) {
				e.report(diag.CodeEquivStructure, "controller", g.NodeLabel(act.Node),
					fmt.Sprintf("S%d action names node id %d, which the graph does not define", t, act.Node),
					"controller and graph are out of sync")
				continue
			}
			n := g.Node(act.Node)
			chainOK := e.s.ClockNs > 0 && n.Cycles == 1
			var val *symb.Expr
			switch {
			case n.IsLoop():
				// Folded loops bypass the ALU/mux fabric; operands bind
				// by signal as in the simulator.
				args := make([]*symb.Expr, len(n.ArgIDs()))
				for ai, a := range n.ArgIDs() {
					args[ai] = resolve(a, t, chainOK, n.Name)
				}
				val = e.loopExpr(n, args)
			case !act.Func.Valid():
				e.report(diag.CodeEquivStructure, "controller", n.Name,
					fmt.Sprintf("S%d action for %q carries no valid ALU function", t, n.Name),
					"the controller lost the operation's opcode")
				val = e.poisonVar(n.Name, t)
			case act.ALU < 0 || act.ALU >= len(e.dp.ALUs):
				e.report(diag.CodeEquivStructure, "datapath", n.Name,
					fmt.Sprintf("S%d action for %q targets ALU %q which the datapath does not contain", t, n.Name, e.dp.ALULabel(act.ALU)),
					"binding names a functional unit that was never allocated")
				val = e.poisonVar(n.Name, t)
			default:
				// The hardware computes act.Func over whatever the mux
				// selects deliver — not what the graph says the node's
				// operands are. That gap is exactly what this layer
				// validates.
				alu := e.dp.ALUs[act.ALU]
				var args [2]*symb.Expr
				args[0] = muxPort(alu, alu.L1, act.Mux1Sel, 1, t, chainOK, n.Name)
				if act.Func.Arity() == 2 {
					args[1] = muxPort(alu, alu.L2, act.Mux2Sel, 2, t, chainOK, n.Name)
				}
				val = e.b.Apply(act.Func, args[:act.Func.Arity()]...)
			}
			cyc := n.Cycles
			if cyc < 1 {
				cyc = 1
			}
			wireVal[n.OutID()] = val
			wireReady[n.OutID()] = t + cyc - 1
		}

		for _, w := range st.Writes {
			name := g.SignalLabel(w.Signal)
			r := 0
			if g.HasSignal(w.Signal) {
				r = wireReady[w.Signal]
			}
			if r != t {
				was := "is never computed"
				if r > 0 {
					was = fmt.Sprintf("is driven only during S%d", r)
				}
				d := e.report(diag.CodeEquivStructure, "datapath", name,
					fmt.Sprintf("S%d latches %q into R%d but the wire %s", t, name, w.Reg, was),
					"the register transfer fires in a state where its source wire is not valid")
				d.Counterexample = e.structuralCounterexample(ctx, name)
				if g.HasSignal(w.Signal) {
					latched[w.Signal] = e.poisonVar(name, t)
				}
				continue
			}
			latched[w.Signal] = wireVal[w.Signal]
		}
	}
	return wireVal
}

// --- layer 3: the emitted netlist ---------------------------------------

// netlistExprs interprets the unit's parsed Verilog as a clocked
// netlist: the combinational assign network is evaluated from the input
// ports to the output ports. The emitter renders every node as one
// continuous assign of its operand wires (the FSM sequences which value
// is live when; the datapath layer above proves that sequencing), so
// the comb network's function must equal the reference's. Designs with
// folded loop nodes are skipped without a finding: the emitter stubs
// their wires with a placeholder constant.
func (e *prover) netlistExprs(ctx context.Context) (map[string]*symb.Expr, bool) {
	if e.u.Netlist == "" {
		return nil, true
	}
	for _, n := range e.g.Nodes() {
		if n.IsLoop() {
			return nil, true
		}
	}
	m, _ := e.u.netlist() // parse findings belong to the netlist analyzer
	if m.name == "" {
		e.report(diag.CodeEquivStructure, "netlist", "module",
			"netlist cannot be interpreted for equivalence: no module declaration",
			"re-emit the design")
		return nil, true
	}

	// Port mapping is positional against the graph, mirroring the
	// emitter: clk and rst first, then one input port per graph input,
	// then one output port per graph output.
	var ins, outs []netID
	for _, id := range m.order {
		switch m.nets[id].kind {
		case netInput:
			ins = append(ins, id)
		case netOutput:
			outs = append(outs, id)
		}
	}
	if len(ins) >= 2 {
		ins = ins[2:] // clk, rst
	}
	if len(ins) != len(e.ins) || len(outs) != len(e.outs) {
		e.report(diag.CodeEquivStructure, "netlist", "module "+m.name,
			fmt.Sprintf("port shape mismatch: netlist has %d data inputs and %d outputs, graph has %d and %d",
				len(ins), len(outs), len(e.ins), len(e.outs)),
			"the module interface no longer matches the design")
		return nil, true
	}
	// val holds each net's value: an input port's leaf, or a driven
	// net's evaluated assign.
	val := make([]*symb.Expr, len(m.nets))
	for i, p := range ins {
		val[p] = e.b.Var(e.ins[i])
	}

	onStack := make([]bool, len(m.nets))
	var evalNet func(id netID) *symb.Expr
	operand := func(x netID) *symb.Expr {
		if x < 0 {
			return e.b.Const(m.lits[^x])
		}
		return evalNet(x)
	}
	evalNet = func(id netID) *symb.Expr {
		if v := val[id]; v != nil {
			return v
		}
		name := m.nets[id].name
		if onStack[id] {
			e.report(diag.CodeEquivStructure, "netlist", name,
				fmt.Sprintf("combinational cycle through %q blocks symbolic evaluation", name),
				"break the loop; see the netlist analyzer's cycle report")
			return e.poisonVar("net:"+name, 0)
		}
		// First driver wins, as in the analyzer's driver checks;
		// duplicate drivers are the netlist analyzer's HL0503.
		ai := m.nets[id].firstCont
		if ai < 0 {
			// Undriven or a register: registers are write-only in the
			// emitted subset, so a read here is a defect the divergence
			// at the root will carry upward.
			return e.b.Var("undef:net:" + name)
		}
		a := &m.assigns[ai]
		onStack[id] = true
		var v *symb.Expr
		switch x := &a.expr; {
		case x.n == 0:
			e.report(diag.CodeEquivStructure, "netlist", fmt.Sprintf("line %d", a.line),
				fmt.Sprintf("assign to %q is outside the interpretable subset: %v", name, m.exprErr[ai]),
				"only the emitter's expression forms can be validated")
			v = e.poisonVar("net:"+name, 0)
		case x.kind() == op.Invalid:
			v = operand(x.args[0])
		default:
			var args [len(x.args)]*symb.Expr
			for i := range x.n {
				args[i] = operand(x.args[i])
			}
			v = e.b.Apply(x.kind(), args[:x.n]...)
		}
		onStack[id] = false
		val[id] = v
		return v
	}

	res := make(map[string]*symb.Expr, len(outs))
	for i, p := range outs {
		if ctx.Err() != nil {
			return res, false
		}
		res[e.outs[i]] = evalNet(p)
	}
	return res, false
}

// --- counterexamples ----------------------------------------------------

// reportDivergence files an HL0601/HL0602 with the structural diff and,
// when one of 64 reproducible vectors separates the two expressions, a
// concrete counterexample confirmed against the simulator.
func (e *prover) reportDivergence(ctx context.Context, code, artifact, output string, want, got *symb.Expr) {
	d := e.report(code, artifact, output,
		fmt.Sprintf("output %q: %s value diverges from the DFG reference: %s",
			output, artifact, symb.Diff(want, got)),
		"the artifact computes a different function than the behavior; follow the diff to the defective operand path")
	d.Counterexample = e.counterexample(ctx, output, want, got)
}

// counterexample searches reproducible random vectors for an input
// assignment separating want from got, then asks the simulator whether
// it reproduces the divergence concretely.
func (e *prover) counterexample(ctx context.Context, output string, want, got *symb.Expr) *diag.Counterexample {
	vars := make(map[string]bool)
	want.Vars(vars)
	got.Vars(vars)
	for _, in := range e.ins {
		vars[in] = true
	}
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	sort.Strings(names)
	isInput := make(map[string]bool, len(e.ins))
	for _, in := range e.ins {
		isInput[in] = true
	}
	for seed := 1; seed <= counterexampleSeeds; seed++ {
		if ctx.Err() != nil {
			return nil
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		env := make(map[string]int64, len(names))
		for _, v := range names {
			env[v] = int64(rng.Intn(201) - 100) // the RandomInputs distribution
		}
		w, g := want.Eval(env), got.Eval(env)
		if w == g {
			continue
		}
		inputs := make(map[string]int64, len(e.ins))
		for _, in := range e.ins {
			inputs[in] = env[in]
		}
		cx := &diag.Counterexample{Inputs: inputs, Output: output, Want: w, Got: g}
		e.simConfirm(ctx, cx)
		return cx
	}
	// The divergence did not instantiate (poison leaves can cancel, or
	// the expressions agree on the sampled region); the symbolic diff
	// stands on its own.
	return nil
}

// simConfirm runs the cycle-accurate RTL simulator on the
// counterexample's inputs. The simulator confirms the vector when it
// either rejects the artifact outright or computes a value different
// from the reference. It cannot see multiplexer selections, so a
// select-level corruption the symbolic walk catches may stay
// unconfirmed (SimConfirmed=false) while still being real.
func (e *prover) simConfirm(ctx context.Context, cx *diag.Counterexample) {
	vals, err := sim.RunRTLCtx(ctx, e.s, e.dp, cx.Inputs)
	switch {
	case err != nil && ctx.Err() != nil:
		// cancelled: leave unconfirmed
	case err != nil:
		cx.SimError = err.Error()
		cx.SimConfirmed = true
	case vals[cx.Output] != cx.Want:
		cx.SimConfirmed = true
	}
}

// structuralCounterexample witnesses a structural defect (HL0603/0604):
// a fixed reproducible vector on which the simulator is expected to
// reject the artifact.
func (e *prover) structuralCounterexample(ctx context.Context, sig string) *diag.Counterexample {
	inputs := sim.RandomInputs(e.g, 1)
	cx := &diag.Counterexample{Inputs: inputs, Output: sig}
	if ref, err := e.g.Eval(inputs); err == nil {
		cx.Want = ref[sig]
	}
	vals, err := sim.RunRTLCtx(ctx, e.s, e.dp, inputs)
	switch {
	case err != nil && ctx.Err() != nil:
	case err != nil:
		cx.SimError = err.Error()
		cx.SimConfirmed = true
	default:
		cx.Got = vals[sig]
		cx.SimConfirmed = cx.Got != cx.Want
	}
	return cx
}

// --- mutation harness ---------------------------------------------------

// Mutation is one seeded artifact corruption the soundness harness (and
// cmd/hlslint's -mutate flag) can inject into a synthesized unit. Each
// mutation models a realistic synthesis bug; the translation-validation
// pass must refuse to certify any unit it applies to.
type Mutation struct {
	Name string
	Doc  string

	// Apply corrupts the unit in place. It returns an error when the
	// unit does not expose the structural seam this mutation needs (for
	// example, a design without a non-commutative netlist operation).
	Apply func(u *Unit) error
}

// mutations is the registry, ordered by name.
var mutations = []Mutation{
	{
		Name: "commute-sub",
		Doc:  "swap the operands of the first non-commutative binary assign in the netlist",
		Apply: func(u *Unit) error {
			if u.Netlist == "" {
				return fmt.Errorf("unit has no netlist")
			}
			net, ok := commuteFirstNonCommutative(u.Netlist)
			if !ok {
				return fmt.Errorf("netlist has no non-commutative binary assign")
			}
			u.Netlist = net
			return nil
		},
	},
	{
		Name: "drop-register",
		Doc:  "delete the first allocated storage interval of a computed value",
		Apply: func(u *Unit) error {
			if u.Datapath == nil {
				return fmt.Errorf("unit has no datapath")
			}
			for r, grp := range u.Datapath.Registers {
				for i, iv := range grp {
					if iv.Stored() && iv.Birth >= 1 {
						u.Datapath.Registers[r] = append(append([]rtl.Interval(nil), grp[:i]...), grp[i+1:]...)
						return nil
					}
				}
			}
			return fmt.Errorf("no stored non-input interval to drop")
		},
	},
	{
		Name: "rebind-alu",
		Doc:  "retarget an action to a different ALU whose mux tables deliver other operands",
		Apply: func(u *Unit) error {
			if u.Controller == nil || u.Datapath == nil {
				return fmt.Errorf("unit has no controller or datapath")
			}
			alus := u.Datapath.ALUs
			for si := range u.Controller.States {
				for ai := range u.Controller.States[si].Actions {
					act := &u.Controller.States[si].Actions[ai]
					if act.ALU < 0 || act.ALU >= len(alus) {
						continue
					}
					cur := alus[act.ALU]
					if act.Mux1Sel < 0 || act.Mux1Sel >= len(cur.L1) {
						continue
					}
					for bi, b := range alus {
						if bi == act.ALU {
							continue
						}
						if act.Mux1Sel >= len(b.L1) || b.L1[act.Mux1Sel] != cur.L1[act.Mux1Sel] {
							act.ALU = bi
							return nil
						}
					}
				}
			}
			return fmt.Errorf("no action can be rebound to a diverging ALU")
		},
	},
	{
		Name: "shift-action",
		Doc:  "issue an operation one control step later than its register write expects",
		Apply: func(u *Unit) error {
			if u.Controller == nil || u.Graph == nil {
				return fmt.Errorf("unit has no controller or graph")
			}
			g, sts := u.Graph, u.Controller.States
			written := make([]bool, g.NumSignals())
			for _, st := range sts {
				for _, w := range st.Writes {
					if g.HasSignal(w.Signal) {
						written[w.Signal] = true
					}
				}
			}
			for si := 0; si < len(sts)-1; si++ {
				for ai, act := range sts[si].Actions {
					if act.Node < 0 || int(act.Node) >= g.Len() || !written[g.Node(act.Node).OutID()] {
						continue // only a latched value is guaranteed to expose the shift
					}
					sts[si].Actions = append(append([]ctrl.Action(nil), sts[si].Actions[:ai]...), sts[si].Actions[ai+1:]...)
					sts[si+1].Actions = append(sts[si+1].Actions, act)
					return nil
				}
			}
			return fmt.Errorf("no latched action before the final state")
		},
	},
	{
		Name: "swap-mux",
		Doc:  "swap the first two port-1 multiplexer inputs of an ALU an action selects from",
		Apply: func(u *Unit) error {
			if u.Controller == nil || u.Datapath == nil {
				return fmt.Errorf("unit has no controller or datapath")
			}
			used := make([]bool, len(u.Datapath.ALUs)) // ALUs with an action selecting L1[0] or L1[1]
			for _, st := range u.Controller.States {
				for _, act := range st.Actions {
					if (act.Mux1Sel == 0 || act.Mux1Sel == 1) && act.ALU >= 0 && act.ALU < len(used) {
						used[act.ALU] = true
					}
				}
			}
			for i, a := range u.Datapath.ALUs {
				if len(a.L1) >= 2 && used[i] {
					a.L1[0], a.L1[1] = a.L1[1], a.L1[0]
					return nil
				}
			}
			return fmt.Errorf("no ALU with two port-1 inputs under selection")
		},
	},
}

// Mutations lists the registered artifact corruptions sorted by name.
func Mutations() []Mutation {
	out := append([]Mutation(nil), mutations...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ApplyMutation corrupts the unit in place with the named mutation.
func ApplyMutation(u *Unit, name string) error {
	for _, m := range mutations {
		if m.Name == name {
			return m.Apply(u)
		}
	}
	names := make([]string, len(mutations))
	for i, m := range mutations {
		names[i] = m.Name
	}
	sort.Strings(names)
	return fmt.Errorf("lint: unknown mutation %q (have %v)", name, names)
}

// commuteFirstNonCommutative rewrites the first "assign x = a OP b;"
// whose operator is binary and non-commutative into "assign x = b OP
// a;", preserving everything else byte for byte.
func commuteFirstNonCommutative(text string) (string, bool) {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(strings.TrimLeft(line, " \t"), "assign ") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		semi := strings.IndexByte(line, ';')
		if eq < 0 || semi < eq {
			continue
		}
		ts, err := tokenizeNetExpr(line[eq+1 : semi])
		if err != nil || ts.n != 3 || ts.tok[1].kind != tokOp {
			continue
		}
		toks := ts.tok
		if k := toks[1].op; k.Commutative() || k.Arity() != 2 {
			continue
		}
		a, b := toks[0], toks[2]
		if a.kind != tokIdent || b.kind != tokIdent || a.text == b.text {
			continue
		}
		lines[i] = fmt.Sprintf("%s= %s %s %s%s", line[:eq], b.text, toks[1].text, a.text, line[semi:])
		return strings.Join(lines, "\n"), true
	}
	return text, false
}
