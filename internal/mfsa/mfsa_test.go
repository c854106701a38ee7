package mfsa

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/library"
	"repro/internal/op"
	"repro/internal/sched"
)

func synth(t *testing.T, g *dfg.Graph, opt Options) *Result {
	t.Helper()
	res, err := Synthesize(g, opt)
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", g.Name, err)
	}
	if err := res.Schedule.Verify(nil); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := res.Datapath.Validate(g); err != nil {
		t.Fatalf("datapath: %v", err)
	}
	return res
}

// checkBindings asserts every operation is bound exactly once to a
// capable ALU at its scheduled step.
func checkBindings(t *testing.T, g *dfg.Graph, res *Result) {
	t.Helper()
	for _, n := range g.Nodes() {
		a, ok := res.Datapath.FindBinding(n.ID)
		if !ok {
			t.Fatalf("node %q unbound", n.Name)
		}
		if !a.Unit.Can(n.Op) {
			t.Errorf("node %q (op %v) bound to incapable %s", n.Name, n.Op, a.Unit.Name)
		}
		p, _ := res.Schedule.At(n.ID)
		found := false
		for _, b := range a.Ops {
			if b.Node == n.ID && b.Step == p.Step {
				found = true
			}
		}
		if !found {
			t.Errorf("node %q binding step mismatch", n.Name)
		}
	}
}

func TestFacetSynthesis(t *testing.T) {
	ex := benchmarks.Facet()
	for _, cs := range ex.TimeConstraints {
		res := synth(t, benchmarks.Facet().Graph, Options{CS: cs})
		checkBindings(t, ex.Graph, res)
		if res.Cost.Total <= 0 {
			t.Errorf("cs=%d: non-positive cost", cs)
		}
		if res.Cost.NumALUs == 0 || res.Cost.NumRegs == 0 {
			t.Errorf("cs=%d: degenerate datapath %+v", cs, res.Cost)
		}
	}
}

func TestLooserTimeConstraintIsNotMoreExpensive(t *testing.T) {
	// More steps allow more sharing: ALU area at T=5 must not exceed T=4.
	c4 := synth(t, benchmarks.Facet().Graph, Options{CS: 4}).Cost
	c5 := synth(t, benchmarks.Facet().Graph, Options{CS: 5}).Cost
	if c5.ALUArea > c4.ALUArea {
		t.Errorf("ALU area grew with looser T: %v -> %v", c4.ALUArea, c5.ALUArea)
	}
}

func TestStyle2NoSelfLoops(t *testing.T) {
	for _, mk := range []func() *benchmarks.Example{benchmarks.Facet, benchmarks.Diffeq} {
		ex := mk()
		cs := ex.TimeConstraints[len(ex.TimeConstraints)-1]
		res := synth(t, ex.Graph, Options{CS: cs, Style: Style2})
		if err := VerifyStyle2(ex.Graph, res.Datapath); err != nil {
			t.Errorf("%s: %v", ex.Name, err)
		}
	}
}

func TestStyle2Overhead(t *testing.T) {
	// §6: style 2 costs more than style 1 but by a bounded margin. The
	// paper reports 2–11%; with our multiplier-heavy synthetic library a
	// multiplication-dominated example can be forced into one extra
	// multiplier (diffeq: m4's parents occupy both style-1 multipliers),
	// so the band here is wider. Style 2 must never be cheaper beyond
	// noise, and never cost more than double.
	for _, mk := range []func() *benchmarks.Example{benchmarks.Facet, benchmarks.Diffeq, benchmarks.ARLattice} {
		ex := mk()
		cs := ex.TimeConstraints[len(ex.TimeConstraints)-1]
		c1 := synth(t, mk().Graph, Options{CS: cs, Style: Style1}).Cost.Total
		c2 := synth(t, mk().Graph, Options{CS: cs, Style: Style2}).Cost.Total
		ratio := c2 / c1
		if ratio < 0.95 || ratio > 2.0 {
			t.Errorf("%s: style2/style1 = %.3f outside [0.95, 2.0] (%.0f vs %.0f)",
				ex.Name, ratio, c2, c1)
		}
	}
}

func TestCommutativeMuxSharing(t *testing.T) {
	// Two adds with mirrored operands at different steps: binding both to
	// one ALU with the swap optimization needs no multiplexers at all.
	g := dfg.New("mirror")
	g.AddInput("a")
	g.AddInput("b")
	g.AddOp("x", op.Add, "a", "b")
	g.AddOp("y", op.Add, "x", "a") // chain forces step 2; shares port signals partially
	res := synth(t, g, Options{CS: 2})
	if res.Cost.NumALUs != 1 {
		t.Fatalf("ALUs = %d, want 1", res.Cost.NumALUs)
	}
}

func TestRegisterAccounting(t *testing.T) {
	// x born step 1, consumed step 3; y born 2, consumed 3: lifetimes
	// [1,3) and [2,3) overlap -> 2 registers.
	g := dfg.New("regs")
	g.AddInput("a")
	g.AddOp("x", op.Add, "a", "a")
	g.AddOp("y", op.Sub, "a", "a")
	g.AddOp("z", op.Mul, "x", "y")
	res := synth(t, g, Options{CS: 3, Limits: map[string]int{"fu_sub": 1, "fu_add": 1}})
	// however scheduled, z's result is also held one boundary.
	if res.Cost.NumRegs < 2 {
		t.Errorf("registers = %d, want >= 2", res.Cost.NumRegs)
	}
	if res.Cost.RegArea != float64(res.Cost.NumRegs)*res.Datapath.Lib.RegArea {
		t.Error("register area inconsistent with count")
	}
}

func TestRegisterInputsOption(t *testing.T) {
	g := dfg.New("ri")
	g.AddInput("a")
	g.AddInput("b")
	g.AddOp("x", op.Add, "a", "b")
	without := synth(t, g, Options{CS: 1}).Cost.NumRegs
	g2 := dfg.New("ri2")
	g2.AddInput("a")
	g2.AddInput("b")
	g2.AddOp("x", op.Add, "a", "b")
	with := synth(t, g2, Options{CS: 1, RegisterInputs: true}).Cost.NumRegs
	if with <= without {
		t.Errorf("RegisterInputs: %d vs %d, want more registers with inputs", with, without)
	}
}

func TestWeightsShiftTradeoffs(t *testing.T) {
	// Emphasizing ALU cost must not produce a larger ALU area than the
	// balanced optimizer on the same problem.
	ex := benchmarks.Diffeq()
	cs := 6
	balanced := synth(t, benchmarks.Diffeq().Graph, Options{CS: cs}).Cost
	aluHeavy := synth(t, benchmarks.Diffeq().Graph, Options{
		CS:      cs,
		Weights: Weights{Time: 1, ALU: 50, Mux: 1, Reg: 1},
	}).Cost
	if aluHeavy.ALUArea > balanced.ALUArea {
		t.Errorf("ALU-weighted area %v > balanced %v", aluHeavy.ALUArea, balanced.ALUArea)
	}
	_ = ex
}

func TestRestrictedLibrary(t *testing.T) {
	lib := library.NCRLike()
	sub, err := lib.Restrict("fu_add", "fu_mul")
	if err != nil {
		t.Fatal(err)
	}
	g := dfg.New("r")
	g.AddInput("a")
	g.AddOp("x", op.Add, "a", "a")
	g.AddOp("y", op.Mul, "x", "a")
	res := synth(t, g, Options{CS: 2, Lib: sub})
	if res.Cost.NumALUs != 2 {
		t.Errorf("ALUs = %d, want 2", res.Cost.NumALUs)
	}
	// An op the restricted library cannot serve fails cleanly.
	g2 := dfg.New("r2")
	g2.AddInput("a")
	g2.AddOp("x", op.Div, "a", "a")
	if _, err := Synthesize(g2, Options{CS: 2, Lib: sub}); err == nil {
		t.Error("unservable op accepted")
	}
}

func TestPipelinedUnits(t *testing.T) {
	// Two 2-cycle muls with overlapping windows: on pipelined multipliers
	// they share one instance.
	g := dfg.New("pipe")
	g.AddInput("a")
	m1, _ := g.AddOp("m1", op.Mul, "a", "a")
	g.SetCycles(m1, 2)
	m2, _ := g.AddOp("m2", op.Mul, "a", "a")
	g.SetCycles(m2, 2)
	g.AddOp("s", op.Add, "m1", "m2")

	lib := library.NCRLike()
	pipedLib, err := lib.Restrict("pfu_mul", "fu_add")
	if err != nil {
		t.Fatal(err)
	}
	res := synth(t, g, Options{CS: 4, Lib: pipedLib, UsePipelinedUnits: true})
	if res.Cost.NumALUs != 2 { // one pipelined multiplier + one adder
		t.Errorf("ALUs = %d, want 2: %s", res.Cost.NumALUs, res.Datapath.ALUSummary())
	}
	// Without UsePipelinedUnits, the pipelined cell is not a candidate.
	if _, err := Synthesize(g, Options{CS: 4, Lib: pipedLib}); err == nil {
		t.Error("pipelined-only library accepted without UsePipelinedUnits")
	}
}

// TestCandidateUnitsPerKindAndCycles mixes 1- and 2-cycle multiplies
// under UsePipelinedUnits, in both declaration orders: on the NCR
// library only the 2-cycle one may go to the 2-stage pfu_mul, and a
// library whose only multiplier is pfu_mul cannot take the 1-cycle one.
func TestCandidateUnitsPerKindAndCycles(t *testing.T) {
	want := map[int][]string{
		1: {"alu_add_sub_mul", "fu_mul"},
		2: {"alu_add_sub_mul", "fu_mul", "pfu_mul"},
	}
	piped, err := library.NCRLike().Restrict("pfu_mul", "fu_add")
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range [][]int{{1, 2}, {2, 1}} {
		g := dfg.New("mixed")
		g.AddInput("a")
		for i, c := range cycles {
			id, err := g.AddOp(fmt.Sprintf("m%d", i), op.Mul, "a", "a")
			if err != nil {
				t.Fatal(err)
			}
			g.SetCycles(id, c)
		}
		popt, err := prepare(g, Options{CS: 4, UsePipelinedUnits: true})
		if err != nil {
			t.Fatal(err)
		}
		st := newState(g, popt, nil)
		for _, n := range g.Nodes() {
			var got []string
			for _, u := range st.unitsFor(n) {
				got = append(got, u.Name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[n.Cycles]) {
				t.Errorf("cycles %v: %d-cycle %s gets %v, want %v", cycles, n.Cycles, n.Name, got, want[n.Cycles])
			}
		}
		if _, err := prepare(g, Options{CS: 4, Lib: piped, UsePipelinedUnits: true}); err == nil {
			t.Errorf("cycles %v: a pfu_mul-only library accepted a 1-cycle multiply", cycles)
		}
	}
}

func TestMultifunctionMerging(t *testing.T) {
	// Add and sub at distinct steps with a shared-capable library: MFSA
	// should reuse one (+-) ALU rather than open two singles.
	lib := library.NCRLike()
	addsub, err := lib.Restrict(library.ComposeName(op.Add, op.Sub))
	if err != nil {
		t.Fatal(err)
	}
	g := dfg.New("merge")
	g.AddInput("a")
	g.AddOp("x", op.Add, "a", "a")
	g.AddOp("y", op.Sub, "x", "a")
	res := synth(t, g, Options{CS: 2, Lib: addsub})
	if res.Cost.NumALUs != 1 {
		t.Errorf("ALUs = %d, want 1 shared (+-)", res.Cost.NumALUs)
	}
	if got := res.Datapath.ALUSummary(); got != "(+-)" {
		t.Errorf("ALUSummary = %q", got)
	}
}

func TestChainedSynthesis(t *testing.T) {
	ex := benchmarks.Chained()
	res := synth(t, ex.Graph, Options{CS: 4, ClockNs: ex.ClockNs})
	if res.Schedule.ClockNs != ex.ClockNs {
		t.Error("ClockNs not propagated")
	}
	checkBindings(t, ex.Graph, res)
}

func TestMutualExclusionShares(t *testing.T) {
	g := dfg.New("mx")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "a", "a")
	g.AddOp("ux", op.Add, "x", "a")
	g.AddOp("uy", op.Sub, "y", "a")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	res := synth(t, g, Options{CS: 2})
	mulALUs := 0
	for _, a := range res.Datapath.ALUs {
		if a.Unit.Can(op.Mul) {
			mulALUs++
		}
	}
	if mulALUs != 1 {
		t.Errorf("multiplier ALUs = %d, want 1 (exclusive sharing)", mulALUs)
	}
}

func TestErrors(t *testing.T) {
	g := dfg.New("e")
	g.AddInput("a")
	g.AddOp("x", op.Add, "a", "a")
	if _, err := Synthesize(g, Options{}); err == nil {
		t.Error("missing CS accepted")
	}
	// Loop nodes are rejected with guidance.
	body := dfg.New("b")
	body.AddInput("p")
	body.AddOp("q", op.Add, "p", "p")
	g2 := dfg.New("e2")
	g2.AddInput("a")
	g2.AddLoop("l", body, "q", map[string]string{"p": "a"})
	if _, err := Synthesize(g2, Options{CS: 4}); err == nil {
		t.Error("loop node accepted")
	}
	// Infeasible time constraint.
	g3 := dfg.New("e3")
	g3.AddInput("a")
	g3.AddOp("x", op.Add, "a", "a")
	g3.AddOp("y", op.Add, "x", "x")
	if _, err := Synthesize(g3, Options{CS: 1}); err == nil {
		t.Error("cs below critical path accepted")
	}
}

func TestLimitsRespected(t *testing.T) {
	ex := benchmarks.Diffeq()
	limits := map[string]int{"fu_mul": 2}
	res, err := Synthesize(ex.Graph, Options{CS: 6, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range res.Datapath.ALUs {
		if a.Unit.Name == "fu_mul" {
			count++
		}
	}
	if count > 2 {
		t.Errorf("fu_mul instances = %d, limit 2", count)
	}
}

func TestAllBenchmarksSynthesize(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			opt := Options{CS: cs, ClockNs: ex.ClockNs}
			res, err := Synthesize(ex.Graph, opt)
			if err != nil {
				t.Errorf("%s cs=%d: %v", ex.Name, cs, err)
				continue
			}
			if err := res.Schedule.Verify(nil); err != nil {
				t.Errorf("%s cs=%d: %v", ex.Name, cs, err)
			}
			if err := res.Datapath.Validate(ex.Graph); err != nil {
				t.Errorf("%s cs=%d: %v", ex.Name, cs, err)
			}
		}
	}
}

func TestRandomGraphsSynthesize(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kinds := []op.Kind{op.Add, op.Sub, op.Mul, op.Lt, op.And, op.Or}
	for trial := 0; trial < 25; trial++ {
		g := dfg.New(fmt.Sprintf("rs%d", trial))
		g.AddInput("i0")
		g.AddInput("i1")
		names := []string{"i0", "i1"}
		l := 8 + r.Intn(18)
		for i := 0; i < l; i++ {
			k := kinds[r.Intn(len(kinds))]
			name := fmt.Sprintf("n%d", i)
			if _, err := g.AddOp(name, k, names[r.Intn(len(names))], names[r.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		cs := g.CriticalPathCycles() + r.Intn(4)
		style := Style1
		if trial%2 == 1 {
			style = Style2
		}
		res, err := Synthesize(g, Options{CS: cs, Style: style})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Verify(nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Datapath.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if style == Style2 {
			if err := VerifyStyle2(g, res.Datapath); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		// Cost must be consistent: totals add up.
		c := res.Cost
		if c.Total != c.ALUArea+c.MuxArea+c.RegArea {
			t.Fatalf("trial %d: cost breakdown inconsistent: %+v", trial, c)
		}
	}
}

func TestScheduleTypesAreUnitNames(t *testing.T) {
	ex := benchmarks.Facet()
	res := synth(t, ex.Graph, Options{CS: 5})
	lib := library.NCRLike()
	for _, n := range ex.Graph.Nodes() {
		p, _ := res.Schedule.At(n.ID)
		if _, ok := lib.Lookup(p.Type); !ok {
			t.Errorf("placement type %q is not a library unit", p.Type)
		}
	}
	_ = sched.Placement{}
}

// sameResult asserts two synthesis results are bit-identical: every
// placement, every ALU binding and mux list, every register interval,
// and the cost breakdown.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gs, ws := got.Schedule, want.Schedule
	if gs.CS != ws.CS {
		t.Fatalf("%s: schedule shape differs", label)
	}
	for _, n := range ws.Graph.Nodes() {
		gp, gok := gs.At(n.ID)
		wp, wok := ws.At(n.ID)
		if gok != wok {
			t.Fatalf("%s: schedule shape differs", label)
		}
		if gp != wp {
			t.Fatalf("%s: node %d placed %+v, fresh run places %+v", label, n.ID, gp, wp)
		}
	}
	gd, wd := got.Datapath, want.Datapath
	if len(gd.ALUs) != len(wd.ALUs) {
		t.Fatalf("%s: %d ALUs != %d", label, len(gd.ALUs), len(wd.ALUs))
	}
	for i := range wd.ALUs {
		ga, wa := gd.ALUs[i], wd.ALUs[i]
		if ga.Name != wa.Name || ga.Unit.Name != wa.Unit.Name ||
			fmt.Sprint(ga.Ops) != fmt.Sprint(wa.Ops) ||
			fmt.Sprint(ga.L1) != fmt.Sprint(wa.L1) || fmt.Sprint(ga.L2) != fmt.Sprint(wa.L2) {
			t.Fatalf("%s: ALU %d differs:\n%+v\nfresh:\n%+v", label, i, ga, wa)
		}
	}
	if fmt.Sprint(gd.Registers) != fmt.Sprint(wd.Registers) {
		t.Fatalf("%s: register packing differs", label)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %+v != fresh %+v", label, got.Cost, want.Cost)
	}
}

// TestNoTraceSameResult checks NoTrace changes only the metadata, never
// the synthesis outcome.
func TestNoTraceSameResult(t *testing.T) {
	for _, ex := range benchmarks.All() {
		g := ex.Graph
		opt := Options{CS: g.CriticalPathCycles() + 3}
		with, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		opt.NoTrace = true
		without, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if without.Schedule.Trace != nil {
			t.Fatalf("%s: NoTrace run recorded a trace", g.Name)
		}
		sameResult(t, ex.Name+"/notrace", without, with)
	}
}
