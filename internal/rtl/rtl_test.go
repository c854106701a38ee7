package rtl

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/library"
	"repro/internal/op"
)

func addNode(t *testing.T, g *dfg.Graph, name string, k op.Kind, args ...string) *dfg.Node {
	t.Helper()
	id, err := g.AddOp(name, k, args...)
	if err != nil {
		t.Fatal(err)
	}
	return g.Node(id)
}

// inputGraph returns a graph whose primary inputs carry the given names
// (a repeated name is declared once), for tests that name intervals.
func inputGraph(t testing.TB, names ...string) *dfg.Graph {
	t.Helper()
	g := dfg.New("signals")
	for _, name := range names {
		if err := g.AddInput(name); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// sig is the ID of the named signal of g.
func sig(t testing.TB, g *dfg.Graph, name string) dfg.SignalID {
	t.Helper()
	id, ok := g.Signal(name)
	if !ok {
		t.Fatalf("graph %s has no signal %q", g.Name, name)
	}
	return id
}

func testGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New("rtl")
	for _, in := range []string{"a", "b", "c", "d"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestMuxGrowthCommutativeSharing(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	n2 := addNode(t, g, "n2", op.Add, "b", "a") // swapped duplicate inputs
	lib := library.NCRLike()
	alu := NewDatapath(lib).AddALU(lib.Single(op.Add))
	alu.Bind(n1, 1)
	if len(alu.L1) != 1 || len(alu.L2) != 1 {
		t.Fatalf("after first bind: L1=%v L2=%v", alu.L1, alu.L2)
	}
	// n2 reversed: the commutative swap makes its inputs free.
	growth, swapped := alu.PresenceOf(n2).Orient(n2)
	if growth != 0 || !swapped {
		t.Errorf("Orient = %d swapped=%v, want 0,true", growth, swapped)
	}
	alu.Bind(n2, 2)
	if len(alu.L1) != 1 || len(alu.L2) != 1 {
		t.Errorf("swap not exploited: L1=%v L2=%v", alu.L1, alu.L2)
	}
	if !alu.Ops[1].Swapped {
		t.Error("binding not recorded as swapped")
	}
}

func TestMuxGrowthNonCommutative(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Sub, "a", "b")
	n2 := addNode(t, g, "n2", op.Sub, "b", "a")
	lib := library.NCRLike()
	alu := NewDatapath(lib).AddALU(lib.Single(op.Sub))
	alu.Bind(n1, 1)
	growth, swapped := alu.PresenceOf(n2).Orient(n2)
	if swapped {
		t.Error("non-commutative op swapped")
	}
	if growth != 2 {
		t.Errorf("growth = %d, want 2 (b and a are new on the opposite ports)", growth)
	}
}

func TestMuxGrowthUnary(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Not, "a")
	n2 := addNode(t, g, "n2", op.Not, "a")
	lib := library.NCRLike()
	alu := NewDatapath(lib).AddALU(lib.Single(op.Not))
	alu.Bind(n1, 1)
	if growth, _ := alu.PresenceOf(n2).Orient(n2); growth != 0 {
		t.Errorf("unary shared-input growth = %d, want 0", growth)
	}
}

func TestMuxGrowthDoesNotMutate(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	lib := library.NCRLike()
	alu := NewDatapath(lib).AddALU(lib.Single(op.Add))
	alu.PresenceOf(n1).Orient(n1)
	if len(alu.L1) != 0 || len(alu.L2) != 0 {
		t.Error("PresenceOf or Orient mutated the ALU")
	}
}

func TestPackRegistersBasic(t *testing.T) {
	// Three values: two disjoint lifetimes share a register, one overlaps.
	g := inputGraph(t, "v1", "v2", "v3")
	regs := PackRegisters(g, []Interval{
		{Signal: sig(t, g, "v1"), Birth: 1, Death: 3},
		{Signal: sig(t, g, "v2"), Birth: 3, Death: 5},
		{Signal: sig(t, g, "v3"), Birth: 2, Death: 4},
	})
	if len(regs) != 2 {
		t.Fatalf("registers = %d, want 2", len(regs))
	}
}

func TestPackRegistersDropsUnstored(t *testing.T) {
	g := inputGraph(t, "chained", "v")
	regs := PackRegisters(g, []Interval{
		{Signal: sig(t, g, "chained"), Birth: 2, Death: 2}, // consumed within its step
		{Signal: sig(t, g, "v"), Birth: 1, Death: 2},
	})
	if len(regs) != 1 || len(regs[0]) != 1 || regs[0][0].Signal != sig(t, g, "v") {
		t.Fatalf("packing = %v", regs)
	}
}

func TestPackRegistersDeterministic(t *testing.T) {
	g := inputGraph(t, "b", "a", "c")
	ivals := []Interval{
		{Signal: sig(t, g, "b"), Birth: 1, Death: 4},
		{Signal: sig(t, g, "a"), Birth: 1, Death: 4},
		{Signal: sig(t, g, "c"), Birth: 4, Death: 6},
	}
	r1 := PackRegisters(g, ivals)
	// Reversed input order must give the same packing.
	rev := []Interval{ivals[2], ivals[1], ivals[0]}
	r2 := PackRegisters(g, rev)
	if len(r1) != len(r2) {
		t.Fatalf("non-deterministic register count: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if len(r1[i]) != len(r2[i]) {
			t.Fatalf("register %d differs", i)
		}
		for j := range r1[i] {
			if r1[i][j].Signal != r2[i][j].Signal {
				t.Fatalf("register %d slot %d: %q vs %q", i, j, g.SignalName(r1[i][j].Signal), g.SignalName(r2[i][j].Signal))
			}
		}
	}
}

func TestPackRegistersProperties(t *testing.T) {
	// Property: packing is legal (no overlap within a register) and no
	// worse than the trivial one-register-per-value packing; count is
	// also at least the max number of simultaneously live values (the
	// left-edge optimum for interval graphs).
	var letters []string
	for i := 0; i < 26; i++ {
		letters = append(letters, string(rune('a'+i)))
	}
	g := inputGraph(t, letters...)
	f := func(raw []struct{ B, L uint8 }) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		ivals := make([]Interval, 0, len(raw))
		for i, r := range raw {
			b := int(r.B % 12)
			ivals = append(ivals, Interval{
				Signal: sig(t, g, letters[i%26]),
				Birth:  b,
				Death:  b + 1 + int(r.L%5),
			})
		}
		regs := PackRegisters(g, ivals)
		for _, grp := range regs {
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					if grp[i].overlaps(grp[j]) {
						return false
					}
				}
			}
		}
		// Optimality for interval packing: #regs == max overlap depth.
		depth := 0
		for tm := 0; tm < 20; tm++ {
			d := 0
			for _, iv := range ivals {
				if iv.Birth <= tm && tm < iv.Death {
					d++
				}
			}
			if d > depth {
				depth = d
			}
		}
		return len(regs) == depth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDatapathCost(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	n2 := addNode(t, g, "n2", op.Add, "c", "d")
	lib := library.NCRLike()
	dp := NewDatapath(lib)
	alu := dp.AddALU(lib.Single(op.Add))
	alu.Bind(n1, 1)
	alu.Bind(n2, 2)
	dp.AssignRegisters(g, []Interval{
		{Signal: n1.OutID(), Birth: 1, Death: 3},
		{Signal: n2.OutID(), Birth: 2, Death: 3},
	})
	if err := dp.Validate(g); err != nil {
		t.Fatal(err)
	}
	c := dp.Cost()
	if c.NumALUs != 1 || c.NumRegs != 2 {
		t.Errorf("cost = %+v", c)
	}
	if c.NumMux != 2 || c.NumMuxInputs != 4 {
		t.Errorf("mux stats = %d/%d, want 2 muxes with 4 inputs", c.NumMux, c.NumMuxInputs)
	}
	wantTotal := lib.Single(op.Add).Area + 2*lib.MuxArea(2) + 2*lib.RegArea
	if c.Total != wantTotal {
		t.Errorf("Total = %v, want %v", c.Total, wantTotal)
	}
}

func TestSingleSourcePortIsFree(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	lib := library.NCRLike()
	dp := NewDatapath(lib)
	alu := dp.AddALU(lib.Single(op.Add))
	alu.Bind(n1, 1)
	c := dp.Cost()
	// One signal per port: no multiplexers at all.
	if c.NumMux != 0 || c.MuxArea != 0 {
		t.Errorf("single-source ports should be free: %+v", c)
	}
}

func TestALUSummary(t *testing.T) {
	lib := library.NCRLike()
	dp := NewDatapath(lib)
	addsub, _ := lib.Lookup(library.ComposeName(op.Add, op.Sub))
	dp.AddALU(addsub)
	dp.AddALU(addsub)
	dp.AddALU(lib.Single(op.Mul))
	got := dp.ALUSummary()
	if got != "(*); 2(+-)" {
		t.Errorf("ALUSummary = %q", got)
	}
}

func TestFindBinding(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	lib := library.NCRLike()
	dp := NewDatapath(lib)
	alu := dp.AddALU(lib.Single(op.Add))
	alu.Bind(n1, 1)
	got, ok := dp.FindBinding(n1.ID)
	if !ok || got != alu {
		t.Error("FindBinding failed")
	}
	if _, ok := dp.FindBinding(99); ok {
		t.Error("FindBinding(99) succeeded")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	g := testGraph(t)
	n1 := addNode(t, g, "n1", op.Add, "a", "b")
	lib := library.NCRLike()
	dp := NewDatapath(lib)
	a1 := dp.AddALU(lib.Single(op.Add))
	a2 := dp.AddALU(lib.Single(op.Add))
	a1.Bind(n1, 1)
	a2.Bind(n1, 2)
	if err := dp.Validate(g); err == nil {
		t.Error("double binding accepted")
	}

	dp2 := NewDatapath(lib)
	a := dp2.AddALU(lib.Single(op.Add))
	a.L1 = []dfg.SignalID{sig(t, g, "a"), sig(t, g, "a")}
	if err := dp2.Validate(g); err == nil {
		t.Error("duplicate mux input accepted")
	}

	dp3 := NewDatapath(lib)
	dp3.Registers = [][]Interval{{
		{Signal: sig(t, g, "a"), Birth: 1, Death: 4},
		{Signal: sig(t, g, "b"), Birth: 2, Death: 3},
	}}
	dp3.ALUs = nil
	if err := dp3.Validate(g); err == nil {
		t.Error("overlapping register occupants accepted")
	}
}

func TestIntervalSemantics(t *testing.T) {
	a := Interval{Signal: 0, Birth: 1, Death: 3}
	b := Interval{Signal: 1, Birth: 3, Death: 5}
	if a.overlaps(b) || b.overlaps(a) {
		t.Error("touching intervals should not overlap (write at end of step 3, read gone)")
	}
	c := Interval{Signal: 2, Birth: 2, Death: 4}
	if !a.overlaps(c) {
		t.Error("overlapping intervals not detected")
	}
	if (Interval{Birth: 2, Death: 2}).Stored() {
		t.Error("same-step value flagged as stored")
	}
	sort.Strings(nil) // keep sort imported for the determinism test
}
