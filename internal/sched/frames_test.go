package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dfg"
	"repro/internal/op"
)

// chain builds in1 -> n1 -> n2 -> ... -> nk (a pure dependency chain).
func chain(t *testing.T, k int) *dfg.Graph {
	t.Helper()
	g := dfg.New("chain")
	if err := g.AddInput("in"); err != nil {
		t.Fatal(err)
	}
	prev := "in"
	for i := 1; i <= k; i++ {
		name := "n" + string(rune('0'+i))
		if _, err := g.AddOp(name, op.Add, prev, prev); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	return g
}

func TestFramesChain(t *testing.T) {
	g := chain(t, 3)
	fr, err := ComputeFrames(g, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantASAP := []int{1, 2, 3}
	wantALAP := []int{3, 4, 5}
	for i, n := range g.Nodes() {
		f := fr[n.ID]
		if f.ASAP != wantASAP[i] || f.ALAP != wantALAP[i] {
			t.Errorf("%s: frame = %+v, want {%d %d}", n.Name, f, wantASAP[i], wantALAP[i])
		}
		if f.Mobility() != 2 {
			t.Errorf("%s: mobility = %d, want 2", n.Name, f.Mobility())
		}
	}
}

func TestFramesTight(t *testing.T) {
	g := chain(t, 4)
	fr, err := ComputeFrames(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if fr[n.ID].Mobility() != 0 {
			t.Errorf("%s: mobility = %d on a tight chain", n.Name, fr[n.ID].Mobility())
		}
	}
}

func TestFramesInfeasible(t *testing.T) {
	g := chain(t, 5)
	_, err := ComputeFrames(g, 4, 0)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InfeasibleError", err)
	}
	if ie.Need != 5 || ie.CS != 4 {
		t.Errorf("InfeasibleError = %+v", ie)
	}
	if _, err := ComputeFrames(g, 0, 0); err == nil {
		t.Error("cs=0 accepted")
	}
}

func TestFramesMulticycle(t *testing.T) {
	// in -> m(2 cycles) -> a ; cs = 4
	g := dfg.New("mc")
	g.AddInput("in")
	m, _ := g.AddOp("m", op.Mul, "in", "in")
	g.SetCycles(m, 2)
	a, _ := g.AddOp("a", op.Add, "m", "in")
	fr, err := ComputeFrames(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := fr[m]; f.ASAP != 1 || f.ALAP != 2 {
		t.Errorf("m frame = %+v, want {1 2}", f)
	}
	if f := fr[a]; f.ASAP != 3 || f.ALAP != 4 {
		t.Errorf("a frame = %+v, want {3 4}", f)
	}
}

func TestFramesIndependentOps(t *testing.T) {
	g := dfg.New("indep")
	g.AddInput("in")
	a, _ := g.AddOp("a", op.Add, "in", "in")
	b, _ := g.AddOp("b", op.Mul, "in", "in")
	fr, err := ComputeFrames(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []dfg.NodeID{a, b} {
		if f := fr[id]; f.ASAP != 1 || f.ALAP != 3 {
			t.Errorf("node %d frame = %+v, want {1 3}", id, f)
		}
	}
}

func TestFramesChaining(t *testing.T) {
	// Three dependent adds (40ns each) under a 100ns clock: two fit in one
	// step, the third spills to the next.
	g := chain(t, 3)
	fr, err := ComputeFrames(g, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.Nodes()
	if f := fr[ids[0].ID]; f.ASAP != 1 {
		t.Errorf("n1 ASAP = %d, want 1", f.ASAP)
	}
	if f := fr[ids[1].ID]; f.ASAP != 1 {
		t.Errorf("n2 ASAP = %d, want 1 (chained)", f.ASAP)
	}
	if f := fr[ids[2].ID]; f.ASAP != 2 {
		t.Errorf("n3 ASAP = %d, want 2 (chain overflow)", f.ASAP)
	}
	// ALAP: n3 must end by step 2; n2 can chain with n3? No: n3 at step 2
	// leaves 60ns before it, so n2 fits at step 2 start; n1 then chains too?
	// n1+n2+n3 = 120ns > 100ns, so n1's latest is step 1... check monotone
	// legality instead of exact values:
	for i, n := range ids {
		f := fr[n.ID]
		if f.ALAP < f.ASAP {
			t.Errorf("%s: ALAP %d < ASAP %d", n.Name, f.ALAP, f.ASAP)
		}
		if i > 0 && fr[ids[i-1].ID].ASAP > f.ASAP {
			t.Errorf("ASAP not monotone along chain at %s", n.Name)
		}
	}
}

func TestFramesChainingInfeasibleWithoutIt(t *testing.T) {
	// The same 3-chain cannot meet cs=2 without chaining.
	g := chain(t, 3)
	if _, err := ComputeFrames(g, 2, 0); err == nil {
		t.Fatal("cs=2 without chaining should be infeasible")
	}
	if _, err := ComputeFrames(g, 2, 100); err != nil {
		t.Fatalf("cs=2 with chaining should be feasible: %v", err)
	}
}

func TestFramesChainingWholeChainInOneStep(t *testing.T) {
	// 2 adds (80ns) fit a 100ns clock in one step.
	g := chain(t, 2)
	fr, err := ComputeFrames(g, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if f := fr[n.ID]; f.ASAP != 1 || f.ALAP != 1 {
			t.Errorf("%s frame = %+v, want {1 1}", n.Name, f)
		}
	}
}

func TestFramesChainingRejectsOversizedDelay(t *testing.T) {
	g := chain(t, 1)
	n := g.Nodes()[0]
	g.SetDelayNs(n.ID, 150)
	_, err := ComputeFrames(g, 3, 100)
	var ce *ClockError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ClockError", err)
	}
	if ce.Node != n.Name || ce.DelayNs != 150 || ce.ClockNs != 100 {
		t.Errorf("ClockError = %+v", ce)
	}
	want := fmt.Sprintf("sched: %s: node %q delay 150.0ns exceeds clock 100.0ns; mark it multicycle", g.Name, n.Name)
	if err.Error() != want {
		t.Errorf("message %q, want %q", err, want)
	}
	// Marking it multicycle fixes it.
	g.SetCycles(n.ID, 2)
	if _, err := ComputeFrames(g, 3, 100); err != nil {
		t.Errorf("multicycle fix rejected: %v", err)
	}
}

func TestFramesChainingMulticycleBoundaries(t *testing.T) {
	// add(40) -> mul(2 cycles) : mul must start at a step boundary, so its
	// ASAP start is step 2 even though the add ends mid-step 1.
	g := dfg.New("mixed")
	g.AddInput("in")
	g.AddOp("a", op.Add, "in", "in")
	m, _ := g.AddOp("m", op.Mul, "a", "a")
	g.SetCycles(m, 2)
	fr, err := ComputeFrames(g, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if f := fr[m]; f.ASAP != 2 || f.ALAP != 2 {
		t.Errorf("mul frame = %+v, want {2 2}", f)
	}
}

func TestPriorityOrderBasic(t *testing.T) {
	// Diamond: s and p feed d. Make p 2-cycle so it is the critical op.
	g := dfg.New("prio")
	g.AddInput("a")
	s, _ := g.AddOp("s", op.Add, "a", "a")
	p, _ := g.AddOp("p", op.Mul, "a", "a")
	g.SetCycles(p, 2)
	d, _ := g.AddOp("d", op.Sub, "s", "p")
	fr, err := ComputeFrames(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := PriorityOrder(g, fr)
	if len(order) != 3 {
		t.Fatalf("order len = %d", len(order))
	}
	// p: frame {1,1} mob 0; s: {1,2} mob 1; d: {3,3}.
	if order[0] != p || order[1] != s || order[2] != d {
		t.Errorf("order = %v, want [%d %d %d]", order, p, s, d)
	}
}

func TestPriorityMobilityRule(t *testing.T) {
	// Two independent single-cycle ops with equal ALAP: lower mobility first.
	g := dfg.New("mob")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Add, "a", "a") // frame {1,3}
	g.AddOp("y", op.Mul, "x", "x")         // forces x's ALAP earlier? no: use chain
	z, _ := g.AddOp("z", op.Sub, "a", "a") // frame {1,4}
	fr, err := ComputeFrames(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr[x].ALAP >= fr[z].ALAP {
		t.Skip("frame shapes changed; test premise broken")
	}
	order := PriorityOrder(g, fr)
	posX, posZ := indexOf(order, x), indexOf(order, z)
	if posX > posZ {
		t.Errorf("x (earlier ALAP) should precede z: order %v", order)
	}
}

func TestPriorityMulticycleInversion(t *testing.T) {
	// Two 2-cycle ops with mobility difference 1 < k=2: rule inverts, the
	// more mobile op goes first.
	g := dfg.New("inv")
	g.AddInput("a")
	m1, _ := g.AddOp("m1", op.Mul, "a", "a")
	g.SetCycles(m1, 2)
	m2, _ := g.AddOp("m2", op.Mul, "a", "a")
	g.SetCycles(m2, 2)
	// Constrain m1 to finish one step earlier via a successor chain.
	a1, _ := g.AddOp("a1", op.Add, "m1", "a")
	g.AddOp("a2", op.Add, "a1", "a")
	fr, err := ComputeFrames(g, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// m1: {1,2} mob 1; m2: {1,4} mob 3. ALAP differs so primary rule
	// applies; craft equal ALAP instead:
	_ = a1
	fr[m2] = Frame{ASAP: 1, ALAP: 2} // mob 1 vs m1 mob... make m1 {1,2} mob 1, m2 {2,2} mob 0
	fr[m1] = Frame{ASAP: 1, ALAP: 2}
	fr[m2] = Frame{ASAP: 2, ALAP: 2}
	order := PriorityOrder(g, fr)
	// |mob diff| = 1 < 2 so the MORE mobile (m1, mob 1) goes first.
	if indexOf(order, m1) > indexOf(order, m2) {
		t.Errorf("multicycle inversion not applied: order %v", order)
	}
}

func indexOf(ids []dfg.NodeID, id dfg.NodeID) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}
