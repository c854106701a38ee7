package dfg

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/op"
)

// buildDiamond constructs:  a,b inputs; s=a+b; p=a*b; d=s-p
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for _, in := range []string{"a", "b"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddOp("s", op.Add, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("p", op.Mul, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("d", op.Sub, "s", "p"); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildAndValidate(t *testing.T) {
	g := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d, want 3", g.Len())
	}
	if got := g.Inputs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != "d" {
		t.Errorf("Outputs = %v", got)
	}
}

func TestConnectivity(t *testing.T) {
	g := buildDiamond(t)
	d, ok := g.Lookup("d")
	if !ok {
		t.Fatal("Lookup(d) failed")
	}
	if len(d.Preds()) != 2 {
		t.Fatalf("d.Preds = %v, want 2 preds", d.Preds())
	}
	s, _ := g.Lookup("s")
	if len(s.Succs()) != 1 || s.Succs()[0] != d.ID {
		t.Errorf("s.Succs = %v, want [%d]", s.Succs(), d.ID)
	}
	if len(s.Preds()) != 0 {
		t.Errorf("s.Preds = %v, want none (inputs are not nodes)", s.Preds())
	}
}

func TestDuplicatePredCollapses(t *testing.T) {
	g := New("dup")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x", op.Add, "a", "a"); err != nil {
		t.Fatal(err)
	}
	id, err := g.AddOp("y", op.Mul, "x", "x") // same producer twice
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Node(id); len(n.Preds()) != 1 {
		t.Errorf("y.Preds = %v, want a single collapsed edge", n.Preds())
	}
}

func TestErrors(t *testing.T) {
	g := New("err")
	if err := g.AddInput(""); err == nil {
		t.Error("empty input accepted")
	}
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x", op.Add, "a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddInput("x"); err == nil {
		t.Error("input colliding with node accepted")
	}
	if _, err := g.AddOp("x", op.Add, "a", "a"); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := g.AddOp("a", op.Add, "a", "a"); err == nil {
		t.Error("node colliding with input accepted")
	}
	if _, err := g.AddOp("y", op.Add, "a", "missing"); err == nil {
		t.Error("undefined arg accepted")
	}
	if _, err := g.AddOp("y", op.Add, "a"); err == nil {
		t.Error("bad arity accepted")
	}
	if _, err := g.AddOp("y", op.Kind(999), "a", "a"); err == nil {
		t.Error("invalid op accepted")
	}
	if _, err := g.AddOp("", op.Add, "a", "a"); err == nil {
		t.Error("empty name accepted")
	}
	if err := g.SetCycles(0, 0); err == nil {
		t.Error("SetCycles(0) accepted")
	}
	if err := g.SetCycles(99, 2); err == nil {
		t.Error("SetCycles on missing node accepted")
	}
	if err := g.SetDelayNs(0, -1); err == nil {
		t.Error("negative delay accepted")
	}
	if err := g.Tag(99, CondTag{1, 1}); err == nil {
		t.Error("Tag on missing node accepted")
	}
	// A rejected node leaves no trace: its defined argument's producer
	// keeps no successor link to it.
	if _, err := g.AddOp("y", op.Add, "x", "missing"); err == nil {
		t.Error("undefined second arg accepted")
	}
	if _, err := g.AddOp("z", op.Add, "a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil || len(g.Node(0).Succs()) != 0 {
		t.Errorf("after a rejected node: Validate %v, x's successors %v", err, g.Node(0).Succs())
	}
}

func TestFreeze(t *testing.T) {
	g := buildDiamond(t)
	g.Freeze()
	if err := g.AddInput("z"); err == nil {
		t.Error("AddInput on frozen graph accepted")
	}
	if _, err := g.AddOp("z", op.Add, "a", "b"); err == nil {
		t.Error("AddOp on frozen graph accepted")
	}
	c := g.Clone()
	if _, err := c.AddOp("z", op.Add, "a", "b"); err != nil {
		t.Errorf("clone should be unfrozen: %v", err)
	}
}

func TestNodePanicsOnBadID(t *testing.T) {
	g := buildDiamond(t)
	defer func() {
		if recover() == nil {
			t.Error("Node(99) did not panic")
		}
	}()
	g.Node(99)
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	g := buildDiamond(t)
	pos := make(map[NodeID]int)
	for i, id := range g.TopoOrder() {
		pos[id] = i
	}
	for _, n := range g.Nodes() {
		for _, p := range n.Preds() {
			if pos[p] >= pos[n.ID] {
				t.Errorf("node %q before its predecessor %d", n.Name, p)
			}
		}
	}
}

func TestCriticalPath(t *testing.T) {
	g := buildDiamond(t)
	if got := g.CriticalPathCycles(); got != 2 {
		t.Errorf("CriticalPathCycles = %d, want 2", got)
	}
	p, _ := g.Lookup("p")
	if err := g.SetCycles(p.ID, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.CriticalPathCycles(); got != 3 {
		t.Errorf("CriticalPathCycles with 2-cycle mul = %d, want 3", got)
	}
}

func TestMutualExclusion(t *testing.T) {
	g := New("mx")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, _ := g.AddOp("x", op.Add, "a", "a")
	y, _ := g.AddOp("y", op.Sub, "a", "a")
	z, _ := g.AddOp("z", op.Mul, "a", "a")
	if err := g.Tag(x, CondTag{Cond: 1, Branch: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Tag(y, CondTag{Cond: 1, Branch: 1}); err != nil {
		t.Fatal(err)
	}
	if !g.MutuallyExclusive(x, y) || !g.MutuallyExclusive(y, x) {
		t.Error("x,y should be mutually exclusive")
	}
	if g.MutuallyExclusive(x, z) {
		t.Error("x,z should not be mutually exclusive (z unconditional)")
	}
	if g.MutuallyExclusive(x, x) {
		t.Error("a node is never exclusive with itself")
	}
	// Same branch: not exclusive.
	w, _ := g.AddOp("w", op.Div, "a", "a")
	if err := g.Tag(w, CondTag{Cond: 1, Branch: 0}); err != nil {
		t.Fatal(err)
	}
	if g.MutuallyExclusive(x, w) {
		t.Error("same-branch nodes should not be exclusive")
	}
}

func TestNestedExclusion(t *testing.T) {
	// Nested if: outer cond 1, inner cond 2 inside branch 0 of cond 1.
	g := New("nested")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	inner0, _ := g.AddOp("i0", op.Add, "a", "a")
	inner1, _ := g.AddOp("i1", op.Sub, "a", "a")
	other, _ := g.AddOp("o", op.Mul, "a", "a")
	g.Tag(inner0, CondTag{1, 0}, CondTag{2, 0})
	g.Tag(inner1, CondTag{1, 0}, CondTag{2, 1})
	g.Tag(other, CondTag{1, 1})
	if !g.MutuallyExclusive(inner0, inner1) {
		t.Error("inner branches exclusive")
	}
	if !g.MutuallyExclusive(inner0, other) || !g.MutuallyExclusive(inner1, other) {
		t.Error("inner ops exclusive with the other outer branch")
	}
}

func TestEval(t *testing.T) {
	g := buildDiamond(t)
	vals, err := g.Eval(map[string]int64{"a": 5, "b": 3})
	if err != nil {
		t.Fatal(err)
	}
	if vals["s"] != 8 || vals["p"] != 15 || vals["d"] != -7 {
		t.Errorf("Eval = %v", vals)
	}
	if _, err := g.Eval(map[string]int64{"a": 5}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestLoopNode(t *testing.T) {
	body := New("body")
	if err := body.AddInput("acc"); err != nil {
		t.Fatal(err)
	}
	if err := body.AddInput("step"); err != nil {
		t.Fatal(err)
	}
	if _, err := body.AddOp("next", op.Add, "acc", "step"); err != nil {
		t.Fatal(err)
	}

	g := New("outer")
	g.AddInput("x")
	g.AddInput("y")
	id, err := g.AddLoop("loop", body, "next", map[string]string{"acc": "x", "step": "y"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCycles(id, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("out", op.Mul, "loop", "y"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.Node(id)
	if !n.IsLoop() || n.Cycles != 3 {
		t.Errorf("loop node misconfigured: %+v", n)
	}
	vals, err := g.Eval(map[string]int64{"x": 10, "y": 4})
	if err != nil {
		t.Fatal(err)
	}
	if vals["loop"] != 14 || vals["out"] != 56 {
		t.Errorf("loop Eval = %v", vals)
	}
	if got := g.CriticalPathCycles(); got != 4 {
		t.Errorf("critical path with 3-cycle loop = %d, want 4", got)
	}
}

func TestLoopErrors(t *testing.T) {
	body := New("body")
	body.AddInput("p")
	body.AddOp("q", op.Add, "p", "p")

	g := New("outer")
	g.AddInput("x")
	if _, err := g.AddLoop("l", nil, "q", nil); err == nil {
		t.Error("nil body accepted")
	}
	if _, err := g.AddLoop("l", body, "nosuch", map[string]string{"p": "x"}); err == nil {
		t.Error("bad SubOut accepted")
	}
	if _, err := g.AddLoop("l", body, "q", map[string]string{}); err == nil {
		t.Error("missing binds accepted")
	}
	if _, err := g.AddLoop("l", body, "q", map[string]string{"wrong": "x"}); err == nil {
		t.Error("wrong bind key accepted")
	}
	if _, err := g.AddLoop("l", body, "q", map[string]string{"p": "x"}); err != nil {
		t.Errorf("valid loop rejected: %v", err)
	}
}

// signalIDsError reports the first way g's signal IDs break the id-space
// contract: IDs dense and unique over inputs and node outputs, each name
// resolving to its ID, and each argument ID naming its Args entry.
func signalIDsError(g *Graph) error {
	if want := len(g.Inputs()) + g.Len(); g.NumSignals() != want {
		return fmt.Errorf("%d signals, want %d", g.NumSignals(), want)
	}
	seen := make([]bool, g.NumSignals())
	claim := func(name string, id SignalID) error {
		if id < 0 || int(id) >= len(seen) || seen[id] {
			return fmt.Errorf("%q: ID %d out of range or taken twice", name, id)
		}
		seen[id] = true
		if got, ok := g.Signal(name); !ok || got != id || g.SignalName(id) != name {
			return fmt.Errorf("%q: ID %d does not resolve both ways", name, id)
		}
		return nil
	}
	for _, in := range g.Inputs() {
		id, _ := g.Signal(in)
		if g.Producer(id) != nil {
			return fmt.Errorf("input %q has a producer", in)
		}
		if err := claim(in, id); err != nil {
			return err
		}
	}
	for _, n := range g.Nodes() {
		if g.Producer(n.OutID()) != n {
			return fmt.Errorf("node %q is not its output's producer", n.Name)
		}
		if err := claim(n.Name, n.OutID()); err != nil {
			return err
		}
		if len(n.ArgIDs()) != len(n.Args) {
			return fmt.Errorf("node %q: %d arg IDs for %d args", n.Name, len(n.ArgIDs()), len(n.Args))
		}
		for i, id := range n.ArgIDs() {
			if g.SignalName(id) != n.Args[i] {
				return fmt.Errorf("node %q: arg %d ID %d names %q, not %q", n.Name, i, id, g.SignalName(id), n.Args[i])
			}
		}
	}
	return nil
}

func TestClone(t *testing.T) {
	g := buildDiamond(t)
	s, _ := g.Lookup("s")
	g.Tag(s.ID, CondTag{1, 0})
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if err := signalIDsError(c); err != nil {
		t.Fatalf("clone signal IDs: %v", err)
	}
	for _, n := range g.Nodes() {
		if cn := c.Node(n.ID); cn.OutID() != n.OutID() || !slices.Equal(cn.ArgIDs(), n.ArgIDs()) {
			t.Fatalf("clone renumbered %q's signals", n.Name)
		}
	}
	// Mutating the clone must not affect the original.
	cs, _ := c.Lookup("s")
	cs.Excl[0].Branch = 9
	if g.Node(s.ID).Excl[0].Branch != 0 {
		t.Error("clone shares Excl storage with original")
	}
	if _, err := c.AddOp("extra", op.Add, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if g.Len() == c.Len() {
		t.Error("clone shares node storage with original")
	}
	if err := c.AddInput("late"); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Signal("extra"); ok || g.NumSignals() != 5 {
		t.Error("clone shares the signal index with original")
	}
	if err := signalIDsError(c); err != nil {
		t.Errorf("clone after AddOp and AddInput: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := buildDiamond(t)
	g.Node(0).Cycles = 0
	if err := g.Validate(); err == nil {
		t.Error("Validate missed zero cycles")
	}
	g = buildDiamond(t)
	g.Node(2).preds[0] = 2 // self/forward pred
	if err := g.Validate(); err == nil {
		t.Error("Validate missed forward pred")
	}
	g = buildDiamond(t)
	g.Node(0).succs = append(g.Node(0).succs, 1) // bogus back-link
	if err := g.Validate(); err == nil {
		t.Error("Validate missed broken succ link")
	}
	g = buildDiamond(t)
	g.Node(2).args[1] = g.Node(2).args[0] // d reads s twice by ID, s and p by name
	if err := g.Validate(); err == nil {
		t.Error("Validate missed a corrupted argument ID")
	}
	g = buildDiamond(t)
	g.Node(2).args[0] = SignalID(g.NumSignals()) // out of range
	if err := g.Validate(); err == nil {
		t.Error("Validate missed an out-of-range argument ID")
	}
}

func TestQuickGraphInvariants(t *testing.T) {
	// Property (testing/quick): for graphs generated from arbitrary byte
	// strings, validation always passes, the signal IDs of the graph, its
	// clone and its merge keep the id-space contract (signalIDsError), the
	// topological order respects every edge, clones evaluate identically
	// to their originals, and the critical path never exceeds the
	// node-cycle sum.
	f := func(ops []byte, cycles []byte) bool {
		g := New("q")
		g.AddInput("i")
		names := []string{"i"}
		kinds := []op.Kind{op.Add, op.Sub, op.Mul, op.And, op.Lt}
		for i, b := range ops {
			if i >= 24 {
				break
			}
			name := fmt.Sprintf("n%d", i)
			a1 := names[int(b)%len(names)]
			a2 := names[int(b>>4)%len(names)]
			id, err := g.AddOp(name, kinds[int(b)%len(kinds)], a1, a2)
			if err != nil {
				return false
			}
			if i < len(cycles) {
				if err := g.SetCycles(id, 1+int(cycles[i])%3); err != nil {
					return false
				}
			}
			if b&8 != 0 { // opposite branches of one conditional
				if err := g.Tag(id, CondTag{Cond: 1, Branch: i % 2}); err != nil {
					return false
				}
			}
			names = append(names, name)
		}
		// An input declared after the ops, and an op reading it.
		if err := g.AddInput("late"); err != nil {
			return false
		}
		if _, err := g.AddOp("tail", op.Add, names[len(names)-1], "late"); err != nil {
			return false
		}
		if err := g.Validate(); err != nil {
			return false
		}
		merged, _, err := g.MergeExclusiveDuplicates()
		if err != nil || merged.Validate() != nil {
			return false
		}
		if signalIDsError(g) != nil || signalIDsError(g.Clone()) != nil || signalIDsError(merged) != nil {
			return false
		}
		pos := make(map[NodeID]int)
		for i, id := range g.TopoOrder() {
			pos[id] = i
		}
		total := 0
		for _, n := range g.Nodes() {
			total += n.Cycles
			for _, p := range n.Preds() {
				if pos[p] >= pos[n.ID] {
					return false
				}
			}
		}
		if g.Len() > 0 && (g.CriticalPathCycles() < 1 || g.CriticalPathCycles() > total) {
			return false
		}
		in := map[string]int64{"i": 7, "late": 3}
		want, err := g.Eval(in)
		if err != nil {
			return false
		}
		got, err := g.Clone().Eval(in)
		if err != nil {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
