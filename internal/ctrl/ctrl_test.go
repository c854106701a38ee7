package ctrl

import (
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

func buildDesign(t *testing.T, cs int) (*dfg.Graph, *mfsa.Result) {
	t.Helper()
	ex := benchmarks.Facet()
	res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: cs})
	if err != nil {
		t.Fatal(err)
	}
	return ex.Graph, res
}

func TestBuildController(t *testing.T) {
	g, res := buildDesign(t, 5)
	c, err := Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.States) != 5 {
		t.Fatalf("states = %d, want 5", len(c.States))
	}
	// Every node appears exactly once across all states.
	seen := make(map[dfg.NodeID]int)
	for _, st := range c.States {
		for _, a := range st.Actions {
			seen[a.Node]++
		}
	}
	if len(seen) != g.Len() {
		t.Errorf("actions cover %d nodes, want %d", len(seen), g.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("node %d issued %d times", id, n)
		}
	}
	// Actions appear in the state their schedule step says.
	for _, st := range c.States {
		for _, a := range st.Actions {
			if p, _ := res.Schedule.At(a.Node); p.Step != st.Step {
				t.Errorf("action %s in S%d but scheduled at %d",
					g.Node(a.Node).Name, st.Step, p.Step)
			}
		}
	}
}

func TestMuxSelectsResolve(t *testing.T) {
	g, res := buildDesign(t, 4)
	c, err := Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range c.States {
		for _, a := range st.Actions {
			n := g.Node(a.Node)
			if a.Mux1Sel < 0 {
				t.Errorf("%s: port 1 unresolved", n.Name)
			}
			if n.Op.Arity() == 2 && a.Mux2Sel < 0 {
				t.Errorf("%s: port 2 unresolved", n.Name)
			}
			// The selected source must be the node's operand (either order).
			src1 := g.SignalName(a.Src1)
			if src1 != n.Args[0] && (len(n.Args) < 2 || src1 != n.Args[1]) {
				t.Errorf("%s: src1 %q not an operand of %v", n.Name, src1, n.Args)
			}
		}
	}
}

func TestRegisterWrites(t *testing.T) {
	g, res := buildDesign(t, 5)
	c, err := Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, st := range c.States {
		writes += len(st.Writes)
	}
	stored := 0
	for _, grp := range res.Datapath.Registers {
		for _, iv := range grp {
			if iv.Birth >= 1 && iv.Birth <= res.Schedule.CS {
				stored++
			}
		}
	}
	if writes != stored {
		t.Errorf("register writes = %d, stored intervals = %d", writes, stored)
	}
	_ = g
}

func TestNextState(t *testing.T) {
	c := &Controller{States: make([]State, 4)}
	if c.NextState(0) != 1 || c.NextState(3) != 0 {
		t.Error("NextState wrong")
	}
}

func TestStringRendering(t *testing.T) {
	g, res := buildDesign(t, 4)
	c, err := Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	out := c.String()
	for _, want := range []string{"controller facet", "S1:", "S4:", "fn="} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g, res := buildDesign(t, 4)
	// Unscheduled node: drop one placement from a copy.
	s2 := *res.Schedule
	placed := make([]sched.Placement, g.Len())
	for _, n := range g.Nodes()[1:] {
		placed[n.ID], _ = res.Schedule.At(n.ID)
	}
	s2.Adopt(placed)
	if _, err := Build(g, &s2, res.Datapath); err == nil {
		t.Error("unscheduled node accepted")
	}
	// Unbound node: fresh empty datapath.
	if _, err := Build(g, res.Schedule, rtl.NewDatapath(res.Datapath.Lib)); err == nil {
		t.Error("unbound node accepted")
	}
	_ = op.Add
}

func TestGuardedActions(t *testing.T) {
	g := dfg.New("guarded")
	g.AddInput("a")
	g.AddInput("b")
	c, _ := g.AddOp("c", op.Lt, "a", "b")
	x, _ := g.AddOp("x", op.Add, "a", "b")
	y, _ := g.AddOp("y", op.Sub, "a", "b")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	res, err := mfsa.Synthesize(g, mfsa.Options{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	guards := make(map[dfg.NodeID][]dfg.CondTag)
	for _, st := range ctl.States {
		for _, a := range st.Actions {
			guards[a.Node] = a.Guards
		}
	}
	if len(guards[c]) != 0 {
		t.Errorf("condition op guarded: %v", guards[c])
	}
	if len(guards[x]) != 1 || guards[x][0] != (dfg.CondTag{Cond: 1, Branch: 0}) {
		t.Errorf("x guards = %v", guards[x])
	}
	if len(guards[y]) != 1 || guards[y][0].Branch != 1 {
		t.Errorf("y guards = %v", guards[y])
	}
	if !strings.Contains(ctl.String(), "if c1=b0") {
		t.Errorf("guards not rendered:\n%s", ctl.String())
	}
}
