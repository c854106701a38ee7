package sched

import (
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/op"
)

// twoAdds: in -> x, y independent adds feeding z = x*y.
func twoAdds(t *testing.T) (*dfg.Graph, dfg.NodeID, dfg.NodeID, dfg.NodeID) {
	t.Helper()
	g := dfg.New("v")
	if err := g.AddInput("in"); err != nil {
		t.Fatal(err)
	}
	x, _ := g.AddOp("x", op.Add, "in", "in")
	y, _ := g.AddOp("y", op.Add, "in", "in")
	z, _ := g.AddOp("z", op.Mul, "x", "y")
	return g, x, y, z
}

func TestVerifyLegal(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	if err := s.Verify(nil); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	if got := s.InstancesPerType(); got["+"] != 2 || got["*"] != 1 {
		t.Errorf("InstancesPerType = %v", got)
	}
	if got := s.TypeNames(); len(got) != 2 || got[0] != "*" || got[1] != "+" {
		t.Errorf("TypeNames = %v", got)
	}
	if !strings.Contains(s.String(), "cs=2") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestVerifyUnplaced(t *testing.T) {
	g, x, y, _ := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	if err := s.Verify(nil); err == nil {
		t.Error("schedule with unplaced node accepted")
	}
}

// TestVerifyStepZeroIsStepRange pins that a node placed at step 0 is
// placed: the verifier reports its step as out of range, not the node
// as unplaced.
func TestVerifyStepZeroIsStepRange(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 0, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	all := s.VerifyAll(nil)
	if len(all) == 0 || all[0].Code != diag.CodeSchedStepRange || all[0].Loc != "x" {
		t.Fatalf("step-0 placement: %v, want %s on x first", all, diag.CodeSchedStepRange)
	}
	for _, d := range all {
		if d.Code == diag.CodeSchedUnplaced {
			t.Errorf("step-0 placement reported unplaced: %v", d)
		}
	}
}

func TestVerifyDependencyViolation(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 2, Type: "+", Index: 1}) // finishes at 2
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1}) // needs x done
	if err := s.Verify(nil); err == nil {
		t.Error("dependency violation accepted")
	}
}

func TestVerifyResourceConflict(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 1}) // same cell, same step
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	if err := s.Verify(nil); err == nil {
		t.Error("FU conflict accepted")
	}
}

func TestVerifyExclusiveSharing(t *testing.T) {
	g, x, y, z := twoAdds(t)
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 1}) // legal: exclusive
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	if err := s.Verify(nil); err != nil {
		t.Errorf("exclusive sharing rejected: %v", err)
	}
}

func TestVerifyLimits(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	if err := s.Verify(map[string]int{"+": 2, "*": 1}); err != nil {
		t.Errorf("within limits rejected: %v", err)
	}
	if err := s.Verify(map[string]int{"+": 1}); err == nil {
		t.Error("limit violation accepted")
	}
}

func TestVerifyBounds(t *testing.T) {
	g, x, y, z := twoAdds(t)
	s := NewSchedule(g, 2)
	s.Place(x, Placement{Step: 0, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(z, Placement{Step: 2, Type: "*", Index: 1})
	if err := s.Verify(nil); err == nil {
		t.Error("step 0 accepted")
	}
	s.Place(x, Placement{Step: 1, Type: "+", Index: 0})
	if err := s.Verify(nil); err == nil {
		t.Error("index 0 accepted")
	}
	s.Place(x, Placement{Step: 1, Index: 1})
	if err := s.Verify(nil); err == nil {
		t.Error("empty type accepted")
	}
}

func TestVerifyMulticycleFootprint(t *testing.T) {
	g := dfg.New("mc")
	g.AddInput("in")
	m1, _ := g.AddOp("m1", op.Mul, "in", "in")
	g.SetCycles(m1, 2)
	m2, _ := g.AddOp("m2", op.Mul, "in", "in")
	s := NewSchedule(g, 3)
	s.Place(m1, Placement{Step: 1, Type: "*", Index: 1})
	s.Place(m2, Placement{Step: 2, Type: "*", Index: 1}) // overlaps m1's 2nd cycle
	if err := s.Verify(nil); err == nil {
		t.Error("multicycle overlap accepted")
	}
	s.Place(m2, Placement{Step: 3, Type: "*", Index: 1})
	if err := s.Verify(nil); err != nil {
		t.Errorf("back-to-back multicycle rejected: %v", err)
	}
	// Multicycle op must fit inside cs.
	s.Place(m1, Placement{Step: 3, Type: "*", Index: 2})
	if err := s.Verify(nil); err == nil {
		t.Error("multicycle op spilling past cs accepted")
	}
}

func TestVerifyStructuralPipelining(t *testing.T) {
	g := dfg.New("sp")
	g.AddInput("in")
	m1, _ := g.AddOp("m1", op.Mul, "in", "in")
	g.SetCycles(m1, 2)
	m2, _ := g.AddOp("m2", op.Mul, "in", "in")
	g.SetCycles(m2, 2)
	s := NewSchedule(g, 3)
	s.PipelinedTypes["*"] = true
	s.Place(m1, Placement{Step: 1, Type: "*", Index: 1})
	s.Place(m2, Placement{Step: 2, Type: "*", Index: 1}) // overlapped in the pipe
	if err := s.Verify(nil); err != nil {
		t.Errorf("pipelined overlap rejected: %v", err)
	}
	s.Place(m2, Placement{Step: 1, Type: "*", Index: 1}) // same start: conflict
	if err := s.Verify(nil); err == nil {
		t.Error("same-step pipelined conflict accepted")
	}
}

func TestVerifyFunctionalPipelining(t *testing.T) {
	// L=2: ops at steps 1 and 3 run concurrently across loop instances.
	g := dfg.New("fp")
	g.AddInput("in")
	a, _ := g.AddOp("a", op.Add, "in", "in")
	b, _ := g.AddOp("b", op.Add, "a", "a")
	c, _ := g.AddOp("c", op.Add, "b", "b")
	s := NewSchedule(g, 3)
	s.Latency = 2
	s.Place(a, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(b, Placement{Step: 2, Type: "+", Index: 1})
	s.Place(c, Placement{Step: 3, Type: "+", Index: 1}) // folds onto step 1: conflict with a
	if err := s.Verify(nil); err == nil {
		t.Error("modular conflict accepted")
	}
	s.Place(c, Placement{Step: 3, Type: "+", Index: 2})
	if err := s.Verify(nil); err != nil {
		t.Errorf("resolved modular conflict rejected: %v", err)
	}
	// A multicycle op longer than L on a non-pipelined unit self-conflicts.
	g2 := dfg.New("fp2")
	g2.AddInput("in")
	m, _ := g2.AddOp("m", op.Mul, "in", "in")
	g2.SetCycles(m, 3)
	s2 := NewSchedule(g2, 4)
	s2.Latency = 2
	s2.Place(m, Placement{Step: 1, Type: "*", Index: 1})
	if err := s2.Verify(nil); err == nil {
		t.Error("op longer than latency accepted")
	}
}

func TestVerifyChaining(t *testing.T) {
	// x -> y chained in one step under a 100ns clock (40+40 <= 100).
	g := dfg.New("ch")
	g.AddInput("in")
	x, _ := g.AddOp("x", op.Add, "in", "in")
	y, _ := g.AddOp("y", op.Add, "x", "x")
	s := NewSchedule(g, 1)
	s.ClockNs = 100
	s.Place(x, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(y, Placement{Step: 1, Type: "+", Index: 2})
	if err := s.Verify(nil); err != nil {
		t.Fatalf("legal chain rejected: %v", err)
	}
	// Without chaining the same schedule is illegal.
	s.ClockNs = 0
	if err := s.Verify(nil); err == nil {
		t.Error("same-step dependency without chaining accepted")
	}
	// Chain longer than the clock is illegal.
	s.ClockNs = 100
	g.SetDelayNs(x, 70)
	g.SetDelayNs(y, 70)
	if err := s.Verify(nil); err == nil {
		t.Error("overlong chain accepted")
	}
}

func TestVerifyChainThroughThreeOps(t *testing.T) {
	// Accumulation must follow the worst path, not per-edge checks:
	// a(40) -> b(40) -> c(30) = 110 > 100 even though each edge fits.
	g := dfg.New("ch3")
	g.AddInput("in")
	a, _ := g.AddOp("a", op.Add, "in", "in")
	b, _ := g.AddOp("b", op.Add, "a", "a")
	c, _ := g.AddOp("c", op.Lt, "b", "b")
	g.SetDelayNs(c, 30)
	s := NewSchedule(g, 1)
	s.ClockNs = 100
	s.Place(a, Placement{Step: 1, Type: "+", Index: 1})
	s.Place(b, Placement{Step: 1, Type: "+", Index: 2})
	s.Place(c, Placement{Step: 1, Type: "<", Index: 1})
	if err := s.Verify(nil); err == nil {
		t.Error("accumulated chain overflow accepted")
	}
}

func TestStepsOf(t *testing.T) {
	g := dfg.New("so")
	g.AddInput("in")
	m, _ := g.AddOp("m", op.Mul, "in", "in")
	g.SetCycles(m, 3)
	s := NewSchedule(g, 6)
	s.Place(m, Placement{Step: 2, Type: "*", Index: 1})
	if got := s.StepsOf(m); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("StepsOf = %v, want [2 3 4]", got)
	}
	s.Latency = 3
	if got := s.StepsOf(m); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Errorf("folded StepsOf = %v, want [2 3 1]", got)
	}
	s.PipelinedTypes["*"] = true
	if got := s.StepsOf(m); len(got) != 1 || got[0] != 2 {
		t.Errorf("pipelined StepsOf = %v, want [2]", got)
	}
	if got := s.StepsOf(99); got != nil {
		t.Errorf("StepsOf(unplaced) = %v, want nil", got)
	}
}
