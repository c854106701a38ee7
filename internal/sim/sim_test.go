package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

func TestRunAgainstReferenceAllBenchmarks(t *testing.T) {
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			if err := CrossCheck(s, nil, RandomInputs(ex.Graph, seed)); err != nil {
				t.Errorf("%s seed %d: %v", ex.Name, seed, err)
			}
		}
	}
}

func TestRunRTLAllBenchmarks(t *testing.T) {
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[len(ex.TimeConstraints)-1]
		res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if err := CrossCheck(res.Schedule, res.Datapath, RandomInputs(ex.Graph, 7)); err != nil {
			t.Errorf("%s: %v", ex.Name, err)
		}
	}
}

func TestMissingInput(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, map[string]int64{"i1": 1}); err == nil {
		t.Error("missing inputs accepted")
	}
}

func TestDetectsDependencyViolation(t *testing.T) {
	// Hand-build an illegal schedule: consumer before producer finishes.
	g := dfg.New("bad")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Add, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "x", "a")
	s := sched.NewSchedule(g, 2)
	s.Place(x, sched.Placement{Step: 2, Type: "+", Index: 1})
	s.Place(y, sched.Placement{Step: 1, Type: "*", Index: 1})
	if _, err := Run(s, map[string]int64{"a": 3}); err == nil {
		t.Error("use-before-ready accepted")
	}
	// Same-step without chaining is also illegal.
	s.Place(x, sched.Placement{Step: 1, Type: "+", Index: 1})
	if _, err := Run(s, map[string]int64{"a": 3}); err == nil {
		t.Error("same-step read without chaining accepted")
	}
	// With chaining enabled it is legal.
	s.ClockNs = 100
	if _, err := Run(s, map[string]int64{"a": 3}); err != nil {
		t.Errorf("chained read rejected: %v", err)
	}
}

func TestDetectsMissingRegister(t *testing.T) {
	g := dfg.New("reg")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Add, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "x", "a")
	s := sched.NewSchedule(g, 3)
	s.Place(x, sched.Placement{Step: 1, Type: "u", Index: 1})
	s.Place(y, sched.Placement{Step: 3, Type: "v", Index: 1})
	// RunRTL's register check only reads dp.Registers; no library needed.
	dp := rtl.NewDatapath(nil)
	// No registers assigned: the read of x at step 3 must fail.
	if _, err := RunRTL(s, dp, map[string]int64{"a": 2}); err == nil {
		t.Error("unregistered cross-step value accepted")
	}
	// Register covering only part of the lifetime still fails.
	dp.Registers = [][]rtl.Interval{{{Signal: g.Node(x).OutID(), Birth: 1, Death: 2}}}
	if _, err := RunRTL(s, dp, map[string]int64{"a": 2}); err == nil {
		t.Error("partially covered lifetime accepted")
	}
	// Full coverage passes.
	dp.Registers = [][]rtl.Interval{{{Signal: g.Node(x).OutID(), Birth: 1, Death: 3}}}
	if _, err := RunRTL(s, dp, map[string]int64{"a": 2}); err != nil {
		t.Errorf("covered lifetime rejected: %v", err)
	}
}

func TestRunLoops(t *testing.T) {
	body := dfg.New("body")
	body.AddInput("p")
	body.AddInput("q")
	body.AddOp("r", op.Mul, "p", "q")

	g := dfg.New("outer")
	g.AddInput("x")
	g.AddInput("y")
	lid, err := g.AddLoop("l", body, "r", map[string]string{"p": "x", "q": "y"})
	if err != nil {
		t.Fatal(err)
	}
	g.SetCycles(lid, 3)
	g.AddOp("out", op.Add, "l", "x")
	s, err := mfs.Schedule(g, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := Run(s, map[string]int64{"x": 4, "y": 5})
	if err != nil {
		t.Fatal(err)
	}
	if vals["l"] != 20 || vals["out"] != 24 {
		t.Errorf("vals = %v", vals)
	}
}

func TestRandomSchedulesCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	kinds := []op.Kind{op.Add, op.Sub, op.Mul, op.And, op.Lt}
	for trial := 0; trial < 20; trial++ {
		g := dfg.New(fmt.Sprintf("sc%d", trial))
		g.AddInput("i0")
		g.AddInput("i1")
		names := []string{"i0", "i1"}
		for i := 0; i < 8+r.Intn(16); i++ {
			name := fmt.Sprintf("n%d", i)
			g.AddOp(name, kinds[r.Intn(len(kinds))],
				names[r.Intn(len(names))], names[r.Intn(len(names))])
			names = append(names, name)
		}
		s, err := mfs.Schedule(g, mfs.Options{CS: g.CriticalPathCycles() + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CrossCheck(s, nil, RandomInputs(g, int64(trial))); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := mfsa.Synthesize(g, mfsa.Options{CS: s.CS})
		if err != nil {
			t.Fatalf("trial %d mfsa: %v", trial, err)
		}
		if err := CrossCheck(res.Schedule, res.Datapath, RandomInputs(g, int64(trial)+100)); err != nil {
			t.Fatalf("trial %d mfsa: %v", trial, err)
		}
	}
}

func TestRandomInputsDeterministic(t *testing.T) {
	g := benchmarks.Facet().Graph
	a := RandomInputs(g, 42)
	b := RandomInputs(g, 42)
	if len(a) != len(g.Inputs()) {
		t.Fatalf("inputs = %d", len(a))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("RandomInputs not deterministic")
		}
	}
	c := RandomInputs(g, 43)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical inputs")
	}
}
