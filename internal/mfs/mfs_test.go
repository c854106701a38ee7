package mfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/liapunov"
	"repro/internal/op"
)

func mustSchedule(t *testing.T, g *dfg.Graph, opt Options) map[string]int {
	t.Helper()
	s, err := Schedule(g, opt)
	if err != nil {
		t.Fatalf("Schedule(%s): %v", g.Name, err)
	}
	if err := s.Verify(opt.Limits); err != nil {
		t.Fatalf("Verify(%s): %v", g.Name, err)
	}
	return s.InstancesPerType()
}

func TestFacetTimeConstrained(t *testing.T) {
	// Table 1 row 1: T=4 needs {1*,2+,1-,1/,1&,1|}; T=5 one of each.
	ex := benchmarks.Facet()
	got4 := mustSchedule(t, ex.Graph, Options{CS: 4})
	want4 := map[string]int{"*": 1, "+": 2, "-": 1, "/": 1, "&": 1, "|": 1}
	for typ, n := range want4 {
		if got4[typ] != n {
			t.Errorf("T=4: %s = %d, want %d (full: %v)", typ, got4[typ], n, got4)
		}
	}
	got5 := mustSchedule(t, ex.Graph, Options{CS: 5})
	for typ := range want4 {
		if got5[typ] != 1 {
			t.Errorf("T=5: %s = %d, want 1 (full: %v)", typ, got5[typ], got5)
		}
	}
}

func TestChainedExample(t *testing.T) {
	// Table 1 row 2: with two chained ALU levels per 100ns step the 8-op
	// chain meets T=4 on one adder and one subtractor.
	ex := benchmarks.Chained()
	got := mustSchedule(t, ex.Graph, Options{CS: 4, ClockNs: ex.ClockNs})
	if got["+"] != 1 || got["-"] != 1 {
		t.Errorf("chained T=4: %v, want 1 adder and 1 subtractor", got)
	}
	// Without chaining T=4 is infeasible.
	if _, err := Schedule(ex.Graph, Options{CS: 4}); err == nil {
		t.Error("chained kernel scheduled in 4 steps without chaining")
	}
	// And it works at T=8 without chaining.
	got8 := mustSchedule(t, ex.Graph, Options{CS: 8})
	if got8["+"] != 1 || got8["-"] != 1 {
		t.Errorf("chained T=8 plain: %v", got8)
	}
}

func TestDiffeqBalanced(t *testing.T) {
	// The classic HAL result: 6 multiplications fit T=4 on 2 multipliers.
	ex := benchmarks.Diffeq()
	got := mustSchedule(t, ex.Graph, Options{CS: 4})
	if got["*"] != 2 {
		t.Errorf("diffeq T=4 multipliers = %d, want 2 (full: %v)", got["*"], got)
	}
	if got["-"] != 1 || got["+"] != 1 || got["<"] != 1 {
		t.Errorf("diffeq T=4 ALUs = %v, want 1 each of -,+,<", got)
	}
}

func TestDiffeqResourceConstrained(t *testing.T) {
	ex := benchmarks.Diffeq()
	limits := map[string]int{"*": 1, "+": 1, "-": 1, "<": 1}
	s, err := Schedule(ex.Graph, Options{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(limits); err != nil {
		t.Fatal(err)
	}
	// 6 serialized multiplications plus the dependent subtract chain: the
	// minimum is 7 steps; a correct resource-constrained MFS finds <= 8.
	if s.CS < 7 || s.CS > 8 {
		t.Errorf("resource-constrained CS = %d, want 7 or 8", s.CS)
	}
	// With 2 multipliers it should approach the time-constrained optimum.
	s2, err := Schedule(ex.Graph, Options{Limits: map[string]int{"*": 2, "+": 1, "-": 1, "<": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.CS > 5 {
		t.Errorf("CS with 2 multipliers = %d, want <= 5", s2.CS)
	}
}

func TestResourceConstrainedNeedsLimits(t *testing.T) {
	ex := benchmarks.Facet()
	if _, err := Schedule(ex.Graph, Options{}); err == nil {
		t.Error("CS=0 without limits accepted")
	}
}

func TestInfeasibleCS(t *testing.T) {
	ex := benchmarks.Facet()
	if _, err := Schedule(ex.Graph, Options{CS: 3}); err == nil {
		t.Error("CS below critical path accepted")
	}
}

func TestLatencyRequiresCS(t *testing.T) {
	ex := benchmarks.Diffeq()
	if _, err := Schedule(ex.Graph, Options{Latency: 2}); err == nil {
		t.Error("functional pipelining without time constraint accepted")
	}
}

func TestMutualExclusionSharing(t *testing.T) {
	// Two exclusive multiplications pinned to the same step must share
	// one multiplier.
	g := dfg.New("mx")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "a", "a")
	g.AddOp("ux", op.Add, "x", "a")
	g.AddOp("uy", op.Sub, "y", "a")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	got := mustSchedule(t, g, Options{CS: 2})
	if got["*"] != 1 {
		t.Errorf("exclusive mults use %d multipliers, want 1", got["*"])
	}
	// Without the tags, two are needed.
	g2 := dfg.New("mx2")
	g2.AddInput("a")
	g2.AddOp("x", op.Mul, "a", "a")
	g2.AddOp("y", op.Mul, "a", "a")
	g2.AddOp("ux", op.Add, "x", "a")
	g2.AddOp("uy", op.Sub, "y", "a")
	got2 := mustSchedule(t, g2, Options{CS: 2})
	if got2["*"] != 2 {
		t.Errorf("non-exclusive mults use %d multipliers, want 2", got2["*"])
	}
}

func TestStructuralPipeliningReducesMultipliers(t *testing.T) {
	ex := benchmarks.Bandpass()
	cs := 9
	plain := mustSchedule(t, ex.Graph, Options{CS: cs})
	piped := mustSchedule(t, benchmarks.Bandpass().Graph, Options{
		CS:             cs,
		PipelinedTypes: map[string]bool{"*": true},
	})
	if piped["*"] >= plain["*"] {
		t.Errorf("pipelined multipliers = %d, plain = %d; pipelining should reduce",
			piped["*"], plain["*"])
	}
}

func TestFunctionalPipelining(t *testing.T) {
	ex := benchmarks.Diffeq()
	cs := 8
	lat := ex.Latency(cs) // 4
	s, err := Schedule(ex.Graph, Options{CS: cs, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(nil); err != nil {
		t.Fatal(err)
	}
	if s.Latency != lat {
		t.Errorf("schedule Latency = %d, want %d", s.Latency, lat)
	}
	// With folding, FU demand cannot be below the folded utilization bound.
	inst := s.InstancesPerType()
	if inst["*"] < (6+lat-1)/lat {
		t.Errorf("multipliers = %d below folded bound", inst["*"])
	}
	// Partition view: every op is in exactly one partition.
	p1, p2 := FunctionalPartition(s)
	if len(p1)+len(p2) != ex.Graph.Len() {
		t.Errorf("partition sizes %d+%d != %d", len(p1), len(p2), ex.Graph.Len())
	}
	if len(p1) == 0 {
		t.Error("empty first partition")
	}
	// Without latency, FunctionalPartition puts everything in p1.
	s0, err := Schedule(ex.Graph, Options{CS: cs})
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := FunctionalPartition(s0)
	if len(q1) != ex.Graph.Len() || q2 != nil {
		t.Errorf("unpipelined partition = %d/%d", len(q1), len(q2))
	}
}

func TestEWFTrend(t *testing.T) {
	// Table 1 row 6 trend: multipliers shrink 3 -> 2 -> 1 over T=17,19,21
	// and adders stay near 3 -> 2 -> 2.
	ex := benchmarks.EWF()
	var mults, adds []int
	for _, cs := range ex.TimeConstraints {
		got := mustSchedule(t, benchmarks.EWF().Graph, Options{CS: cs})
		mults = append(mults, got["*"])
		adds = append(adds, got["+"])
	}
	for i := 1; i < len(mults); i++ {
		if mults[i] > mults[i-1] {
			t.Errorf("multipliers increased with looser T: %v", mults)
		}
		if adds[i] > adds[i-1] {
			t.Errorf("adders increased with looser T: %v", adds)
		}
	}
	if mults[0] != 3 {
		t.Errorf("T=17 multipliers = %d, want 3 (measured trend %v)", mults[0], mults)
	}
	if mults[len(mults)-1] != 1 {
		t.Errorf("T=21 multipliers = %d, want 1 (trend %v)", mults[len(mults)-1], mults)
	}
	// Structural pipelining at T=17 drops one multiplier.
	piped := mustSchedule(t, benchmarks.EWF().Graph, Options{
		CS:             17,
		PipelinedTypes: map[string]bool{"*": true},
	})
	if piped["*"] >= mults[0] {
		t.Errorf("pipelined T=17 multipliers = %d, want < %d", piped["*"], mults[0])
	}
}

func TestLoopsNested(t *testing.T) {
	// inner loop body: acc' = acc + step
	inner := dfg.New("inner")
	inner.AddInput("acc")
	inner.AddInput("step")
	inner.AddOp("next", op.Add, "acc", "step")

	// middle body: runs the inner loop then scales.
	middle := dfg.New("middle")
	middle.AddInput("a0")
	middle.AddInput("d")
	lid, err := middle.AddLoop("isum", inner, "next", map[string]string{"acc": "a0", "step": "d"})
	if err != nil {
		t.Fatal(err)
	}
	middle.SetCycles(lid, 2) // inner local time constraint
	middle.AddOp("scaled", op.Mul, "isum", "d")

	outer := dfg.New("outer")
	outer.AddInput("x")
	outer.AddInput("y")
	oid, err := outer.AddLoop("msum", middle, "scaled", map[string]string{"a0": "x", "d": "y"})
	if err != nil {
		t.Fatal(err)
	}
	outer.SetCycles(oid, 4) // middle local time constraint
	outer.AddOp("out", op.Add, "msum", "y")

	design, err := ScheduleLoops(outer, Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if design.Schedule == nil || design.Schedule.CS != 5 {
		t.Fatal("outer schedule missing")
	}
	mid, ok := design.Inner[oid]
	if !ok || mid.Schedule.CS != 4 {
		t.Fatalf("middle schedule missing or wrong cs: %+v", mid)
	}
	innerDesign, ok := mid.Inner[lid]
	if !ok || innerDesign.Schedule.CS != 2 {
		t.Fatalf("inner schedule missing or wrong cs")
	}
	if err := design.Schedule.Verify(nil); err != nil {
		t.Error(err)
	}
	if err := mid.Schedule.Verify(nil); err != nil {
		t.Error(err)
	}
}

func TestAddLoopControl(t *testing.T) {
	body := dfg.New("body")
	body.AddInput("i")
	body.AddInput("n")
	body.AddOp("work", op.Add, "i", "i")
	next, cont, err := AddLoopControl(body, "i", "n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := body.Lookup(next); !ok {
		t.Errorf("increment %q missing", next)
	}
	if _, ok := body.Lookup(cont); !ok {
		t.Errorf("comparison %q missing", cont)
	}
	vals, err := body.Eval(map[string]int64{"i": 3, "n": 10, "one": 1})
	if err != nil {
		t.Fatal(err)
	}
	if vals[next] != 4 || vals[cont] != 1 {
		t.Errorf("loop control evaluated to %v", vals)
	}
	if _, _, err := AddLoopControl(body, "i", "n"); err == nil {
		t.Error("second AddLoopControl accepted (duplicate names)")
	}
}

func TestFramesForInspection(t *testing.T) {
	ex := benchmarks.Diffeq()
	// Inspect a mid-priority multiplication.
	var target dfg.NodeID = -1
	for _, n := range ex.Graph.Nodes() {
		if n.Name == "m4" {
			target = n.ID
		}
	}
	if target < 0 {
		t.Fatal("no m4 node")
	}
	in, err := FramesFor(ex.Graph, Options{CS: 4}, target)
	if err != nil {
		t.Fatal(err)
	}
	fs := in.Frames
	if fs.MF().Empty() {
		t.Error("move frame empty at placement time")
	}
	if !fs.MF().Contains(in.Chosen) {
		t.Errorf("chosen %v not in MF", in.Chosen)
	}
	// MF = PF − (RF ∪ FF) must hold exactly.
	for _, p := range fs.PF().Positions() {
		if want := !fs.RF().Contains(p) && !fs.FF().Contains(p); fs.MF().Contains(p) != want {
			t.Errorf("%v: in MF = %v, in PF − (RF ∪ FF) = %v", p, !want, want)
		}
	}
	if fs.MF().Len() > fs.PF().Len() {
		t.Errorf("|MF| = %d exceeds |PF| = %d", fs.MF().Len(), fs.PF().Len())
	}
	out := in.Render()
	for _, want := range []string{"m4", "r*", "legend"} {
		if !contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if _, err := FramesFor(ex.Graph, Options{}, target); err == nil {
		t.Error("FramesFor without CS accepted")
	}
	if _, err := FramesFor(ex.Graph, Options{CS: 4}, 9999); err == nil {
		t.Error("FramesFor with bogus target accepted")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

// randomDAG builds a reproducible random DAG with l nodes over the kinds
// given; ~20% of multiplications are 2-cycle.
func randomDAG(r *rand.Rand, name string, l int) *dfg.Graph {
	g := dfg.New(name)
	g.AddInput("i0")
	g.AddInput("i1")
	kinds := []op.Kind{op.Add, op.Sub, op.Mul, op.Lt, op.And}
	names := []string{"i0", "i1"}
	for i := 0; i < l; i++ {
		k := kinds[r.Intn(len(kinds))]
		a := names[r.Intn(len(names))]
		b := names[r.Intn(len(names))]
		name := fmt.Sprintf("n%d", i)
		id, err := g.AddOp(name, k, a, b)
		if err != nil {
			panic(err)
		}
		if k == op.Mul && r.Intn(5) == 0 {
			g.SetCycles(id, 2)
		}
		names = append(names, name)
	}
	return g
}

func TestRandomDAGsScheduleAndVerify(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		g := randomDAG(r, fmt.Sprintf("rand%d", trial), 10+r.Intn(25))
		cp := g.CriticalPathCycles()
		cs := cp + r.Intn(4)
		s, err := Schedule(g, Options{CS: cs})
		if err != nil {
			t.Fatalf("trial %d (cs=%d, cp=%d): %v", trial, cs, cp, err)
		}
		if err := s.Verify(nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandomDAGsResourceConstrained(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, fmt.Sprintf("rc%d", trial), 8+r.Intn(15))
		limits := map[string]int{"+": 1, "-": 1, "*": 1, "<": 1, "&": 1}
		s, err := Schedule(g, Options{Limits: limits})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Verify(limits); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Sanity: a single-unit schedule can never beat the serialization
		// bound for its busiest type.
		byType := make(map[string]int)
		for _, n := range g.Nodes() {
			byType[TypeKey(n)] += n.Cycles
		}
		for _, load := range byType {
			if s.CS < load {
				t.Fatalf("trial %d: CS %d below serialization bound %d", trial, s.CS, load)
			}
		}
	}
}

func TestRandomChaining(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, fmt.Sprintf("ch%d", trial), 12)
		// MFS is greedy without backtracking, so a pathologically tight
		// chained deadline can dead-end; a real user loosens cs one step
		// at a time. Every trial must succeed within small slack, and
		// every success must verify.
		cp := g.CriticalPathCycles()
		var lastErr error
		ok := false
		for cs := cp; cs <= cp+6 && !ok; cs++ {
			s, err := Schedule(g, Options{CS: cs, ClockNs: 100})
			if err != nil {
				lastErr = err
				continue
			}
			if err := s.Verify(nil); err != nil {
				t.Fatalf("trial %d cs=%d: %v", trial, cs, err)
			}
			ok = true
		}
		if !ok {
			t.Fatalf("trial %d: no chained schedule up to cp+6: %v", trial, lastErr)
		}
	}
}

func TestLiapunovOverride(t *testing.T) {
	// Ablation hook: forcing the resource-constrained function under a
	// time constraint still yields a legal schedule (it just packs
	// columns first).
	ex := benchmarks.Facet()
	s, err := Schedule(ex.Graph, Options{CS: 5, Liapunov: liapunov.ResourceConstrained{CS: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(nil); err != nil {
		t.Fatal(err)
	}
	wide := false
	for _, st := range s.Trace.Steps {
		wide = wide || st.MaxJ > 1
	}
	if !wide {
		t.Fatal("facet at T=5 builds no table wider than 1; the rejections below need one")
	}
	// A function with no grid order for some table, and a column walk
	// over a latency-folded table, are errors: there is no fallback
	// walk, and neither reaches ScanPlaceable's panic.
	for _, c := range []struct {
		name string
		opt  Options
		want string
	}{
		{"withdrawn order", Options{CS: 5, Liapunov: liapunov.TimeConstrained{N: 2}}, "withdraws its grid order"},
		{"folded column walk", Options{CS: 5, Latency: 2, Liapunov: liapunov.ResourceConstrained{CS: 6}}, "walks columns"},
	} {
		if _, err := Schedule(ex.Graph, c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestUserLimitsRespected(t *testing.T) {
	ex := benchmarks.Diffeq()
	limits := map[string]int{"*": 3}
	s, err := Schedule(ex.Graph, Options{CS: 4, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.InstancesPerType()["*"]; got > 3 {
		t.Errorf("multipliers = %d exceeds user limit", got)
	}
	// An impossible limit fails cleanly.
	if _, err := Schedule(ex.Graph, Options{CS: 4, Limits: map[string]int{"*": 1}}); err == nil {
		t.Error("impossible limit accepted")
	}
}
