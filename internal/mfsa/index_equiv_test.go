package mfsa

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// indexCase is one (graph, options) configuration of the replay oracle.
type indexCase struct {
	name string
	g    *dfg.Graph
	opt  Options
}

func indexCases(t *testing.T) []indexCase {
	t.Helper()
	var cases []indexCase
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		base := Options{CS: cs, ClockNs: ex.ClockNs}
		cases = append(cases,
			indexCase{fmt.Sprintf("%s/T=%d", ex.Name, cs), ex.Graph, base},
			indexCase{fmt.Sprintf("%s/T=%d/style2", ex.Name, cs), ex.Graph,
				Options{CS: cs, ClockNs: ex.ClockNs, Style: Style2}},
			indexCase{fmt.Sprintf("%s/T=%d/pipelined-units", ex.Name, cs), ex.Graph,
				Options{CS: cs, ClockNs: ex.ClockNs, UsePipelinedUnits: true}},
		)
		// Chaining toggled, as in mfs's equivalence suite.
		alt := base
		if ex.ClockNs > 0 {
			alt.ClockNs = 0
			if cp := ex.Graph.CriticalPathCycles(); cp > alt.CS {
				alt.CS = cp
			}
		} else {
			alt.ClockNs = 100
		}
		cases = append(cases,
			indexCase{fmt.Sprintf("%s/T=%d/chain-toggled", ex.Name, alt.CS), ex.Graph, alt})
		if ex.Latency != nil {
			lat := base
			lat.Latency = ex.Latency(cs)
			cases = append(cases,
				indexCase{fmt.Sprintf("%s/T=%d/latency", ex.Name, cs), ex.Graph, lat})
		}
	}
	// Exclusion variant: conditional sharing is the one configuration
	// where the index walk must fall back to the per-occupant CanPlace
	// check on occupied bits.
	g := dfg.New("mx-idx")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	y, _ := g.AddOp("y", op.Mul, "a", "a")
	g.AddOp("ux", op.Add, "x", "a")
	g.AddOp("uy", op.Sub, "y", "a")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	cases = append(cases, indexCase{"mx/T=2/exclusion", g, Options{CS: 2}})
	return cases
}

// checkReplay is the white-box replay oracle of the MFSA engine. It
// runs Synthesize's placement loop one placeOne at a time and, before
// each, checks every candidate unit's move-frame walk (movePositions)
// against the per-cell CanPlace loop at the unit's current_j and at its
// max_inst columns, regDelta against the pack-and-diff regDeltaSlow
// at every step of the window, and every ALU's membership bits from the
// index against a scan of its port lists. It then binds the schedule
// with Allocate's loop, checking regDelta at each bound step and the
// membership bits again. At the end of
// each replay the live lifetimes must pack into the same registers as
// the rebuild from the placements, and the replay must reproduce its
// public entry point exactly — placements, trace, datapath and cost —
// so the checks saw the states a real run visits.
func checkReplay(t *testing.T, g *dfg.Graph, opt Options) {
	t.Helper()
	want, err := Synthesize(g, opt)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	popt, err := prepare(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := sched.ComputeFrames(g, popt.CS, popt.ClockNs)
	if err != nil {
		t.Fatal(err)
	}
	s := newState(g, popt, frames)
	for _, id := range sched.PriorityOrder(g, frames) {
		n := g.Node(id)
		lo, hi, _ := s.Window(n.ID)
		for _, u := range s.unitsFor(n) {
			if u.maxInst == 0 {
				continue // never walked (bestCandidate skips it)
			}
			table := s.tableOf(u)
			table.Grow(u.maxInst)
			for _, cur := range []int{u.current, u.maxInst} {
				got := movePositions(s, table, n, lo, hi, cur)
				var want []grid.Pos
				for step := lo; step <= hi; step++ {
					for idx := 1; idx <= cur; idx++ {
						if p := (grid.Pos{Step: step, Index: idx}); table.CanPlace(g, id, p, n.Cycles) {
							want = append(want, p)
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q on %s [%d..%d] x [1..%d]: index walk %v, per-cell walk %v",
						n.Name, u.Name, lo, hi, cur, got, want)
				}
			}
		}
		assertPresence(t, s, n) // also answers regDelta from the counts, not from a memo entry
		for step := lo; step <= hi; step++ {
			assertRegDelta(t, s, n, step)
		}
		if err := s.placeOne(context.Background(), id); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	assertRegisterIntervals(t, s)
	got, err := s.finish()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	compareResults(t, "synthesis", got, want)

	// The allocation replay fills in the options as AllocateCtx does:
	// library and style defaults, and the schedule's CS, clock and latency.
	aopt := Options{Lib: opt.Lib, Style: opt.Style, Weights: opt.Weights, RegisterInputs: opt.RegisterInputs}
	wantA, err := Allocate(want.Schedule, aopt)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	aopt.Lib, aopt.Style = popt.Lib, popt.Style
	aopt.CS, aopt.ClockNs, aopt.Latency = want.Schedule.CS, want.Schedule.ClockNs, want.Schedule.Latency
	st := newState(g, aopt, nil)
	for _, id := range allocationOrder(want.Schedule) {
		assertPresence(t, st, g.Node(id))
		p, _ := want.Schedule.At(id)
		assertRegDelta(t, st, g.Node(id), p.Step)
		if err := st.bindOne(want.Schedule, id); err != nil {
			t.Fatalf("allocation replay: %v", err)
		}
	}
	assertRegisterIntervals(t, st)
	gotA, err := st.finish()
	if err != nil {
		t.Fatalf("allocation replay: %v", err)
	}
	compareResults(t, "allocation", gotA, wantA)
}

// assertPresence opens n's evaluation and checks that the membership
// index stamps, on every ALU, the bits a scan of its port lists finds.
func assertPresence(t *testing.T, s *state, n *dfg.Node) {
	t.Helper()
	s.beginEval(n)
	for k, a := range s.dp.ALUs {
		if got, want := s.presence(k), a.PresenceOf(n); got != want {
			t.Fatalf("%q on %s: the index stamps %04b, the port lists hold %04b", n.Name, a.Name, got, want)
		}
	}
}

// TestIndexedSynthesisMatchesDisabledIndex runs checkReplay on every
// benchmark × style × chaining/pipelining/latency/exclusion variant: the
// occupancy-index walk must match the per-cell walk it replaced at
// every state, and the run must match Synthesize bit for bit.
func TestIndexedSynthesisMatchesDisabledIndex(t *testing.T) {
	for _, tc := range indexCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkReplay(t, tc.g, tc.opt)
		})
	}
}

// compareResults asserts two results are bit-identical: placements,
// trace, datapath and cost.
func compareResults(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !got.Schedule.SamePlacements(want.Schedule) {
		t.Errorf("%s: placements diverge from the entry point's", what)
	}
	if !got.Schedule.Trace.Equal(want.Schedule.Trace) {
		t.Errorf("%s: traces diverge from the entry point's", what)
	}
	compareDatapaths(t, got.Datapath, want.Datapath)
	if got.Cost != want.Cost {
		t.Errorf("%s: cost diverges: %+v vs %+v", what, got.Cost, want.Cost)
	}
}

// compareDatapaths asserts netlist bit-identity: same ALUs in the same
// order with identical units, bindings and mux input lists, and the same
// register packing.
func compareDatapaths(t *testing.T, a, b *rtl.Datapath) {
	t.Helper()
	if len(a.ALUs) != len(b.ALUs) {
		t.Fatalf("ALU count diverges: %d vs %d", len(a.ALUs), len(b.ALUs))
	}
	for i := range a.ALUs {
		x, y := a.ALUs[i], b.ALUs[i]
		if x.Name != y.Name || x.Unit.Name != y.Unit.Name {
			t.Fatalf("ALU %d diverges: %s(%s) vs %s(%s)", i, x.Name, x.Unit.Name, y.Name, y.Unit.Name)
		}
		if !reflect.DeepEqual(x.Ops, y.Ops) {
			t.Fatalf("ALU %s bindings diverge", x.Name)
		}
		if !reflect.DeepEqual(x.L1, y.L1) || !reflect.DeepEqual(x.L2, y.L2) {
			t.Fatalf("ALU %s mux input lists diverge", x.Name)
		}
	}
	if !reflect.DeepEqual(a.Registers, b.Registers) {
		t.Fatalf("register packing diverges")
	}
}
