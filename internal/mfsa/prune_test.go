package mfsa

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/library"
	"repro/internal/op"
	"repro/internal/sched"
)

// movePositions lists the free positions of the unit's move frame in the
// row-major (step, index) order of the window walk.
func movePositions(s *state, table *grid.Table, n *dfg.Node, lo, hi, cur int) []grid.Pos {
	var out []grid.Pos
	table.ScanPlaceable(s.g, n.ID, s.excl, grid.RowMajor, lo, hi, cur, n.Cycles, func(p grid.Pos) bool {
		out = append(out, p)
		return true
	})
	return out
}

// fullScan is the search bestCandidate prunes, kept as its oracle: it
// lists every free position of every unit's move frame first and then
// scores each one that style 2 allows and where the chain ending at n
// fits the clock by the whole-graph sched.ChainFits walk, whatever the
// weights and however alike the columns.
func (s *state) fullScan(n *dfg.Node, units []*unit) (candidate, []sched.TraceCandidate, bool) {
	s.beginEval(n)
	lo, hi, _ := s.Window(n.ID)
	var steps []int
	if s.opt.ClockNs > 0 {
		steps = make([]int, s.g.Len())
		for id, p := range s.Placements() {
			steps[id] = p.Step
		}
	}
	var best candidate
	var evaluated []sched.TraceCandidate
	found := false
	for _, u := range units {
		if u.maxInst == 0 {
			continue
		}
		table := s.tableOf(u)
		table.Grow(u.current)
		for _, p := range movePositions(s, table, n, lo, hi, u.current) {
			if s.opt.ClockNs > 0 && !sched.ChainFits(s.g, s.opt.ClockNs, steps, n.ID, p.Step) {
				continue
			}
			if a, _ := s.column(u, p.Index); s.opt.Style == Style2 && neighborsOnALU(n, a) {
				continue
			}
			v := s.value(n, u, p)
			cand := candidate{unit: u, pos: p, value: v}
			evaluated = append(evaluated, traceCandidate(u, p, v))
			if !found || less(cand, best) {
				best, found = cand, true
			}
		}
	}
	return best, evaluated, found
}

// checkPrune is the white-box oracle of the time-dominance prune. It
// asserts the run's liapunov.TimeDominates verdict, then runs
// Synthesize's placement loop one search at a time. At every state the
// run visits — each node, and each retry after local rescheduling grew
// a unit — it runs the full scan beside bestCandidate. Both must find
// the same candidate: unit, position, energy and operand swap. The
// pruned candidate list must be a subsequence of the full scan's, and
// a candidate it leaves out must have a kept twin or, when time
// dominates, lie past the winning step (checkDropped). The replay
// commits the pruned choice and must reproduce Synthesize exactly, so
// the oracle saw the states a real run visits.
func checkPrune(t *testing.T, g *dfg.Graph, opt Options, dominant bool) {
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
	if s.dominant != dominant {
		t.Fatalf("time dominates = %v under weights %+v, want %v", s.dominant, s.w, dominant)
	}
	scored := 0
	for _, id := range sched.PriorityOrder(g, frames) {
		n := g.Node(id)
		units := s.unitsFor(n)
		for {
			full, fullEval, fullOK := s.fullScan(n, units)
			best, evaluated, ok, err := s.bestCandidate(context.Background(), n, units)
			if err != nil {
				t.Fatal(err)
			}
			if ok != fullOK || best != full {
				t.Fatalf("%q: pruned search found %v %+v, full scan %v %+v", n.Name, ok, best, fullOK, full)
			}
			if !isSubsequence(evaluated, fullEval) {
				t.Fatalf("%q: pruned candidates %v are not a subsequence of the full scan's %v", n.Name, evaluated, fullEval)
			}
			scored += len(evaluated)
			if ok {
				// Without time dominance the walk covers every step.
				last := math.MaxInt
				if dominant {
					last = best.pos.Step
				}
				if err := checkDropped(evaluated, fullEval, last); err != nil {
					t.Fatalf("%q: %v", n.Name, err)
				}
				if err := s.commit(n, best, evaluated); err != nil {
					t.Fatal(err)
				}
				break
			}
			if err := s.grow(n, units); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "pruned synthesis", got, want)
	if scored != want.Schedule.Trace.Scored() {
		t.Errorf("the replay scored %d candidates, the trace holds %d", scored, want.Schedule.Trace.Scored())
	}
}

// checkDropped checks each candidate of the full scan that the pruned
// search left out. At a step and unit where the search kept a
// candidate, the shape dedup dropped it, so a kept candidate there must
// have a lower index and a bitwise-equal energy. Elsewhere the time
// prune dropped it, so it must lie past lastStep, the last step the
// search had to walk: the winning step under time dominance.
func checkDropped(kept, full []sched.TraceCandidate, lastStep int) error {
	type cell struct{ unit, step int32 }
	scored := map[sched.TraceCandidate]bool{}
	at := map[cell][]sched.TraceCandidate{}
	for _, c := range kept {
		scored[c] = true
		at[cell{c.Unit, c.Step}] = append(at[cell{c.Unit, c.Step}], c)
	}
	for _, c := range full {
		if scored[c] {
			continue
		}
		twins, ok := at[cell{c.Unit, c.Step}]
		if !ok {
			if int(c.Step) <= lastStep {
				return fmt.Errorf("dropped %+v at or before step %d, with nothing kept at its step and unit", c, lastStep)
			}
			continue
		}
		if !slices.ContainsFunc(twins, func(k sched.TraceCandidate) bool {
			return k.Index < c.Index && math.Float64bits(k.Energy) == math.Float64bits(c.Energy)
		}) {
			return fmt.Errorf("dropped %+v without a kept twin of lower index and equal energy among %+v", c, twins)
		}
	}
	return nil
}

// isSubsequence reports whether sub lists some of full's candidates in
// full's order.
func isSubsequence(sub, full []sched.TraceCandidate) bool {
	i := 0
	for _, c := range full {
		if i < len(sub) && sub[i] == c {
			i++
		}
	}
	return i == len(sub)
}

// TestPrunedSearchMatchesFullScan runs checkPrune over every
// benchmark × style × chaining/pipelining/latency/exclusion case of the
// replay oracle, under each weight row: the default weights, which let
// time dominate, and rows that break the predicate's premises and must
// walk the whole move frame — §4.1's C outweighed (ALU weight 50, as
// TestWeightsShiftTradeoffs runs), no time term, a negative weight, and
// products that overflow to +Inf. Two more rows run the default
// weights: on the weights ablation's restricted shared-ALU library, and
// with the add, sub and mul cells limited to one instance, so local
// rescheduling opens multi-function ALUs and several unit types compete
// for the same step (each unit's window is clamped to the best step an
// earlier unit found).
func TestPrunedSearchMatchesFullScan(t *testing.T) {
	shared, err := library.NCRLike().Restrict(
		library.ComposeName(op.Add, op.Sub, op.Mul), "fu_div", "fu_lt", "fu_and", "fu_or")
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name     string
		w        Weights
		lib      *library.Library
		limits   map[string]int
		dominant bool
	}{
		{"default", Weights{}, nil, nil, true},
		{"limited", Weights{}, nil, map[string]int{"fu_add": 1, "fu_sub": 1, "fu_mul": 1}, true},
		{"alu50", Weights{Time: 1, ALU: 50, Mux: 1, Reg: 1}, nil, nil, false},
		{"notime", Weights{Time: 0, ALU: 1, Mux: 1, Reg: 1}, nil, nil, false},
		{"negative", Weights{Time: 1, ALU: 1, Mux: -1, Reg: 1}, nil, nil, false},
		{"overflow-time", Weights{Time: math.MaxFloat64, ALU: 1, Mux: 1, Reg: 1}, nil, nil, false},
		{"overflow-hw", Weights{Time: 1, ALU: math.MaxFloat64, Mux: math.MaxFloat64, Reg: 1}, nil, nil, false},
		{"shared-alu", Weights{}, shared, nil, true},
	}
	for _, tc := range indexCases(t) {
		for _, row := range rows {
			t.Run(tc.name+"/"+row.name, func(t *testing.T) {
				opt := tc.opt
				opt.Weights, opt.Lib, opt.Limits = row.w, row.lib, row.limits
				checkPrune(t, tc.g, opt, row.dominant)
			})
		}
	}
	// A generated graph at a 100 ns clock chains hundreds of edges, so the
	// incremental chain filter meets the full-graph ChainFits walk of
	// fullScan at every decision.
	t.Run("gen500/chained", func(t *testing.T) {
		g, err := gen.Generate(gen.Config{Nodes: 500, Seed: 1, MulCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkPrune(t, g, Options{CS: g.CriticalPathCycles() + 4, ClockNs: 100}, true)
	})
}

// TestPrunedSearchMatchesFullScanLadder runs checkPrune on the scale
// ladder's rungs up to rand10k, at the time constraints hlsbench -scale
// gives them. It skips the chained rungs: the full scan's ChainFits
// walk is quadratic there, and the gen500/chained row of
// TestPrunedSearchMatchesFullScan covers the chain filter.
func TestPrunedSearchMatchesFullScanLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("scale ladder")
	}
	for _, rung := range benchmarks.Scale() {
		if rung.Nodes > 10_000 || rung.ClockNs > 0 {
			continue
		}
		t.Run(rung.Name, func(t *testing.T) {
			g := rung.Graph()
			checkPrune(t, g, Options{CS: g.CriticalPathCycles() + rung.Slack}, true)
		})
	}
}
