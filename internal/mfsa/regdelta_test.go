package mfsa

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/library"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// regDeltaSlow is the direct evaluation regDelta replaced, kept as its
// oracle: rebuild the interval list with and without the candidate
// consumption, left-edge pack both, diff the counts.
func (s *state) regDeltaSlow(n *dfg.Node, step int) int {
	before := len(rtl.PackRegisters(s.g, s.intervals(nil, 0)))
	after := len(rtl.PackRegisters(s.g, s.intervals(n, step)))
	return max(after-before, 0)
}

// intervals derives the value lifetimes of the committed placement
// from the placements alone, optionally extending them with `extra`
// consuming its inputs at extraStep. Outputs with no placed consumer are
// held one boundary. It is the name-keyed rebuild registerIntervals
// replaced, kept as the oracle of regDelta and of the register packing.
func (s *state) intervals(extra *dfg.Node, extraStep int) []rtl.Interval {
	birth := make(map[string]int) // signal -> producer finish step
	death := make(map[string]int) // signal -> latest consumer step
	have := make(map[string]bool) // signals with a committed producer
	for id, p := range s.Placements() {
		if p.Step == 0 {
			continue
		}
		pn := s.g.Node(dfg.NodeID(id))
		birth[pn.Name] = p.Step + pn.Cycles - 1
		have[pn.Name] = true
	}
	if s.opt.RegisterInputs {
		for _, in := range s.g.Inputs() {
			birth[in] = 0
			have[in] = true
		}
	}
	consume := func(n *dfg.Node, step int) {
		for _, a := range n.Args {
			if !have[a] {
				continue
			}
			if step > death[a] {
				death[a] = step
			}
		}
	}
	for id, p := range s.Placements() {
		if p.Step == 0 {
			continue
		}
		consume(s.g.Node(dfg.NodeID(id)), p.Step)
	}
	if extra != nil {
		consume(extra, extraStep)
	}
	names := make([]string, 0, len(have))
	for sig := range have {
		names = append(names, sig)
	}
	sort.Strings(names)
	out := make([]rtl.Interval, 0, len(names))
	for _, sig := range names {
		d := death[sig]
		if d == 0 { // no consumer yet: hold the value one boundary
			d = birth[sig] + 1
		}
		id, _ := s.g.Signal(sig)
		out = append(out, rtl.Interval{Signal: id, Birth: birth[sig], Death: d})
	}
	return out
}

// assertRegisterIntervals asserts the live lifetimes pack into the same
// registers as the rebuild from the placements.
func assertRegisterIntervals(t *testing.T, s *state) {
	t.Helper()
	got, want := rtl.PackRegisters(s.g, s.registerIntervals()), rtl.PackRegisters(s.g, s.intervals(nil, 0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live lifetimes pack into %v, the placements into %v", got, want)
	}
}

// assertRegDelta asserts the incremental f^REG at (n, step) equals the
// pack-and-diff oracle's.
func assertRegDelta(t *testing.T, s *state, n *dfg.Node, step int) {
	t.Helper()
	if got, want := s.regDelta(n, step), s.regDeltaSlow(n, step); got != want {
		t.Fatalf("regDelta(%s, %d) = %d, pack-and-diff oracle says %d", n.Name, step, got, want)
	}
}

// TestRegDeltaMatchesPackOracle runs checkReplay over every benchmark
// and time constraint in the dimensions that shape lifetimes: chaining
// (same-step consumption shrinks spans), registered inputs (signals
// born at boundary 0) and reweighted f^REG (different commit orders).
// Every f^REG the synthesis and the frozen-time Allocate can score is
// checked against regDeltaSlow before the decision that uses it.
func TestRegDeltaMatchesPackOracle(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			variants := []struct {
				name string
				opt  Options
			}{
				{"plain", Options{CS: cs}},
				{"chained", Options{CS: cs, ClockNs: ex.ClockNs}},
				{"reginputs", Options{CS: cs, RegisterInputs: true}},
				{"regweight", Options{CS: cs, Weights: Weights{Time: 1, ALU: 1, Mux: 1, Reg: 5}}},
			}
			for _, v := range variants {
				if v.opt.ClockNs == 0 && cs < ex.Graph.CriticalPathCycles() {
					continue // constraint only feasible with chaining on
				}
				t.Run(fmt.Sprintf("%s/T=%d/%s", ex.Name, cs, v.name), func(t *testing.T) {
					checkReplay(t, ex.Graph, v.opt)
				})
			}
		}
	}
}

// TestRegBaseTracksPackedCount asserts the committed-prefix invariant
// white-box: replaying a finished schedule through the state one commit
// at a time, the incrementally maintained regBase must equal
// len(rtl.PackRegisters(intervals(nil, 0))) — the quantity the old
// regDelta recomputed from scratch — after every single commit.
func TestRegBaseTracksPackedCount(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, registerInputs := range []bool{false, true} {
			ex := ex
			name := ex.Name
			if registerInputs {
				name += "/reginputs"
			}
			t.Run(name, func(t *testing.T) {
				cs := ex.TimeConstraints[0]
				opt := Options{CS: cs, ClockNs: ex.ClockNs, RegisterInputs: registerInputs}
				res, err := Synthesize(ex.Graph, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Lib = libOf(t, opt)
				frames, err := sched.ComputeFrames(ex.Graph, cs, opt.ClockNs)
				if err != nil {
					t.Fatal(err)
				}
				s := newState(ex.Graph, opt, frames)
				if got, want := s.regBase, len(rtl.PackRegisters(s.g, s.intervals(nil, 0))); got != want {
					t.Fatalf("initial regBase = %d, packed count = %d", got, want)
				}
				for _, st := range res.Schedule.Trace.Steps {
					n := ex.Graph.Node(st.Node)
					i := slices.IndexFunc(s.units, func(u unit) bool { return u.Name == st.Type })
					if i < 0 {
						t.Fatalf("trace names unknown unit %q", st.Type)
					}
					u := &s.units[i]
					s.tableOf(u).Grow(st.Pos.Index) // the replay commits positions it never probed
					s.beginEval(n)                  // commit binds with the decision's membership bits
					if err := s.commit(n, candidate{unit: u, pos: st.Pos, value: st.Energy}, nil); err != nil {
						t.Fatalf("replaying %q: %v", n.Name, err)
					}
					if got, want := s.regBase, len(rtl.PackRegisters(s.g, s.intervals(nil, 0))); got != want {
						t.Fatalf("after committing %q: regBase = %d, packed count = %d", n.Name, got, want)
					}
				}
			})
		}
	}
}

// libOf resolves the library an Options value would synthesize with.
func libOf(t *testing.T, opt Options) *library.Library {
	t.Helper()
	if opt.Lib != nil {
		return opt.Lib
	}
	return library.NCRLike()
}
