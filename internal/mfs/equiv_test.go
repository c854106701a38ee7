package mfs

// Bit-for-bit equivalence of the bitset frame engine against the
// historical map-based semantics. The reference scheduler below
// reimplements the pre-bitset placement inner loop exactly as it was:
// frames as map[grid.Pos]bool with Rect/Union/Minus as map operations,
// and position selection as "materialize the move frame's positions,
// stable-sort by (energy, step, index), take the first legal one". The
// test replays it on every benchmark, under both §3.1 guiding functions,
// with chaining on and off, and on an exclusion-sharing graph, and
// asserts the production engine produced the identical Schedule (every
// node's step, type and index) and the identical Trace (commit order,
// chosen positions, current_j, energies, and recorded frame contents).

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/op"
	"repro/internal/sched"
)

// posSet is the historical frame representation.
type posSet map[grid.Pos]bool

func refRect(stepLo, stepHi, idxLo, idxHi int) posSet {
	f := make(posSet)
	for s := stepLo; s <= stepHi; s++ {
		for i := idxLo; i <= idxHi; i++ {
			f[grid.Pos{Step: s, Index: i}] = true
		}
	}
	return f
}

func refUnion(a, b posSet) posSet {
	out := make(posSet, len(a)+len(b))
	for p := range a {
		out[p] = true
	}
	for p := range b {
		out[p] = true
	}
	return out
}

func refMinus(a, b posSet) posSet {
	out := make(posSet, len(a))
	for p := range a {
		if !b[p] {
			out[p] = true
		}
	}
	return out
}

// refCommit is one reference placement decision, for trace comparison.
type refCommit struct {
	node     dfg.NodeID
	typ      string
	pos      grid.Pos
	currentJ int
	energy   float64
	mf       posSet
}

// refRunOnce is the historical fixed-cs run. It borrows the production
// initialization (bounds, guiding function, tables — none of which
// changed representation) and then schedules with the old map algebra
// and the old sorted selection.
func refRunOnce(g *dfg.Graph, cs int, opt Options, resource bool, frames sched.Frames, extraMax ...int) (*sched.Schedule, []refCommit, error) {
	s, err := newScheduler(g, cs, opt, resource, frames, extraMax...)
	if err != nil {
		return nil, nil, err
	}
	placed := make(map[dfg.NodeID]sched.Placement, g.Len())
	steps := make([]int, g.Len())
	var commits []refCommit
	for _, id := range sched.PriorityOrder(g, frames) {
		n := g.Node(id)
		typ := TypeKey(n)
		table := s.tables[typ]
		for {
			// Old frameSet, with map rectangles.
			base := frames[id]
			lo, hi := base.ASAP, base.ALAP
			ffTop := 0
			for _, pid := range n.Preds() {
				pp, ok := placed[pid]
				if !ok {
					continue
				}
				pred := g.Node(pid)
				bound := pp.Step + pred.Cycles
				if chainable(opt, pred, n) {
					bound = pp.Step
				}
				if bound > lo {
					lo = bound
				}
				if end := pp.Step + pred.Cycles - 1; end > ffTop && bound > pp.Step {
					ffTop = end
				}
			}
			for _, sid := range n.Succs() {
				sp, ok := placed[sid]
				if !ok {
					continue
				}
				succ := g.Node(sid)
				bound := sp.Step - n.Cycles
				if chainable(opt, n, succ) {
					bound = sp.Step
				}
				if bound < hi {
					hi = bound
				}
			}
			maxj, cur := s.maxj[typ], s.current[typ]
			pf := refRect(lo, hi, 1, maxj)
			rf := refRect(lo, hi, cur+1, maxj)
			ff := refRect(1, ffTop, 1, maxj)
			mf := refMinus(pf, refUnion(rf, ff))

			// Old bestPosition: positions sorted by (step, index) first
			// (the map grid's Positions() contract), then stable-sorted
			// by energy — i.e. a full (energy, step, index) order.
			positions := make([]grid.Pos, 0, len(mf))
			for p := range mf {
				positions = append(positions, p)
			}
			sort.Slice(positions, func(i, j int) bool {
				vi, vj := s.lf.Value(positions[i]), s.lf.Value(positions[j])
				if vi != vj {
					return vi < vj
				}
				if positions[i].Step != positions[j].Step {
					return positions[i].Step < positions[j].Step
				}
				return positions[i].Index < positions[j].Index
			})
			committed := false
			for _, p := range positions {
				if !table.CanPlace(g, id, p, n.Cycles) {
					continue
				}
				if opt.ClockNs > 0 && !sched.ChainFits(g, opt.ClockNs, steps, id, p.Step) {
					continue
				}
				if err := table.Place(g, id, p, n.Cycles); err != nil {
					return nil, nil, err
				}
				placed[id] = sched.Placement{Step: p.Step, Type: typ, Index: p.Index}
				steps[id] = p.Step
				commits = append(commits, refCommit{
					node: id, typ: typ, pos: p, currentJ: s.current[typ], energy: s.lf.Value(p), mf: mf,
				})
				committed = true
				break
			}
			if committed {
				break
			}
			if s.current[typ] < s.maxj[typ] {
				s.current[typ]++
				continue
			}
			return nil, nil, fmt.Errorf("ref: no position for %q", n.Name)
		}
	}
	out := sched.NewSchedule(g, cs)
	out.ClockNs = opt.ClockNs
	out.Latency = opt.Latency
	for typ, p := range opt.PipelinedTypes {
		out.PipelinedTypes[typ] = p
	}
	for id, p := range placed {
		out.Place(id, p)
	}
	return out, commits, nil
}

// chainable is the reference's chaining predicate: with chaining on,
// two data neighbours may share a step unless either is multicycle or a
// folded loop.
func chainable(opt Options, pred, succ *dfg.Node) bool {
	return opt.ClockNs > 0 && pred.Cycles == 1 && succ.Cycles == 1 && !pred.IsLoop() && !succ.IsLoop()
}

// fixedRun is one fixed-cs scheduling run, the unit searchSchedule
// composes.
type fixedRun func(cs int, resource bool, frames sched.Frames, extraMax ...int) (*sched.Schedule, error)

// searchSchedule mirrors ScheduleCtx's search structure over run:
// fixed-cs with widening retries under a time constraint, sequential
// smallest-feasible-cs search under a resource constraint.
func searchSchedule(g *dfg.Graph, opt Options, run fixedRun) (*sched.Schedule, error) {
	if opt.CS > 0 {
		frames, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
		if err != nil {
			return nil, err
		}
		s, err := run(opt.CS, false, frames)
		if err == nil {
			return s, nil
		}
		for extra := 1; extra <= 3; extra++ {
			s, retryErr := run(opt.CS, false, frames, extra)
			if retryErr == nil {
				return s, nil
			}
		}
		return nil, err
	}
	lo := g.CriticalPathCycles()
	if lo < 1 {
		lo = 1
	}
	hi := opt.MaxCS
	if hi == 0 {
		hi = 4*lo + 8
	}
	frames, err := sched.ComputeFrames(g, lo, opt.ClockNs)
	if err != nil {
		return nil, err
	}
	for cs := lo; cs <= hi; cs++ {
		s, err := run(cs, true, frames.Shifted(cs-lo))
		if err == nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("ref: no schedule within %d steps", hi)
}

// refSchedule is the map-semantics reference: searchSchedule over
// refRunOnce, returning the commits of the run it settles on.
func refSchedule(g *dfg.Graph, opt Options) (*sched.Schedule, []refCommit, error) {
	var commits []refCommit
	s, err := searchSchedule(g, opt, func(cs int, resource bool, frames sched.Frames, extraMax ...int) (*sched.Schedule, error) {
		s, c, err := refRunOnce(g, cs, opt, resource, frames, extraMax...)
		commits = c
		return s, err
	})
	return s, commits, err
}

// checkReplay runs the production scheduler white-box through
// searchSchedule, calling check before every placement of every
// fixed-cs run, and asserts the replay reproduced Schedule's placements
// and trace — so check saw exactly the states a real run visits.
func checkReplay(t *testing.T, tc equivCase, check func(s *scheduler, id dfg.NodeID)) {
	t.Helper()
	want, err := Schedule(tc.g, tc.opt)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	got, err := searchSchedule(tc.g, tc.opt, func(cs int, resource bool, frames sched.Frames, extraMax ...int) (*sched.Schedule, error) {
		s, err := newScheduler(tc.g, cs, tc.opt, resource, frames, extraMax...)
		if err != nil {
			return nil, err
		}
		for _, id := range sched.PriorityOrder(tc.g, frames) {
			check(s, id)
			if err := s.placeOne(id); err != nil {
				return nil, err
			}
		}
		return s.finish()
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	comparePlacements(t, tc.name, got, want)
	compareTraces(t, tc.name, got.Trace, want.Trace)
}

// equivCase is one (graph, options) configuration under test.
type equivCase struct {
	name string
	g    *dfg.Graph
	opt  Options
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	var cases []equivCase
	for _, ex := range benchmarks.All() {
		piped := make(map[string]bool)
		for _, sym := range ex.PipelinedOps {
			piped[sym] = true
		}
		for _, cs := range ex.TimeConstraints {
			opt := Options{CS: cs, ClockNs: ex.ClockNs}
			if ex.Latency != nil {
				opt.Latency = ex.Latency(cs)
			}
			cases = append(cases, equivCase{
				name: fmt.Sprintf("%s/T=%d/time", ex.Name, cs), g: ex.Graph, opt: opt,
			})
			// Chaining toggled: off for the chained example, on (with a
			// permissive clock; the benchmark graphs leave DelayNs at
			// zero) for the others — both paths must still agree.
			alt := opt
			if ex.ClockNs > 0 {
				// Chaining off needs one step per dependency level again.
				alt.ClockNs = 0
				if cp := ex.Graph.CriticalPathCycles(); cp > alt.CS {
					alt.CS = cp
				}
			} else {
				alt.ClockNs = 100
			}
			cases = append(cases, equivCase{
				name: fmt.Sprintf("%s/T=%d/time/chain-toggled", ex.Name, cs), g: ex.Graph, opt: alt,
			})
			if len(ex.PipelinedOps) > 0 {
				sp := opt
				sp.PipelinedTypes = piped
				cases = append(cases, equivCase{
					name: fmt.Sprintf("%s/T=%d/time/pipelined", ex.Name, cs), g: ex.Graph, opt: sp,
				})
			}
		}
		// Resource-constrained (the dual guiding function): limits taken
		// from the tightest time-constrained run's FU usage.
		tc := Options{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs}
		if ex.Latency != nil {
			tc.Latency = ex.Latency(tc.CS)
		}
		s, err := Schedule(ex.Graph, tc)
		if err != nil {
			t.Fatalf("%s: seed run: %v", ex.Name, err)
		}
		for _, clock := range []float64{0, 100} {
			cases = append(cases, equivCase{
				name: fmt.Sprintf("%s/resource/clock=%g", ex.Name, clock),
				g:    ex.Graph,
				opt:  Options{Limits: s.InstancesPerType(), ClockNs: clock, Parallelism: 1},
			})
		}
	}
	// Conditional sharing: the one configuration where the index walk
	// must consult CanPlace's occupant lists on occupied bits.
	mg := dfg.New("mx-idx")
	if err := mg.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, _ := mg.AddOp("x", op.Mul, "a", "a")
	y, _ := mg.AddOp("y", op.Mul, "a", "a")
	mg.AddOp("ux", op.Add, "x", "a")
	mg.AddOp("uy", op.Sub, "y", "a")
	mg.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	mg.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	return append(cases, equivCase{name: "mx/T=2/exclusion", g: mg, opt: Options{CS: 2}})
}

func comparePlacements(t *testing.T, name string, got, want *sched.Schedule) {
	t.Helper()
	if got.CS != want.CS {
		t.Errorf("%s: cs %d, reference %d", name, got.CS, want.CS)
	}
	for _, n := range got.Graph.Nodes() {
		gp, _ := got.At(n.ID)
		wp, _ := want.At(n.ID)
		if gp != wp {
			t.Errorf("%s: node %q placed %+v, reference %+v", name, n.Name, gp, wp)
		}
	}
}

// TestBitsetEngineMatchesMapReference is the golden equivalence test of
// the representation change: on every benchmark, under both guiding
// functions, chaining on and off, and with exclusion sharing, the
// engine's schedule and trace must match the map-semantics reference
// bit for bit.
func TestBitsetEngineMatchesMapReference(t *testing.T) {
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Schedule(tc.g, tc.opt)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			want, commits, err := refSchedule(tc.g, tc.opt)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			comparePlacements(t, tc.name, got, want)

			// Trace equivalence: same commit order, same positions,
			// current_j and energies, same recorded move-frame contents.
			steps := got.Trace.Steps
			if len(steps) != len(commits) {
				t.Fatalf("trace has %d steps, reference %d", len(steps), len(commits))
			}
			for i, c := range commits {
				st := steps[i]
				if st.Node != c.node || st.Type != c.typ || st.Pos != c.pos || int(st.CurrentJ) != c.currentJ || st.Energy != c.energy {
					t.Fatalf("trace step %d: (%d %s %v j=%d %g), reference (%d %s %v j=%d %g)",
						i, st.Node, st.Type, st.Pos, st.CurrentJ, st.Energy, c.node, c.typ, c.pos, c.currentJ, c.energy)
				}
				mf := st.Frames().MF()
				if mf.Len() != len(c.mf) {
					t.Fatalf("trace step %d: |MF| = %d, reference %d", i, mf.Len(), len(c.mf))
				}
				for _, p := range mf.Positions() {
					if !c.mf[p] {
						t.Fatalf("trace step %d: MF contains %v, reference does not", i, p)
					}
				}
			}
		})
	}
}

// sortedBestPosition is the generic path bestPosition replaced, kept as
// its oracle: list the window row-major, stable-sort it by energy (so
// ties keep (step, index) order), and take the first position that is
// placeable and keeps the chain within the clock.
func sortedBestPosition(s *scheduler, id dfg.NodeID, cycles, lo, hi, cur int) (grid.Pos, bool) {
	var ps []grid.Pos
	for step := max(lo, 1); step <= hi; step++ {
		for idx := 1; idx <= cur; idx++ {
			ps = append(ps, grid.Pos{Step: step, Index: idx})
		}
	}
	sort.SliceStable(ps, func(i, j int) bool { return s.lf.Value(ps[i]) < s.lf.Value(ps[j]) })
	table := s.tables[TypeKey(s.g.Node(id))]
	for _, p := range ps {
		if table.CanPlace(s.g, id, p, cycles) && s.ChainFits(id, p.Step) {
			return p, true
		}
	}
	return grid.Pos{}, false
}

// TestOrderedWalkMatchesSortedFallback pins bestPosition's ordered walk
// against sortedBestPosition at every state a run of every equivCase
// visits, for every current_j local rescheduling may reach: the first
// legal position in the certified grid order must be the least-energy
// legal position.
func TestOrderedWalkMatchesSortedFallback(t *testing.T) {
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkReplay(t, tc, func(s *scheduler, id dfg.NodeID) {
				n := s.g.Node(id)
				typ := TypeKey(n)
				lo, hi, _ := s.Window(id)
				for cur := s.current[typ]; cur <= s.maxj[typ]; cur++ {
					got, gotOK := s.bestPosition(s.tables[typ], s.orders[typ], id, n.Cycles, lo, hi, cur)
					want, wantOK := sortedBestPosition(s, id, n.Cycles, lo, hi, cur)
					if got != want || gotOK != wantOK {
						t.Fatalf("%q in [%d..%d] x [1..%d]: ordered walk %v (%v), sorted %v (%v)",
							n.Name, lo, hi, cur, got, gotOK, want, wantOK)
					}
				}
			})
		})
	}
}
