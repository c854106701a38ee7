// Package mfs implements Move Frame Scheduling (§3), the paper's
// time- or resource-constrained scheduling algorithm, together with the
// §5 extensions: mutually exclusive operations, loop folding, multicycle
// operations, chaining, and structural and functional pipelining.
//
// MFS places one operation at a time into per-type placement grids
// (control step × FU instance). For each operation it computes the move
// frame MF = PF − (RF ∪ FF) and commits the operation to the empty MF
// position with the least Liapunov energy: V = x + n·y under a time
// constraint (fill a step before opening the next) or V = cs·x + y under
// a resource constraint (use another step before adding hardware). When
// an operation's move frame is exhausted, the running FU estimate
// current_j grows by one and the operation is re-framed — the paper's
// "local rescheduling".
package mfs

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/liapunov"
	"repro/internal/pool"
	"repro/internal/sched"
)

// Options configures a scheduling run.
type Options struct {
	// CS is the time constraint in control steps. CS > 0 selects
	// time-constrained scheduling; CS == 0 selects resource-constrained
	// scheduling, which finds the smallest feasible number of steps under
	// Limits.
	CS int

	// Limits caps FU instances per type key (operation symbol). Under a
	// time constraint absent entries default to the upper bound observed
	// in the ASAP/ALAP schedules (MFS step 2); under a resource
	// constraint Limits is required.
	Limits map[string]int

	// ClockNs enables the chaining extension (§5.4): data-dependent
	// single-cycle operations share a control step while their summed
	// combinational delay fits this clock period. 0 disables chaining.
	ClockNs float64

	// Latency enables functional pipelining (§5.5.2) with initiation
	// interval L: operations in steps t and t+k·L execute concurrently,
	// so their grid occupancy folds modulo L. 0 disables it.
	Latency int

	// PipelinedTypes marks FU types realized by structurally pipelined
	// units (§5.5.1): an instance accepts a new operation every step.
	PipelinedTypes map[string]bool

	// Liapunov overrides the guiding function; nil selects the §3.1
	// function matching the constraint mode. Used by ablation benchmarks.
	// The function must order every placement table (GridOrder): a run
	// whose function withdraws the order, or walks columns of a table
	// folded by Latency, fails with an error.
	Liapunov liapunov.Ordered

	// NoRedundantFrame disables the RF balancing mechanism: current_j
	// starts at max_j instead of ⌈N_j/steps⌉, so every column is
	// available immediately. Ablation use only.
	NoRedundantFrame bool

	// MaxCS bounds the resource-constrained search for the smallest
	// schedule; 0 defaults to 4·critical-path + 8 steps.
	MaxCS int

	// Parallelism bounds the worker pool of the resource-constrained
	// search, which probes a window of candidate cs values speculatively
	// and commits the smallest feasible one: 1 = sequential, n > 1 = at
	// most n concurrent probes, and 0 = GOMAXPROCS for a graph of
	// pool.GrainNodes nodes or more and sequential below. Every setting
	// returns the identical schedule (see pool.SearchMin).
	Parallelism int

	// NoTrace skips recording the move trajectory (Schedule.Trace). The
	// placements are unaffected; only the audit metadata is dropped, and
	// the lint trace audits become no-ops. A recorded step is its window
	// in closed form, so the trace costs O(N) memory across a run.
	NoTrace bool
}

// TypeKey returns the FU-type grid an operation competes in. In pure
// scheduling every operation type has its own single-function unit, so
// the key is the operation symbol; folded loops are singleton types.
func TypeKey(n *dfg.Node) string {
	if n.IsLoop() {
		return "loop:" + n.Name
	}
	return n.Op.String()
}

// Schedule runs MFS on g and returns a verified schedule.
func Schedule(g *dfg.Graph, opt Options) (*sched.Schedule, error) {
	return ScheduleCtx(context.Background(), g, opt)
}

// ScheduleCtx is Schedule with cancellation: the run observes ctx
// between operation placements and between candidate probes of the
// resource-constrained search, returning ctx.Err() — never a partial
// schedule — once ctx is done.
func ScheduleCtx(ctx context.Context, g *dfg.Graph, opt Options) (*sched.Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	if opt.Latency > 0 && opt.CS == 0 {
		return nil, fmt.Errorf("mfs: functional pipelining needs a time constraint")
	}
	if cs := max(opt.CS, opt.MaxCS); cs > math.MaxInt32 {
		// The trace keeps windows as int32.
		return nil, &guard.LimitError{What: "mfs time constraint", Got: cs, Max: math.MaxInt32}
	}
	if opt.CS > 0 {
		return scheduleTimeConstrained(ctx, g, opt)
	}
	return scheduleResourceConstrained(ctx, g, opt)
}

func scheduleTimeConstrained(ctx context.Context, g *dfg.Graph, opt Options) (*sched.Schedule, error) {
	// Frames depend only on (graph, cs, clock), so the widening retries
	// below share one computation.
	frames, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
	if err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := runOnce(ctx, g, opt.CS, opt, false, frames)
	if err == nil {
		return s, nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	// The ASAP/ALAP bound on max_j is usually sufficient but not a
	// guarantee; for types the user left unbounded, widen and retry a few
	// times before giving up (time-constrained runs must keep cs fixed).
	for extra := 1; extra <= 3; extra++ {
		s, retryErr := runOnce(ctx, g, opt.CS, opt, false, frames, extra)
		if retryErr == nil {
			return s, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
	}
	return nil, err
}

// scheduleResourceConstrained finds the smallest feasible cs under the
// resource limits. Candidate cs values are independent fixed-cs runs, so
// a window of them is probed speculatively in parallel (on a graph below
// pool.GrainNodes, at the default Parallelism, one at a time) and the
// smallest feasible one commits — pool.SearchMin guarantees the result
// is exactly the sequential loop's. Frames are computed once at the
// critical path and shifted per candidate instead of recomputed
// (Frames.Shifted).
func scheduleResourceConstrained(ctx context.Context, g *dfg.Graph, opt Options) (*sched.Schedule, error) {
	if len(opt.Limits) == 0 {
		return nil, fmt.Errorf("mfs: resource-constrained scheduling needs Limits")
	}
	lo := g.CriticalPathCycles()
	if lo < 1 {
		lo = 1 // empty graph: one empty step is a legal schedule
	}
	hi := opt.MaxCS
	if hi == 0 {
		hi = 4*lo + 8
	}
	frames, err := sched.ComputeFrames(g, lo, opt.ClockNs)
	if err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	_, s, err := pool.SearchMinCtx(ctx, pool.SizeFor(opt.Parallelism, g.Len()), hi-lo+1,
		func(i int) (*sched.Schedule, error) {
			return runOnce(ctx, g, lo+i, opt, true, frames.Shifted(i))
		})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("mfs: no schedule within %d steps: %w", hi, err)
	}
	return s, nil
}

// scheduler carries the state of one fixed-cs run.
type scheduler struct {
	g        *dfg.Graph
	cs       int
	opt      Options
	resource bool

	frames sched.Frames
	lf     liapunov.Ordered
	tables map[string]*grid.Table
	// orders[typ] is the walk order lf certified for tables[typ]: in it
	// the first legal position is the least-energy one.
	orders  map[string]grid.Order
	maxj    map[string]int
	current map[string]int
	// excl caches g.HasExclusions() for the run: when false, the window
	// walk can treat every occupied index bit as illegal without
	// consulting the occupant lists (grid.Table.ScanPlaceable).
	excl bool
	// Placing holds the committed placements and answers each
	// operation's move window and chaining budget from them.
	sched.Placing
	trace []sched.TraceStep
}

// newScheduler builds the state of one fixed-cs run. It reads g and
// frames but mutates neither, so concurrent runs over the same graph
// are safe — the speculative search depends on that.
func newScheduler(g *dfg.Graph, cs int, opt Options, resource bool, frames sched.Frames, extraMax ...int) (*scheduler, error) {
	s := &scheduler{
		g: g, cs: cs, opt: opt, resource: resource,
		frames:  frames,
		tables:  make(map[string]*grid.Table),
		orders:  make(map[string]grid.Order),
		maxj:    make(map[string]int),
		current: make(map[string]int),
		excl:    g.HasExclusions(),
		Placing: sched.NewPlacing(g, frames, opt.ClockNs),
	}
	if !opt.NoTrace {
		// One step per node; sized up front so the per-commit append
		// never reallocates the whole trajectory on large graphs.
		s.trace = make([]sched.TraceStep, 0, g.Len())
	}
	s.initBounds(extraMax...)
	s.initLiapunov()
	if err := s.initTables(); err != nil {
		return nil, err
	}
	return s, nil
}

// runOnce performs one fixed-cs scheduling run against precomputed
// frames (which must match cs; see ComputeFrames and Frames.Shifted).
func runOnce(ctx context.Context, g *dfg.Graph, cs int, opt Options, resource bool, frames sched.Frames, extraMax ...int) (*sched.Schedule, error) {
	s, err := newScheduler(g, cs, opt, resource, frames, extraMax...)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	order, err := sched.PriorityOrderCtx(ctx, g, frames)
	if err != nil {
		return nil, err
	}

	// MFS step 4: schedule every operation in priority order. Because an
	// operation's ALAP is always strictly earlier than its successors',
	// the priority order is topological: predecessors are committed
	// before their consumers, so frames only ever tighten from above.
	// The per-operation ctx check is what makes a cancelled run return
	// within one placement's worth of work rather than one schedule's.
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.placeOne(id); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// initBounds sets max_j per type: the user limit if given, otherwise the
// maximum concurrency observed in the ASAP and ALAP schedules (MFS
// step 2), never below the ⌈N_j/steps⌉ floor. extraMax widens unbounded
// types on retry.
func (s *scheduler) initBounds(extraMax ...int) {
	widen := 0
	if len(extraMax) > 0 {
		widen = extraMax[0]
	}
	counts := make(map[string]int)
	asapConc := s.concurrency(func(f sched.Frame) int { return f.ASAP })
	alapConc := s.concurrency(func(f sched.Frame) int { return f.ALAP })
	for _, n := range s.g.Nodes() {
		counts[TypeKey(n)]++
	}
	//hls:orderok every write is keyed by typ and reads only typ's own entries; iterations are independent
	for typ, nj := range counts {
		if lim, ok := s.opt.Limits[typ]; ok {
			// No grid grows past MaxInt32 columns, and the trace keeps
			// max_j as int32.
			s.maxj[typ] = min(lim, math.MaxInt32)
		} else {
			m := asapConc[typ]
			if alapConc[typ] > m {
				m = alapConc[typ]
			}
			if m < 1 {
				m = 1
			}
			s.maxj[typ] = m + widen
		}
		if s.opt.NoRedundantFrame {
			s.current[typ] = s.maxj[typ]
			continue
		}
		span := s.cs
		if s.opt.Latency > 0 && s.opt.Latency < span {
			span = s.opt.Latency
		}
		floor := (nj + span - 1) / span
		if floor < 1 {
			floor = 1
		}
		s.current[typ] = floor
		if s.current[typ] > s.maxj[typ] {
			s.current[typ] = s.maxj[typ]
		}
	}
}

// concurrency counts, per type, the peak number of operations whose
// footprint covers a step when every operation starts at the given frame
// bound (ASAP or ALAP) — the paper's upper-bound estimate for max_j.
func (s *scheduler) concurrency(start func(sched.Frame) int) map[string]int {
	perStep := make(map[string]map[int]int)
	for _, n := range s.g.Nodes() {
		typ := TypeKey(n)
		if perStep[typ] == nil {
			perStep[typ] = make(map[int]int)
		}
		cyc := n.Cycles
		if s.opt.PipelinedTypes[typ] {
			cyc = 1
		}
		for i := 0; i < cyc; i++ {
			step := start(s.frames[n.ID]) + i
			if s.opt.Latency > 0 {
				step = ((step - 1) % s.opt.Latency) + 1
			}
			perStep[typ][step]++
		}
	}
	out := make(map[string]int, len(perStep))
	//hls:orderok per-typ max fold; max is commutative and each key is independent
	for typ, steps := range perStep {
		for _, c := range steps {
			if c > out[typ] {
				out[typ] = c
			}
		}
	}
	return out
}

func (s *scheduler) initLiapunov() {
	if s.opt.Liapunov != nil {
		s.lf = s.opt.Liapunov
		return
	}
	if s.resource {
		s.lf = liapunov.ResourceConstrained{CS: s.cs + 1}
		return
	}
	n := 1
	//hls:orderok max fold over the bound values; commutative
	for _, m := range s.maxj {
		if m > n {
			n = m
		}
	}
	s.lf = liapunov.TimeConstrained{N: n + 1}
}

// initTables builds one table per type and asks the guiding function,
// once per table, for the walk order that visits it in non-decreasing
// energy. A withdrawn order, or a column walk over a table that Latency
// folds (grid.Table.ScanPlaceable's one precondition), is an error
// naming the smallest such type.
func (s *scheduler) initTables() error {
	folded := s.opt.Latency > 0 && s.opt.Latency < s.cs
	bad := ""
	//hls:orderok builds one independent table per typ, written keyed; bad is a min fold over type names
	for typ, m := range s.maxj {
		ord, ok := s.lf.GridOrder(s.cs, m)
		if !ok || (ord == grid.ColMajor && folded) {
			if bad == "" || typ < bad {
				bad = typ
			}
			continue
		}
		t := grid.NewTable(typ, s.cs, m)
		t.Latency = s.opt.Latency
		t.Pipelined = s.opt.PipelinedTypes[typ]
		s.tables[typ] = t
		s.orders[typ] = ord
	}
	if bad == "" {
		return nil
	}
	if _, ok := s.lf.GridOrder(s.cs, s.maxj[bad]); !ok {
		return fmt.Errorf("mfs: guiding function %s withdraws its grid order on the %d-step × %d-unit %q table",
			s.lf.Name(), s.cs, s.maxj[bad], bad)
	}
	return fmt.Errorf("mfs: guiding function %s walks columns, which latency %d folds below %d steps (%q table)",
		s.lf.Name(), s.opt.Latency, s.cs, bad)
}

// placeOne schedules one operation: frame it, walk its move frame in
// Liapunov order, commit the first legal position, growing current_j and
// re-framing when the frame is exhausted (local rescheduling).
//
// The move frame MF = PF − (RF ∪ FF) is the rectangle
// [lo..hi] × [1..current_j] (grid.Frames.MF; sched.Placing.Window keeps
// lo ≥ ffTop+1), so the search walks the window bounds and the trace
// records them. equiv_test.go pins both the schedule and the recorded
// move frames against the historical map-based reference scheduler.
func (s *scheduler) placeOne(id dfg.NodeID) error {
	n := s.g.Node(id)
	typ := TypeKey(n)
	table, ord := s.tables[typ], s.orders[typ]
	lo, hi, ffTop := s.Window(id)
	for {
		if p, ok := s.bestPosition(table, ord, id, n.Cycles, lo, hi, s.current[typ]); ok {
			if err := table.Place(s.g, id, p, n.Cycles); err != nil {
				return fmt.Errorf("mfs: %w", err)
			}
			s.Commit(id, sched.Placement{Step: p.Step, Type: typ, Index: p.Index})
			if !s.opt.NoTrace {
				// Record the decision for the Liapunov audit: the window
				// the operation saw, the scheduler's FU estimate, and the
				// energy of the committed position.
				s.trace = append(s.trace, sched.TraceStep{
					Node: id, Type: typ,
					Lo: int32(lo), Hi: int32(hi), FFTop: int32(ffTop),
					CurrentJ: int32(s.current[typ]), MaxJ: int32(s.maxj[typ]),
					Pos: p, Energy: s.lf.Value(p),
				})
			}
			return nil
		}
		if s.current[typ] < s.maxj[typ] {
			s.current[typ]++ // local rescheduling: allow one more FU
			continue
		}
		return &sched.NoPositionError{Engine: "mfs", Graph: s.g.Name, Node: n.Name, Lo: lo, Hi: hi, CS: s.cs,
			Units: []string{typ}, Max: []int{s.maxj[typ]}}
	}
}

// bestPosition returns the cheapest legal position within the move
// window [lo..hi] × [1..cur], filtering occupied cells, footprint
// conflicts, and chaining overflows. The guiding function certified
// (liapunov.Ordered) that ord visits the table in strictly increasing
// energy, so the window is walked in that order via the table's
// occupancy index (grid.Table.ScanPlaceable) and the first legal
// position wins: exactly the minimum of a sort by (energy, step,
// index), which the tests keep as the oracle.
func (s *scheduler) bestPosition(table *grid.Table, ord grid.Order, id dfg.NodeID, cycles, lo, hi, cur int) (grid.Pos, bool) {
	var best grid.Pos
	found := false
	table.ScanPlaceable(s.g, id, s.excl, ord, lo, hi, cur, cycles, func(p grid.Pos) bool {
		if !s.ChainFits(id, p.Step) {
			return true // placeable but the chain overflows; keep walking
		}
		best, found = p, true
		return false
	})
	return best, found
}

// frameSet returns an operation's frames against the current placement
// state (see FramesFor for the exported inspection entry point used to
// reproduce Figure 2).
func (s *scheduler) frameSet(id dfg.NodeID) grid.Frames {
	typ := TypeKey(s.g.Node(id))
	lo, hi, ffTop := s.Window(id)
	return grid.Frames{Lo: lo, Hi: hi, FFTop: ffTop, Cur: s.current[typ], Max: s.maxj[typ]}
}

func (s *scheduler) finish() (*sched.Schedule, error) {
	out := sched.NewSchedule(s.g, s.cs)
	out.ClockNs = s.opt.ClockNs
	out.Latency = s.opt.Latency
	for typ, p := range s.opt.PipelinedTypes {
		out.PipelinedTypes[typ] = p
	}
	out.Adopt(s.Placements()) // an unplaced node keeps Step 0; Verify reports it
	if !s.opt.NoTrace {
		out.Trace = &sched.Trace{Fn: s.lf, Steps: s.trace}
	}
	if err := out.Verify(s.opt.Limits); err != nil {
		return nil, fmt.Errorf("mfs: internal: produced illegal schedule: %w", err)
	}
	return out, nil
}
