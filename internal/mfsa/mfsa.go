// Package mfsa implements Move Frame Scheduling-Allocation (§4), the
// paper's simultaneous scheduling and allocation algorithm. It reuses the
// move-frame machinery of MFS but searches a three-dimensional space —
// control step × ALU instance × ALU type from the cell library — guided
// by the dynamic Liapunov function
//
//	V = Σ ( w_T·C·y + w_A·f^ALU + w_M·f^MUX + w_R·f^REG )
//
// where f^ALU is the incremental cost of opening a new ALU instance (zero
// for reuse), f^MUX the incremental multiplexer cost under best-case input
// sharing (§5.6, including the commutative-swap optimization), and f^REG
// the incremental register cost from the left-edge lifetime packer
// (§5.8). The constant C dominates every possible hardware contribution
// so control step t is still preferred over t+1 — the time-constrained
// guarantee of §3.1 — unless the user reweights the terms.
//
// Two design styles are supported (§4.2): style 1 is the unrestricted
// datapath, style 2 forbids binding an operation to an ALU that already
// executes one of its direct predecessors or successors, which removes
// self-loops around ALUs and yields the self-testable structures of
// [18][20] at a small cost overhead.
package mfsa

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/liapunov"
	"repro/internal/library"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// Style selects the RTL structure restriction.
type Style int

const (
	// Style1 is the conventional, unrestricted datapath.
	Style1 Style = 1
	// Style2 forbids an operation from sharing an ALU with any of its
	// direct predecessors or successors (no self-loop around an ALU).
	Style2 Style = 2
)

// Weights are the user emphasis factors of §4.1's weighted Liapunov
// function. The zero value is replaced by the overall optimizer
// (all weights 1).
type Weights struct {
	Time, ALU, Mux, Reg float64
}

func (w Weights) orDefault() Weights {
	if w == (Weights{}) {
		return Weights{1, 1, 1, 1}
	}
	return w
}

// Options configures a synthesis run.
type Options struct {
	// CS is the time constraint in control steps (required).
	CS int

	// Lib is the cell library; nil selects library.NCRLike().
	Lib *library.Library

	// Style selects the datapath restriction; 0 means Style1.
	Style Style

	// Weights reweight the Liapunov terms; zero value = all ones.
	Weights Weights

	// ClockNs enables chaining (§5.4); Latency enables functional
	// pipelining (§5.5.2), both as in MFS.
	ClockNs float64
	Latency int

	// UsePipelinedUnits admits structurally pipelined library cells for
	// operations whose cycle count matches the cell's stage count
	// (§5.5.1).
	UsePipelinedUnits bool

	// Limits caps instances per library unit name.
	Limits map[string]int

	// RegisterInputs, when true, also allocates registers for primary
	// inputs (by default inputs are externally registered ports, keeping
	// register counts comparable to Table 2).
	RegisterInputs bool

	// NoTrace skips recording the placement trajectory (Schedule.Trace)
	// and the per-step candidate lists: the candidates each placement
	// scored, one per unit, step and column shape, and under time
	// dominance only up to the earliest step that has one (see
	// sched.TraceStep.Candidates).
	// The schedule and datapath are bit-identical either way; the run
	// just drops the audit metadata, so lint's trace-replay analyzers
	// have nothing to check. The trace costs 96 bytes per step plus 24
	// pointer-free bytes per scored candidate: about 0.35 MB of the
	// 1.9 MB that a 2k-node random DAG's synthesis and netlist allocate,
	// and 0.3 MB of the 1024-tap FIR's 2.7 MB, which scores 1.7
	// candidates per node.
	NoTrace bool
}

// Result is a completed synthesis: the schedule (FU types are library
// unit names), the bound RTL datapath, and its cost breakdown.
type Result struct {
	Schedule *sched.Schedule
	Datapath *rtl.Datapath
	Cost     rtl.Cost
}

// Synthesize runs MFSA on g.
func Synthesize(g *dfg.Graph, opt Options) (*Result, error) {
	return SynthesizeCtx(context.Background(), g, opt)
}

// SynthesizeCtx is Synthesize with cancellation: ctx is checked between
// the setup phases (validation, frames, state, priority order, which
// polls every 1024 emitted nodes itself), before every operation
// placement and every 64 move-frame positions within one, so a
// cancelled run returns ctx.Err() within a bounded slice of work instead
// of finishing the whole design.
func SynthesizeCtx(ctx context.Context, g *dfg.Graph, opt Options) (*Result, error) {
	opt, err := prepare(g, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	frames, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
	if err != nil {
		return nil, fmt.Errorf("mfsa: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newState(g, opt, frames)
	order, err := sched.PriorityOrderCtx(ctx, g, frames)
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.placeOne(ctx, id); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// prepare validates the graph, library and options and normalizes the
// defaulted option fields. Shared by the synthesis and allocation entry
// points.
func prepare(g *dfg.Graph, opt Options) (Options, error) {
	if err := g.Validate(); err != nil {
		return opt, fmt.Errorf("mfsa: %w", err)
	}
	if opt.CS < 1 {
		return opt, fmt.Errorf("mfsa: a time constraint is required")
	}
	if opt.CS > math.MaxInt32 {
		// The trace keeps steps as int32.
		return opt, &guard.LimitError{What: "mfsa time constraint", Got: opt.CS, Max: math.MaxInt32}
	}
	if opt.Lib == nil {
		opt.Lib = library.NCRLike()
	}
	if err := opt.Lib.Validate(); err != nil {
		return opt, fmt.Errorf("mfsa: %w", err)
	}
	if opt.Style == 0 {
		opt.Style = Style1
	}
	// Candidate units depend on a node's kind and cycle count alone
	// (state.unitsFor), so the first node of each pair is the one checked.
	checked := make([][]int, op.NumKinds()+1) // per kind, the cycle counts checked
	for _, n := range g.Nodes() {
		if n.IsLoop() {
			return opt, &sched.LoopError{Engine: "mfsa", Node: n.Name}
		}
		if !slices.Contains(checked[n.Op], n.Cycles) {
			if len(candidateUnits(opt, n)) == 0 {
				return opt, fmt.Errorf("mfsa: library has no unit for %q (op %v, %d cycles)", n.Name, n.Op, n.Cycles)
			}
			checked[n.Op] = append(checked[n.Op], n.Cycles)
		}
	}
	return opt, nil
}

// candidateUnits returns the positions in Lib.Units() of the cells that
// can execute node n under the options: non-pipelined cells always
// qualify; pipelined cells only when admitted and their depth matches the
// operation's cycle count.
func candidateUnits(opt Options, n *dfg.Node) []int {
	var out []int
	for i, u := range opt.Lib.Units() {
		if !u.Can(n.Op) || u.Pipelined() && !(opt.UsePipelinedUnits && u.Stages == n.Cycles) {
			continue
		}
		out = append(out, i)
	}
	return out
}

type state struct {
	g   *dfg.Graph
	opt Options
	w   Weights
	c   float64 // time-dominance constant

	// dominant records liapunov.TimeDominates for the run: every
	// candidate at step t scores strictly below every candidate at a
	// later step, so bestCandidate stops walking past the best step it
	// has found. False (a reweighting that breaks §4.1's sizing of C)
	// walks the whole move frame.
	dominant bool

	// units holds one record per library unit, by position in
	// Lib.Units(); byOp[k] caches there the candidates of operation kind
	// k, one set per cycle count, since a pipelined cell's depth must
	// match the operation's.
	units []unit
	byOp  [][]candidateSet

	// Placing holds the committed placements and answers each node's
	// move window and chaining budget from them.
	sched.Placing
	trace []sched.TraceStep

	dp *rtl.Datapath

	// Incremental value-lifetime tracking behind the f^REG term. life
	// holds the committed signals' lifetimes by dfg.SignalID, cnt[t]
	// counts how many of their stored intervals cover the boundary span
	// [t, t+1), and regBase caches max(cnt). Left-edge packing is optimal
	// for interval lifetimes — the register count IS the maximum overlap
	// — so regBase always equals len(rtl.PackRegisters(g, s.registerIntervals()))
	// without rebuilding and packing the interval list per candidate.
	// Maintained on commit; regDelta perturbs cnt in place and reverts.
	//
	// hist[v] counts the entries of cnt holding value v, and cntMax is an
	// upper bound on max(cnt) that maxCnt settles lazily, so the maximum
	// is O(1) amortized per perturbation instead of an O(CS) rescan per
	// candidate — the dominant regDelta cost on large designs.
	life    []lifetime
	cnt     []int
	hist    []int
	cntMax  int
	regBase int

	// ports is the membership index behind f^MUX: the (ALU, port) pairs
	// that carry each signal, as singly linked lists whose heads ride
	// life (lifetime.ports). commit appends an entry for every signal it
	// adds to a port list, at most two per node, so the index is sized
	// once. beginEval stamps the lists of the node being decided into
	// pres, by datapath ALU position, so a column's membership bits are
	// one lookup.
	ports []portEntry
	pres  []presStamp

	// shapes is the table of the column shapes score has met in the
	// current (unit, step) scope (see claimShape): open addressing over a
	// power-of-two length at least twice the scope's columns, whose slots
	// are live when their gen is shapeGen, bumped by openShapes.
	shapes     []shapeSlot
	shapeShift uint
	shapeGen   int

	// regDelta memo for the current candidate evaluation (one node, many
	// unit×position candidates): f^REG depends only on the step, so each
	// distinct step is computed once per generation. Bumped by beginEval,
	// which also stamps pres with it.
	regMemo    []int
	regMemoGen []int
	memoGen    int

	// best, found and scored are the decision under way since beginEval:
	// the least-energy candidate score has met, whether there is one, and
	// the candidates it scored (scratch; commit copies what it keeps).
	best   candidate
	found  bool
	scored []sched.TraceCandidate

	// excl caches g.HasExclusions() for the run: when false, the window
	// walk can treat every occupied index bit as illegal without
	// consulting the occupant lists (grid.Table.ScanPlaceable).
	excl bool

	muxMemo []float64 // muxArea's Lib.MuxArea prefix cache
}

// unit is the run's record of one library unit.
type unit struct {
	*library.Unit
	lib     int32       // position in Lib.Units(): the trace's unit key
	table   *grid.Table // created by tableOf on first use
	maxInst int         // max_j: instances the unit can ever need
	current int         // current_j: columns the position walk probes
	alus    []int32     // alus[i] is the datapath position of the ALU at column i+1, -1 while fresh
}

// column returns the ALU bound at column idx of unit u and its position
// in the datapath, or nil and -1 for a fresh column.
//
//hls:noalloc
func (s *state) column(u *unit, idx int) (*rtl.ALU, int) {
	if idx > len(u.alus) || u.alus[idx-1] < 0 {
		return nil, -1
	}
	k := int(u.alus[idx-1])
	return s.dp.ALUs[k], k
}

// lifetime is one signal's storage life: born at the end of control
// step birth, last consumed during step death (0 = no consumer yet, in
// which case the value is held one boundary). live is false until the
// signal is committed. ports is one past the signal's latest entry in
// the membership index (state.ports), 0 while no port carries it.
type lifetime struct {
	birth, death int
	live         bool
	ports        int32
}

// portEntry is one (ALU, port) pair of the membership index: at is
// twice the ALU's datapath position plus the port (0: L1, 1: L2), and
// next is one past the signal's previous entry, 0 at the list's end.
type portEntry struct {
	at, next int32
}

// presStamp is one ALU's membership bits for the node being decided,
// valid while gen is the decision's memoGen.
type presStamp struct {
	gen  int
	bits rtl.Presence
}

// shape is what a column's energy depends on besides the step: for an
// existing column its port lists' lengths and which of them already
// carry the node's operands; every fresh column is the one shape whose
// l1 is -1.
type shape struct {
	l1, l2 int32
	bits   rtl.Presence
}

// shapeSlot is one slot of the shape table.
type shapeSlot struct {
	gen int
	shape
}

// span returns the half-open boundary range [lo, hi) during which the
// signal occupies a register, mirroring registerIntervals(): no consumer means
// one boundary of storage; a consumer chained into the birth step means
// none (hi == lo).
//
//hls:noalloc
func (lt *lifetime) span() (lo, hi int) {
	d := lt.death
	if d == 0 {
		d = lt.birth + 1
	}
	if d < lt.birth {
		d = lt.birth
	}
	return lt.birth, d
}

// newState builds the scheduler-allocator state.
func newState(g *dfg.Graph, opt Options, frames sched.Frames) *state {
	s := &state{
		g: g, opt: opt,
		w:       opt.Weights.orDefault(),
		units:   make([]unit, len(opt.Lib.Units())),
		byOp:    make([][]candidateSet, op.NumKinds()+1),
		Placing: sched.NewPlacing(g, frames, opt.ClockNs),
		dp:      rtl.NewDatapath(opt.Lib),
		life:    make([]lifetime, g.NumSignals()),
		ports:   make([]portEntry, 0, 2*g.Len()),
		excl:    g.HasExclusions(),
	}
	for i, u := range opt.Lib.Units() {
		s.units[i].Unit, s.units[i].lib = u, int32(i)
	}
	if !opt.NoTrace {
		// One step per node; sized up front so the per-commit append
		// never reallocates the whole trajectory on large graphs.
		s.trace = make([]sched.TraceStep, 0, g.Len())
	}
	// f^MUX adds at most one input per port and f^REG at most one
	// register per live argument: mfsa rejects loops and dfg.Validate
	// holds every node to arity ≤ 2.
	maxALU, maxMux, maxReg := opt.Lib.MaxUnitArea(), 2*opt.Lib.MaxMuxStep(), 2*opt.Lib.RegArea
	s.c = liapunov.DominanceConstant(maxALU, maxMux, maxReg)
	// A port's input list holds distinct signals, so the two port areas
	// f^MUX is a difference of sum to under signals·maxMux; twice that
	// leaves room for MuxArea's own rounding.
	signals := float64(g.NumSignals())
	s.dominant = liapunov.TimeDominates([4]float64{s.w.Time, s.w.ALU, s.w.Mux, s.w.Reg},
		maxALU, maxMux, maxReg, 2*signals*maxMux, opt.CS)
	// One pass over the nodes sizes the lifetime counts and collects the
	// instance-bound inputs: per unit, the operations it can serve (in
	// maxInst) and those whose cheapest implementation it is (in current).
	maxCycles := 1
	for _, n := range g.Nodes() {
		maxCycles = max(maxCycles, n.Cycles)
		var cheapest *unit
		for _, u := range s.unitsFor(n) {
			u.maxInst++
			if cheapest == nil || u.Area < cheapest.Area {
				cheapest = u
			}
		}
		cheapest.current++ // prepare rejects a node with no capable unit
	}
	// Lifetime boundaries run from 0 (inputs) to the last finish step; a
	// legal placement finishes by CS, but size past it so latency-folded
	// multi-cycle footprints never force a grow inside regDelta.
	s.cnt = make([]int, opt.CS+maxCycles+2)
	s.hist = make([]int, 1, 16)
	s.hist[0] = len(s.cnt)
	s.regMemo = make([]int, opt.CS+2)
	s.regMemoGen = make([]int, opt.CS+2)
	if opt.RegisterInputs {
		for _, in := range g.Inputs() {
			id, _ := g.Signal(in)
			s.life[id] = lifetime{live: true}
			s.addSpan(0, 1, 1)
		}
		s.regBase = s.maxCnt()
	}
	// Instance bounds: a unit can never need more instances than the
	// operations it can serve (user limits tighten that), and the
	// starting estimate is the ⌈N_j/steps⌉ floor of MFS step 4, with N_j
	// counting only the operations whose cheapest implementation is this
	// unit. Units that are nobody's first choice (dearer multi-function
	// ALUs) start at zero instances: they enter the datapath through the
	// redundant-frame growth mechanism or by zero-cost reuse, never as a
	// gratuitous early-step purchase.
	span := opt.CS
	if opt.Latency > 0 && opt.Latency < span {
		span = opt.Latency
	}
	for i := range s.units {
		u := &s.units[i]
		if lim, ok := opt.Limits[u.Name]; ok && lim < u.maxInst {
			u.maxInst = lim
		}
		u.current = min((u.current+span-1)/span, u.maxInst)
	}
	return s
}

// tableOf returns the unit's occupancy table, creating it on first use:
// most capable units are never grown past zero instances and never need
// one. A unit capped to zero instances has no table.
//
// Tables start with zero columns and widen on demand (probe sites Grow
// them to the index range they are about to touch). Sizing them to
// maxInst up front looks harmless but is quadratic in disguise: for an
// unbounded unit maxInst is the capable-node COUNT, so a 100k-node graph
// would zero gigabytes of cells for columns no placement ever reaches.
func (s *state) tableOf(u *unit) *grid.Table {
	if u.table == nil && u.maxInst > 0 {
		u.table = grid.NewTable(u.Name, s.opt.CS, 0)
		u.table.Latency = s.opt.Latency
		u.table.Pipelined = u.Pipelined()
	}
	return u.table
}

// candidateSet is the candidate units of one operation kind at one
// cycle count.
type candidateSet struct {
	cycles int
	units  []*unit
}

// unitsFor returns n's candidate units, memoized per operation kind and
// cycle count: the candidate set depends only on those (and the fixed
// options), and the same few pairs recur across the whole graph.
func (s *state) unitsFor(n *dfg.Node) []*unit {
	for _, c := range s.byOp[n.Op] {
		if c.cycles == n.Cycles {
			return c.units
		}
	}
	var us []*unit
	for _, i := range candidateUnits(s.opt, n) {
		us = append(us, &s.units[i])
	}
	s.byOp[n.Op] = append(s.byOp[n.Op], candidateSet{n.Cycles, us})
	return us
}

// placeOne evaluates the dynamic Liapunov function over the empty
// move-frame positions of every candidate ALU type and commits the
// minimum (§4.2 step 4).
func (s *state) placeOne(ctx context.Context, id dfg.NodeID) error {
	n := s.g.Node(id)
	units := s.unitsFor(n)
	for {
		best, evaluated, ok, err := s.bestCandidate(ctx, n, units)
		if err != nil {
			return err
		}
		if ok {
			return s.commit(n, best, evaluated)
		}
		if err := s.grow(n, units); err != nil {
			return err
		}
	}
}

// grow is local rescheduling: it opens one more instance of exactly one
// capable type — the cheapest with headroom. Growing one type at a time
// keeps the redundant frame tight for every other operation; growing
// them all would license gratuitous early-step ALU purchases elsewhere.
func (s *state) grow(n *dfg.Node, units []*unit) error {
	var pick *unit
	for _, u := range units {
		if u.current >= u.maxInst {
			continue
		}
		if pick == nil || u.Area < pick.Area ||
			(u.Area == pick.Area && u.Name < pick.Name) {
			pick = u
		}
	}
	if pick == nil {
		e := &sched.NoPositionError{Engine: "mfsa", Graph: s.g.Name, Node: n.Name, CS: s.opt.CS}
		e.Lo, e.Hi, _ = s.Window(n.ID)
		for _, u := range units {
			e.Units, e.Max = append(e.Units, u.Name), append(e.Max, u.maxInst)
		}
		return e
	}
	pick.current++
	return nil
}

// candidate is one evaluated (unit, position) choice.
type candidate struct {
	unit  *unit
	pos   grid.Pos
	value float64
}

// pollEvery is how many move-frame positions bestCandidate walks
// between context polls. Near the cs cap one window holds millions of
// positions, so the per-placement poll alone would let a deadline slip
// by seconds; ctx.Err takes a lock, so it is not polled per position.
const pollEvery = 64

// bestCandidate returns the least-energy candidate of n's move frame,
// the candidates it scored, and whether any was found. Each unit's
// free positions MF = PF − RF (FF is folded into the window's lower
// bound) are walked row-major, in (step, index) order, as
// grid.Table.ScanPlaceable yields them, and scored at each step where
// the chain ending at n fits the clock, one column per shape (score).
// When time dominates, a candidate past the best step found so far can
// only lose, so each unit's walk stops at the first such position and
// later units' windows end at that step. It returns ctx.Err() once ctx
// is done.
func (s *state) bestCandidate(ctx context.Context, n *dfg.Node, units []*unit) (candidate, []sched.TraceCandidate, bool, error) {
	s.beginEval(n)
	lo, hi, _ := s.Window(n.ID)
	walked := 0
	var err error
	for _, u := range units {
		if u.maxInst == 0 {
			continue // capped to zero instances (Limits); tableOf is nil
		}
		table := s.tableOf(u)
		cur := u.current
		table.Grow(cur) // the walk probes indexes 1..cur
		last := hi
		if s.dominant && s.found {
			last = min(last, s.best.pos.Step)
		}
		step, fits := 0, false
		table.ScanPlaceable(s.g, n.ID, s.excl, grid.RowMajor, lo, last, cur, n.Cycles, func(p grid.Pos) bool {
			if walked++; walked%pollEvery == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			if s.dominant && s.found && p.Step > s.best.pos.Step {
				return false
			}
			if p.Step != step {
				// A step opens a shape scope, and whether the chain fits
				// depends on the step alone.
				step, fits = p.Step, s.ChainFits(n.ID, p.Step)
				s.openShapes(cur)
			}
			if fits {
				s.score(n, u, p)
			}
			return true
		})
		if err != nil {
			return candidate{}, nil, false, err
		}
	}
	return s.best, s.scored, s.found, nil
}

// score evaluates n at the free position p of unit u and keeps it if
// it beats the decision's best so far. It skips a column that style 2
// forbids, and a column whose shape the current scope has already
// scored: two columns of one shape at one step have bitwise-equal
// energies (f^ALU is 0, or the unit's area for fresh ones, f^MUX
// depends on the shape, and the other terms on the step), and less
// keeps the lower index, which the walk meets first.
func (s *state) score(n *dfg.Node, u *unit, p grid.Pos) {
	a, k := s.column(u, p.Index)
	if s.opt.Style == Style2 && neighborsOnALU(n, a) {
		return
	}
	c := shape{l1: -1}
	if a != nil {
		c = shape{int32(len(a.L1)), int32(len(a.L2)), s.presence(k)}
	}
	if !s.claimShape(c) {
		return
	}
	v := s.value(n, u, p)
	if !s.opt.NoTrace {
		s.scored = append(s.scored, traceCandidate(u, p, v))
	}
	if cand := (candidate{unit: u, pos: p, value: v}); !s.found || less(cand, s.best) {
		s.best, s.found = cand, true
	}
}

// openShapes opens a new (unit, step) scope of the shape table for up
// to cols columns, regrowing the table so it stays at most half full. A
// fresh table's zero gens are stale: shapeGen is positive once a scope
// opens.
func (s *state) openShapes(cols int) {
	s.shapeGen++
	if len(s.shapes) >= 2*cols {
		return
	}
	b := bits.Len(uint(2*cols - 1))
	s.shapes, s.shapeShift = make([]shapeSlot, 1<<b), uint(64-b)
}

// claimShape reports whether no column of the current (unit, step)
// scope has claimed shape c yet, and claims it if so. The table is at
// most half full, so the probe ends at an empty slot.
//
//hls:noalloc
func (s *state) claimShape(c shape) bool {
	h := uint64(uint32(c.l1))<<36 ^ uint64(uint32(c.l2))<<4 ^ uint64(c.bits)
	mask := uint64(len(s.shapes) - 1)
	for i := (h * 0x9e3779b97f4a7c15) >> s.shapeShift; ; i = (i + 1) & mask {
		sl := &s.shapes[i]
		if sl.gen != s.shapeGen {
			sl.gen, sl.shape = s.shapeGen, c
			return true
		}
		if sl.shape == c {
			return false
		}
	}
}

// beginEval opens the placement decision of node n: it clears the
// running best and the scored list, invalidates the regDelta memo, and
// stamps the membership bits of n's operands on every ALU whose ports
// carry them, so presence answers in one lookup.
//
//hls:noalloc
func (s *state) beginEval(n *dfg.Node) {
	s.best, s.found, s.scored = candidate{}, false, s.scored[:0]
	s.memoGen++
	//hls:allocok dfg.Node.ArgIDs returns a stored slice; it allocates nothing
	for i, id := range n.ArgIDs() {
		for e := s.life[id].ports; e != 0; e = s.ports[e-1].next {
			at := s.ports[e-1].at
			st := &s.pres[at>>1]
			if st.gen != s.memoGen {
				st.gen, st.bits = s.memoGen, 0
			}
			st.bits |= 1 << (2*i + int(at&1))
		}
	}
}

// presence returns which ports of the ALU at datapath position k carry
// the operands of the node under evaluation.
//
//hls:noalloc
func (s *state) presence(k int) rtl.Presence {
	if st := s.pres[k]; st.gen == s.memoGen {
		return st.bits
	}
	return 0
}

// traceCandidate records a scored candidate for the trace. prepare caps
// the steps at math.MaxInt32, and an index never exceeds the node count.
func traceCandidate(u *unit, p grid.Pos, v float64) sched.TraceCandidate {
	return sched.TraceCandidate{Energy: v, Step: int32(p.Step), Index: int32(p.Index), Unit: u.lib}
}

func less(a, b candidate) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.pos.Step != b.pos.Step {
		return a.pos.Step < b.pos.Step
	}
	if a.unit.Name != b.unit.Name {
		return a.unit.Name < b.unit.Name
	}
	return a.pos.Index < b.pos.Index
}

// neighborsOnALU reports whether ALU a (nil: a fresh column) already
// executes a direct predecessor or successor of n (style 2's forbidden
// self-loop).
func neighborsOnALU(n *dfg.Node, a *rtl.ALU) bool {
	if a == nil {
		return false
	}
	for _, pid := range n.Preds() {
		if a.HasNode(pid) {
			return true
		}
	}
	for _, sid := range n.Succs() {
		if a.HasNode(sid) {
			return true
		}
	}
	return false
}

// value evaluates the weighted dynamic Liapunov function for one
// candidate position: f^ALU and f^MUX from its column, f^REG from the
// regDelta memo.
func (s *state) value(n *dfg.Node, u *unit, p grid.Pos) float64 {
	fTime := s.c * float64(p.Step)
	var fALU, fMux float64
	if a, k := s.column(u, p.Index); a != nil {
		fMux = s.muxAfter(a, n, s.presence(k)) - (s.muxArea(len(a.L1)) + s.muxArea(len(a.L2)))
	} else {
		fALU = u.Area // a fresh ALU: full unit area, and no mux yet (one source per port)
	}
	fReg := float64(s.regDelta(n, p.Step)) * s.opt.Lib.RegArea

	return s.w.Time*fTime + s.w.ALU*fALU + s.w.Mux*fMux + s.w.Reg*fReg
}

// muxArea is Lib.MuxArea behind a per-run prefix cache. The library
// evaluates MuxArea(n) by summing increments 3..n on every call — O(n)
// per probe, against input lists that grow with the design, which made
// it the dominant cost of large syntheses. Each cache entry is filled by
// that same direct evaluation, so every returned float is bit-identical
// to an uncached call; the fill is a one-time O(max²) over the widest
// list ever probed, noise next to the O(n) per candidate it replaces.
func (s *state) muxArea(n int) float64 {
	if n < len(s.muxMemo) {
		return s.muxMemo[n]
	}
	for r := len(s.muxMemo); r <= n; r++ {
		s.muxMemo = append(s.muxMemo, s.opt.Lib.MuxArea(r))
	}
	return s.muxMemo[n]
}

// muxAfter returns the two-port mux area after adding n to ALU a, whose
// ports carry n's operands as m says, with the cheaper operand
// orientation.
func (s *state) muxAfter(a *rtl.ALU, n *dfg.Node, m rtl.Presence) float64 {
	l1, l2 := len(a.L1), len(a.L2)
	if len(n.ArgIDs()) == 1 {
		return s.muxArea(l1+m.Missing(0, 0)) + s.muxArea(l2)
	}
	direct := s.muxArea(l1+m.Missing(0, 0)) + s.muxArea(l2+m.Missing(1, 1))
	if !n.Op.Commutative() {
		return direct
	}
	return min(direct, s.muxArea(l1+m.Missing(1, 0))+s.muxArea(l2+m.Missing(0, 1)))
}

// regDelta returns how many additional registers the left-edge packer
// needs when n consumes its inputs at the given step (§4.1's f^REG: zero,
// one or two). The committed overlap counts are perturbed in place with
// n's consumptions, scanned for their maximum — the left-edge register
// count — and reverted; no interval list is built and nothing allocates.
// The answer depends only on the step, so it is memoized per candidate
// evaluation (memoGen).
//
//hls:noalloc
func (s *state) regDelta(n *dfg.Node, step int) int {
	if s.regMemoGen[step] == s.memoGen {
		return s.regMemo[step]
	}
	// At most two lifetimes are touched: mfsa rejects loop nodes, and
	// dfg.Validate holds every other node to its op's arity, at most 2.
	var touched [2]*lifetime
	var saved [2]int
	nt := 0
	//hls:allocok dfg.Node.ArgIDs returns a stored slice; it allocates nothing
	for _, a := range n.ArgIDs() {
		lt := &s.life[a]
		if !lt.live || step <= lt.death {
			continue
		}
		touched[nt], saved[nt] = lt, lt.death
		nt++
		s.consume(lt, step)
	}
	after := s.maxCnt()
	for i := nt - 1; i >= 0; i-- {
		s.revert(touched[i], saved[i])
	}
	d := after - s.regBase
	if d < 0 {
		d = 0
	}
	s.regMemo[step], s.regMemoGen[step] = d, s.memoGen
	return d
}

// consume extends lt's life to a consumer at the given step, updating the
// overlap counts. A first consumer chained into the birth step shrinks
// the span: the one-boundary hold of a value nobody read yet disappears.
//
//hls:noalloc
func (s *state) consume(lt *lifetime, step int) {
	if step <= lt.death {
		return
	}
	_, hi0 := lt.span()
	lt.death = step
	_, hi1 := lt.span()
	switch {
	case hi1 > hi0:
		s.addSpan(hi0, hi1, 1)
	case hi1 < hi0:
		s.addSpan(hi1, hi0, -1)
	}
}

// revert undoes a consume by restoring the saved death step.
//
//hls:noalloc
func (s *state) revert(lt *lifetime, death int) {
	_, hi0 := lt.span()
	lt.death = death
	_, hi1 := lt.span()
	switch {
	case hi1 > hi0:
		s.addSpan(hi0, hi1, 1)
	case hi1 < hi0:
		s.addSpan(hi1, hi0, -1)
	}
}

// addSpan adds d to every overlap count in [lo, hi), keeping the value
// histogram behind maxCnt in step.
//
//hls:noalloc
func (s *state) addSpan(lo, hi, d int) {
	if hi > len(s.cnt) {
		grow := hi - len(s.cnt)
		//hls:allocok amortized grow of the overlap-count scratch; steady-state spans stay in place
		s.cnt = append(s.cnt, make([]int, grow)...)
		s.hist[0] += grow
	}
	for t := lo; t < hi; t++ {
		v := s.cnt[t] + d
		s.hist[s.cnt[t]]--
		for v >= len(s.hist) {
			//hls:allocok amortized grow of the histogram scratch, bounded by the peak register count
			s.hist = append(s.hist, 0)
		}
		s.hist[v]++
		s.cnt[t] = v
		if v > s.cntMax {
			s.cntMax = v
		}
	}
}

// maxCnt returns the maximum overlap — the left-edge register count of
// the intervals the counts describe. cntMax only grows eagerly; after
// decrements it is settled here by walking down the (typically short)
// empty histogram tail.
//
//hls:noalloc
func (s *state) maxCnt() int {
	for s.cntMax > 0 && s.hist[s.cntMax] == 0 {
		s.cntMax--
	}
	return s.cntMax
}

// registerIntervals lists the committed value lifetimes as the
// register allocator's intervals: the primary inputs first under
// RegisterInputs, then every placed node in NodeID order. A value no
// placed operation consumes yet is held one boundary.
func (s *state) registerIntervals() []rtl.Interval {
	out := make([]rtl.Interval, 0, len(s.life))
	add := func(id dfg.SignalID) {
		lt := s.life[id]
		if !lt.live {
			return
		}
		d := lt.death
		if d == 0 {
			d = lt.birth + 1
		}
		out = append(out, rtl.Interval{Signal: id, Birth: lt.birth, Death: d})
	}
	if s.opt.RegisterInputs {
		for _, in := range s.g.Inputs() {
			id, _ := s.g.Signal(in)
			add(id)
		}
	}
	for _, n := range s.g.Nodes() {
		add(n.OutID())
	}
	return out
}

// commit places n at the chosen candidate: grid footprint, datapath
// binding, and bookkeeping. evaluated is the full alternative set the
// choice was made from, recorded for the Liapunov audit. The table is
// already as wide as the position: the search grew it before probing.
func (s *state) commit(n *dfg.Node, c candidate, evaluated []sched.TraceCandidate) error {
	u := c.unit
	if err := s.tableOf(u).Place(s.g, n.ID, c.pos, n.Cycles); err != nil {
		return fmt.Errorf("mfsa: %w", err)
	}
	a, k := s.column(u, c.pos.Index)
	if a == nil {
		a = s.dp.AddALU(u.Unit)
		k = len(s.dp.ALUs) - 1
		for len(u.alus) < c.pos.Index {
			u.alus = append(u.alus, -1)
		}
		u.alus[c.pos.Index-1] = int32(k)
		s.pres = append(s.pres, presStamp{})
	}
	// Bind with the membership the scoring read, and index what it adds.
	l1, l2 := len(a.L1), len(a.L2)
	a.BindAs(n, c.pos.Step, s.presence(k))
	if len(a.L1) > l1 {
		s.index(a.L1[l1], 2*k)
	}
	if len(a.L2) > l2 {
		s.index(a.L2[l2], 2*k+1)
	}
	s.Commit(n.ID, sched.Placement{Step: c.pos.Step, Type: u.Name, Index: c.pos.Index})
	// Fold the placement into the lifetime counts: n consumes its args at
	// its start step and its own output is born at its finish step, held
	// one boundary until a successor commits.
	for _, arg := range n.ArgIDs() {
		if lt := &s.life[arg]; lt.live {
			s.consume(lt, c.pos.Step)
		}
	}
	born := &s.life[n.OutID()] // its membership list stays
	born.birth, born.death, born.live = c.pos.Step+n.Cycles-1, 0, true
	if lo, hi := born.span(); hi > lo {
		s.addSpan(lo, hi, 1)
	}
	s.regBase = s.maxCnt()
	if s.opt.NoTrace {
		return nil
	}
	var cands []sched.TraceCandidate
	if len(evaluated) > 0 {
		cands = append(cands, evaluated...) // own the scratch buffer's content
	}
	s.trace = append(s.trace, sched.TraceStep{
		Node: n.ID, Type: u.Name,
		CurrentJ: int32(u.current), MaxJ: int32(u.maxInst),
		Pos: c.pos, Energy: c.value,
		Candidates: cands,
	})
	return nil
}

// index records that the port at (twice an ALU's datapath position plus
// the port) now carries signal id.
func (s *state) index(id dfg.SignalID, at int) {
	lt := &s.life[id]
	s.ports = append(s.ports, portEntry{at: int32(at), next: lt.ports})
	lt.ports = int32(len(s.ports))
}

func (s *state) finish() (*Result, error) {
	out := sched.NewSchedule(s.g, s.opt.CS)
	out.ClockNs = s.opt.ClockNs
	out.Latency = s.opt.Latency
	for _, u := range s.units {
		if u.maxInst != 0 && u.Pipelined() {
			out.PipelinedTypes[u.Name] = true
		}
	}
	out.Adopt(s.Placements()) // an unplaced node keeps Step 0; Verify reports it
	if !s.opt.NoTrace {
		names := make([]string, len(s.units))
		for i := range s.units {
			names[i] = s.units[i].Name
		}
		out.Trace = &sched.Trace{Units: names, Steps: s.trace}
	}
	if err := out.Verify(s.opt.Limits); err != nil {
		return nil, fmt.Errorf("mfsa: internal: produced illegal schedule: %w", err)
	}
	// §5.6 post-pass: re-derive each ALU's input lists jointly over all
	// its bound operations (the incremental lists are order-dependent).
	s.dp.ReoptimizeMuxes(s.g)
	s.dp.AssignRegisters(s.g, s.registerIntervals())
	if err := s.dp.Validate(s.g); err != nil {
		return nil, fmt.Errorf("mfsa: internal: produced invalid datapath: %w", err)
	}
	if s.opt.Style == Style2 {
		if err := VerifyStyle2(s.g, s.dp); err != nil {
			return nil, fmt.Errorf("mfsa: internal: %w", err)
		}
	}
	return &Result{Schedule: out, Datapath: s.dp, Cost: s.dp.Cost()}, nil
}

// VerifyStyle2All checks the style-2 restriction on a finished datapath
// — no ALU executes two operations connected by a data edge — and
// returns every violation as a typed diagnostic. VerifyStyle2 is the
// historical first-error shim on top.
func VerifyStyle2All(g *dfg.Graph, dp *rtl.Datapath) diag.List {
	var out diag.List
	for _, a := range dp.ALUs {
		for _, b := range a.Ops {
			n := g.Node(b.Node)
			for _, pid := range n.Preds() {
				if a.HasNode(pid) {
					out = append(out, diag.Diagnostic{
						Code: diag.CodeStyle2SelfLoop, Severity: diag.Error,
						Artifact: "datapath", Design: g.Name, Loc: a.Name,
						Message: fmt.Sprintf("style 2 violated: %q and its predecessor %q share %s",
							n.Name, g.Node(pid).Name, a.Name),
					})
				}
			}
		}
	}
	return out
}

// VerifyStyle2 returns the first style-2 violation found (same message
// string as the historical single-error verifier), or nil.
func VerifyStyle2(g *dfg.Graph, dp *rtl.Datapath) error {
	if all := VerifyStyle2All(g, dp); len(all) > 0 {
		return all[:1].ErrOrNil()
	}
	return nil
}
