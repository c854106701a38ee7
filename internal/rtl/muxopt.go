package rtl

import (
	"math/bits"
	"slices"
	"strings"

	"repro/internal/dfg"
)

// MuxOp is one operation's operand pair as seen by an ALU's input ports.
type MuxOp struct {
	A, B        string // operand signals (B == "" for unary)
	Commutative bool
}

// OptimizeMuxLists implements §5.6's constructive algorithm: given the
// full set of operations assigned to one ALU, build the two input lists
// L1 and L2 with |L1| + |L2| minimal. Non-commutative operations fix
// their operands to their ports; each commutative operation may be
// swapped. For up to exactSearchLimit commutative operations the
// orientation space is searched exhaustively (branch and bound on the
// running list sizes plus an admissible bound on the signals still to
// place); beyond that a greedy pass with an improvement sweep is used.
// The returned swapped slice parallels ops and reports each operation's
// chosen orientation.
func OptimizeMuxLists(ops []MuxOp) (l1, l2 []string, swapped []bool) {
	var s muxScratch
	s.intern(ops)
	swapped = make([]bool, len(ops))
	s.optimize(swapped)
	return s.portList(s.c1), s.portList(s.c2), swapped
}

const exactSearchLimit = 16

// muxScratch is the optimizer's working state for one ALU at a time. The
// ALU's operand signals are numbered densely (the result never depends
// on the numbering), so port membership is a refcount slice indexed by
// number, and the exact search runs on bitmasks over the (at most
// 2·exactSearchLimit) signals the orientable ops read. ReoptimizeMuxes
// shares one scratch across every ALU of a datapath.
type muxScratch struct {
	names    []string       // number → signal
	sigs     []dfg.SignalID // number → signal ID (ReoptimizeMuxes)
	byName   []int32        // the numbers in name order (ReoptimizeMuxes)
	opA, opB []int32        // per op: operand numbers; opB is -1 for unary ops
	flex     []int32        // the orientable ops: commutative with two operands
	empty    int32          // number of the empty signal, or -1
	c1, c2   []int32        // per number: ops feeding it to port 1 / port 2

	// Exact search tables. A signal read by a flex op has one bit; m1/m2
	// in search hold the bits already on port 1/port 2.
	bit      []uint64                     // per number: its bit, or 0
	fa, fb   []uint64                     // per flex op: the bits of A and B
	suffix   [exactSearchLimit + 1]uint64 // bits read by flex ops idx..
	emptyBit uint64                       // the empty signal's bit, or 0
	base     int                          // fixed port entries without a bit
	best     int
	bestMask uint32
}

// optimize sets the flex ops' entries of swapped (one per op, all false)
// and leaves the chosen port counts in c1 and c2.
func (s *muxScratch) optimize(swapped []bool) {
	if len(s.flex) <= exactSearchLimit {
		s.exact(swapped)
	} else {
		s.greedy(swapped)
		s.improve(swapped)
	}
}

// intern numbers the operand signals of ops by sorted position and loads
// the ops.
func (s *muxScratch) intern(ops []MuxOp) {
	s.names = s.names[:0]
	for _, op := range ops {
		s.names = append(s.names, op.A)
		if op.B != "" {
			s.names = append(s.names, op.B)
		}
	}
	slices.Sort(s.names)
	s.names = slices.Compact(s.names)
	s.reset(len(s.names))
	if len(s.names) > 0 && s.names[0] == "" {
		s.empty = 0
	}
	for _, op := range ops {
		b := int32(-1)
		if op.B != "" {
			b = s.number(op.B)
		}
		s.add(s.number(op.A), b, op.Commutative)
	}
}

// number is the position of sig in the sorted names.
func (s *muxScratch) number(sig string) int32 {
	i, _ := slices.BinarySearch(s.names, sig)
	return int32(i)
}

// load numbers the operand signals of the ALU's ops in SignalID order
// and loads the ops. slot maps a SignalID to its number plus one; the
// caller passes it all zero, and load leaves it so.
func (s *muxScratch) load(g *dfg.Graph, a *ALU, slot []int32) {
	s.sigs, s.names = s.sigs[:0], s.names[:0]
	for _, b := range a.Ops {
		for _, id := range operands(g.Node(b.Node)) {
			if slot[id] == 0 {
				s.sigs = append(s.sigs, id)
				slot[id] = 1
			}
		}
	}
	slices.Sort(s.sigs) // numbers follow SignalID order, not binding order
	for i, id := range s.sigs {
		slot[id] = int32(i + 1)
		s.names = append(s.names, g.SignalName(id))
	}
	s.reset(len(s.sigs))
	for _, b := range a.Ops {
		n := g.Node(b.Node)
		ids, y := operands(n), int32(-1)
		if len(ids) > 1 {
			y = slot[ids[1]] - 1
		}
		s.add(slot[ids[0]]-1, y, n.Op.Commutative())
	}
	for _, id := range s.sigs {
		slot[id] = 0
	}
}

// reset empties the op lists and port counts for n signals.
func (s *muxScratch) reset(n int) {
	s.opA, s.opB, s.flex = s.opA[:0], s.opB[:0], s.flex[:0]
	s.c1, s.c2 = zeroed(s.c1, n), zeroed(s.c2, n)
	s.empty = -1
}

// add loads one op reading signals a and b (-1 when unary): an
// orientable op joins flex, any other fixes its port entries.
func (s *muxScratch) add(a, b int32, commutative bool) {
	switch {
	case b < 0:
		s.c1[a]++
	case commutative:
		s.flex = append(s.flex, int32(len(s.opA)))
	default:
		s.c1[a]++
		s.c2[b]++
	}
	s.opA, s.opB = append(s.opA, a), append(s.opB, b)
}

func zeroed[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	v = v[:n]
	clear(v)
	return v
}

// exact finds the orientation search returns and applies it.
func (s *muxScratch) exact(swapped []bool) {
	s.bit = zeroed(s.bit, len(s.c1))
	s.fa, s.fb = slices.Grow(s.fa[:0], len(s.flex)), slices.Grow(s.fb[:0], len(s.flex))
	next := uint64(1)
	for _, i := range s.flex {
		for _, id := range [2]int32{s.opA[i], s.opB[i]} {
			if s.bit[id] == 0 {
				s.bit[id] = next
				next <<= 1
			}
		}
		s.fa, s.fb = append(s.fa, s.bit[s.opA[i]]), append(s.fb, s.bit[s.opB[i]])
	}
	s.suffix[len(s.flex)] = 0
	for k := len(s.flex) - 1; k >= 0; k-- {
		s.suffix[k] = s.suffix[k+1] | s.fa[k] | s.fb[k]
	}
	m1, rest1 := s.split(s.c1)
	m2, rest2 := s.split(s.c2)
	s.base = rest1 + rest2
	s.emptyBit = 0
	if s.empty >= 0 {
		s.emptyBit = s.bit[s.empty]
	}
	s.best, s.bestMask = 1<<30, 0
	s.search(0, 0, m1, m2)
	for k, i := range s.flex {
		swapped[i] = s.bestMask&(1<<k) != 0
		a, b := s.opA[i], s.opB[i]
		if swapped[i] {
			a, b = b, a
		}
		s.c1[a]++
		s.c2[b]++
	}
}

// split returns the bits of the signals c counts and how many of them
// have no bit.
func (s *muxScratch) split(c []int32) (m uint64, rest int) {
	for id, k := range c {
		switch {
		case k == 0:
		case s.bit[id] == 0:
			rest++
		default:
			m |= s.bit[id]
		}
	}
	return m, rest
}

// search explores the orientations of flex ops idx.. depth first, the
// one adding fewer new signals first, and keeps the first leaf of
// minimum |L1|+|L2| (best only moves on a strict improvement). It prunes
// on size + lb >= best, where lb counts the signals flex ops idx.. read
// that are on neither port yet: each must land on at least one port, so
// lb never exceeds what a leaf below adds. Every ancestor of the first
// optimal leaf therefore stays below best until that leaf is reached,
// and the bound returns exactly the leaf the size-only prune did.
//
//hls:noalloc
func (s *muxScratch) search(idx int, mask uint32, m1, m2 uint64) {
	size := s.base + bits.OnesCount64(m1) + bits.OnesCount64(m2)
	if size+bits.OnesCount64(s.suffix[idx]&^(m1|m2)) >= s.best {
		return
	}
	if idx == len(s.fa) {
		s.best, s.bestMask = size, mask
		return
	}
	a, b := s.fa[idx], s.fb[idx]
	// The empty signal counts toward the size but is never "new" here.
	have1, have2 := m1|s.emptyBit, m2|s.emptyBit
	direct := newBit(a, have1) + newBit(b, have2)
	crossed := newBit(b, have1) + newBit(a, have2)
	if crossed < direct {
		s.search(idx+1, mask|1<<idx, m1|b, m2|a)
		s.search(idx+1, mask, m1|a, m2|b)
		return
	}
	s.search(idx+1, mask, m1|a, m2|b)
	s.search(idx+1, mask|1<<idx, m1|b, m2|a)
}

// newBit is 1 when signal bit is not in have.
//
//hls:noalloc
func newBit(bit, have uint64) int {
	if bit&^have != 0 {
		return 1
	}
	return 0
}

// greedy orients the flex ops in order, each the way that adds fewer new
// signals given the ports so far (the empty signal is never new).
//
//hls:noalloc
func (s *muxScratch) greedy(swapped []bool) {
	for _, i := range s.flex {
		a, b := s.opA[i], s.opB[i]
		direct := s.isNew(s.c1, a) + s.isNew(s.c2, b)
		crossed := s.isNew(s.c1, b) + s.isNew(s.c2, a)
		swapped[i] = crossed < direct
		if swapped[i] {
			a, b = b, a
		}
		s.c1[a]++
		s.c2[b]++
	}
}

//hls:noalloc
func (s *muxScratch) isNew(c []int32, id int32) int {
	if id == s.empty || c[id] > 0 {
		return 0
	}
	return 1
}

// improve flips any single orientation whose flip shrinks |L1|+|L2|,
// repeating until a full sweep makes no progress. A flip moves at most
// two signals per port, so it is scored by its O(1) refcount deltas.
//
//hls:noalloc
func (s *muxScratch) improve(swapped []bool) {
	c1, c2 := s.c1, s.c2
	for changed := true; changed; {
		changed = false
		for _, i := range s.flex {
			a, b := s.opA[i], s.opB[i]
			if swapped[i] {
				a, b = b, a
			}
			if a == b {
				continue // a flip changes nothing
			}
			// a feeds port 1 and b port 2; the flip feeds b/a.
			delta := 0
			if c1[a] == 1 {
				delta--
			}
			if c1[b] == 0 {
				delta++
			}
			if c2[b] == 1 {
				delta--
			}
			if c2[a] == 0 {
				delta++
			}
			if delta < 0 {
				c1[a]--
				c1[b]++
				c2[b]--
				c2[a]++
				swapped[i] = !swapped[i]
				changed = true
			}
		}
	}
}

// portList returns the sorted signals with a nonzero count in c.
func (s *muxScratch) portList(c []int32) []string {
	out := make([]string, 0, nonzero(c))
	for id, k := range c {
		if k > 0 {
			out = append(out, s.names[id])
		}
	}
	slices.Sort(out)
	return out
}

// portNamed appends the signal IDs with a nonzero count in c to dst, in
// signal-name order: the order of s.byName.
func (s *muxScratch) portNamed(dst []dfg.SignalID, c []int32) []dfg.SignalID {
	for _, id := range s.byName {
		if c[id] > 0 {
			dst = append(dst, s.sigs[id])
		}
	}
	return dst
}

// ReoptimizeMuxes runs the §5.6 constructive algorithm over every ALU of
// a finished datapath, replacing the incrementally built L1/L2 lists and
// orientations with the jointly optimized ones, each list in signal-name
// order. It returns how many mux inputs were eliminated. The graph
// supplies each bound node's operands and commutativity.
func (d *Datapath) ReoptimizeMuxes(g *dfg.Graph) int {
	if len(d.ALUs) == 0 {
		return 0 // nothing reads g
	}
	saved := 0
	var s muxScratch
	var swapped []bool
	slot := make([]int32, g.NumSignals())
	for _, a := range d.ALUs {
		s.load(g, a, slot)
		swapped = zeroed(swapped, len(a.Ops))
		s.optimize(swapped)
		before, after := len(a.L1)+len(a.L2), nonzero(s.c1)+nonzero(s.c2)
		if after > before {
			continue // never regress (cannot happen, but stay safe)
		}
		s.sortByName()
		a.L1, a.L2 = s.portNamed(a.L1[:0], s.c1), s.portNamed(a.L2[:0], s.c2)
		for i := range a.Ops {
			a.Ops[i].Swapped = swapped[i]
		}
		saved += before - after
	}
	return saved
}

// nonzero counts the nonzero entries of c.
func nonzero(c []int32) int {
	n := 0
	for _, k := range c {
		if k > 0 {
			n++
		}
	}
	return n
}

// sortByName orders the loaded signal numbers by name into s.byName.
func (s *muxScratch) sortByName() {
	s.byName = s.byName[:0]
	for i := range s.sigs {
		s.byName = append(s.byName, int32(i))
	}
	slices.SortFunc(s.byName, func(x, y int32) int { return strings.Compare(s.names[x], s.names[y]) })
}

// operands returns the signal IDs node n feeds an ALU's ports: its first
// two arguments.
func operands(n *dfg.Node) []dfg.SignalID {
	return n.ArgIDs()[:min(2, len(n.ArgIDs()))]
}
