package rtl

import (
	"math/bits"
	"slices"

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
	swapped = make([]bool, len(ops))
	l1, l2 = s.optimize(ops, swapped)
	return l1, l2, swapped
}

const exactSearchLimit = 16

// muxScratch is the optimizer's working state for one ALU at a time. The
// ALU's operand signals are interned to dense ids, so port membership is
// a refcount slice indexed by id, and the exact search runs on bitmasks
// over the (at most 2·exactSearchLimit) signals the orientable ops read.
// ReoptimizeMuxes shares one scratch across every ALU of a datapath.
type muxScratch struct {
	ids      map[string]int32 // signal → id, for the current ALU
	names    []string         // id → signal
	opA, opB []int32          // per op: operand ids; opB is -1 for unary ops
	flex     []int32          // the orientable ops: commutative with two operands
	empty    int32            // id of the empty signal, or -1
	c1, c2   []int32          // per id: ops feeding it to port 1 / port 2

	// Exact search tables. A signal read by a flex op has one bit; m1/m2
	// in search hold the bits already on port 1/port 2.
	bit      []uint64                     // per id: its bit, or 0
	fa, fb   []uint64                     // per flex op: the bits of A and B
	suffix   [exactSearchLimit + 1]uint64 // bits read by flex ops idx..
	emptyBit uint64                       // the empty signal's bit, or 0
	base     int                          // fixed port entries without a bit
	best     int
	bestMask uint32
}

// optimize sets the flex ops' entries of swapped (len(ops), all false)
// and returns the sorted port lists.
func (s *muxScratch) optimize(ops []MuxOp, swapped []bool) (l1, l2 []string) {
	s.intern(ops)
	if len(s.flex) <= exactSearchLimit {
		s.exact(swapped)
	} else {
		s.greedy(swapped)
		s.improve(swapped)
	}
	return s.portList(s.c1), s.portList(s.c2)
}

// intern assigns dense ids to the operand signals of ops, classifies the
// ops, and counts the fixed (unary and non-commutative) port entries.
func (s *muxScratch) intern(ops []MuxOp) {
	n := len(ops)
	if s.ids == nil {
		s.ids = make(map[string]int32, 2*n)
	}
	clear(s.ids)
	s.names = slices.Grow(s.names[:0], 2*n)
	s.opA, s.opB, s.flex = slices.Grow(s.opA[:0], n), slices.Grow(s.opB[:0], n), slices.Grow(s.flex[:0], n)
	s.empty = -1
	for i, op := range ops {
		a, b := s.id(op.A), int32(-1)
		if op.B != "" {
			b = s.id(op.B)
			if op.Commutative {
				s.flex = append(s.flex, int32(i))
			}
		}
		s.opA, s.opB = append(s.opA, a), append(s.opB, b)
	}
	s.c1, s.c2 = zeroed(s.c1, len(s.names)), zeroed(s.c2, len(s.names))
	for i, op := range ops {
		switch {
		case s.opB[i] < 0:
			s.c1[s.opA[i]]++
		case !op.Commutative:
			s.c1[s.opA[i]]++
			s.c2[s.opB[i]]++
		}
	}
}

func (s *muxScratch) id(sig string) int32 {
	if id, ok := s.ids[sig]; ok {
		return id
	}
	id := int32(len(s.names))
	s.ids[sig] = id
	s.names = append(s.names, sig)
	if sig == "" {
		s.empty = id
	}
	return id
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
	s.bit = zeroed(s.bit, len(s.names))
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
	n := 0
	for _, k := range c {
		if k > 0 {
			n++
		}
	}
	out := make([]string, 0, n)
	for id, k := range c {
		if k > 0 {
			out = append(out, s.names[id])
		}
	}
	slices.Sort(out)
	return out
}

// ReoptimizeMuxes runs the §5.6 constructive algorithm over every ALU of
// a finished datapath, replacing the incrementally built L1/L2 lists and
// orientations with the jointly optimized ones. It returns how many mux
// inputs were eliminated. The graph supplies each bound node's operands
// and commutativity.
func (d *Datapath) ReoptimizeMuxes(g *dfg.Graph) int {
	saved := 0
	var s muxScratch
	var ops []MuxOp
	var swapped []bool
	for _, a := range d.ALUs {
		ops = ops[:0]
		for _, b := range a.Ops {
			n := g.Node(b.Node)
			op := MuxOp{A: n.Args[0], Commutative: n.Op.Commutative()}
			if len(n.Args) > 1 {
				op.B = n.Args[1]
			}
			ops = append(ops, op)
		}
		swapped = zeroed(swapped, len(ops))
		before := len(a.L1) + len(a.L2)
		l1, l2 := s.optimize(ops, swapped)
		after := len(l1) + len(l2)
		if after > before {
			continue // never regress (cannot happen, but stay safe)
		}
		a.L1, a.L2 = l1, l2
		a.invalidateMuxSets() // wholesale replacement; sizes may not drift
		for i := range a.Ops {
			a.Ops[i].Swapped = swapped[i]
		}
		saved += before - after
	}
	return saved
}
