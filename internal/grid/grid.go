// Package grid implements the paper's 2-dimensional placement tables
// (Figure 1) and the frames of MFS step 4: positions, the rectangular
// frames PF, RF, FF and MF = PF − (RF ∪ FF), occupancy with
// mutual-exclusion sharing, and ASCII rendering used to reproduce the
// paper's Figures 1 and 2.
//
// One Table exists per functional-unit type: rows are control steps
// (1..CS, growing downward as in the paper's figures) and columns are FU
// instances of that type (1..Max). The full search space is the union of
// the per-type tables — the paper's third dimension.
//
// Every frame of a placement decision is a rectangle of its table, so a
// decision is five ints (Frames) and each frame a closed-form Rect. A
// table is its occupancy bits. Table.ScanPlaceable walks a move
// window's free cells in (step, index) or (index, step) order straight
// off those bits; for the paper's linear Liapunov functions those
// orders are exactly non-decreasing energy (see liapunov.Ordered),
// which is what turns the schedulers' min-energy search into "first
// legal bit wins".
package grid

import (
	"fmt"
	"math/bits"

	"repro/internal/dfg"
)

// Pos is one grid position: control step (row) and FU instance (column),
// both 1-based.
type Pos struct {
	Step  int // y in the paper: control step
	Index int // x in the paper: FU instance within the type
}

func (p Pos) String() string { return fmt.Sprintf("(t%d,fu%d)", p.Step, p.Index) }

// Order identifies a deterministic traversal order over a frame's
// positions.
type Order int

const (
	// RowMajor visits positions by ascending (step, index) — fill a
	// control step before opening the next.
	RowMajor Order = iota
	// ColMajor visits positions by ascending (index, step) — fill an FU
	// column before opening the next.
	ColMajor
)

//hls:noalloc
func wordsPerRow(max int) int { return (max + 63) / 64 }

// maskRange returns a word with bits lo..hi (0-based, inclusive,
// 0 <= lo <= hi <= 63) set.
//
//hls:noalloc
func maskRange(lo, hi int) uint64 {
	m := ^uint64(0) << uint(lo)
	if hi < 63 {
		m &= (uint64(1) << uint(hi+1)) - 1
	}
	return m
}

// Rect is the rectangle of grid positions [StepLo..StepHi] ×
// [IdxLo..IdxHi]; an inverted range makes it empty.
type Rect struct {
	StepLo, StepHi, IdxLo, IdxHi int
}

// rect returns [stepLo..stepHi] × [idxLo..idxHi] with both lower bounds
// clamped to 1, since positions are 1-based.
//
//hls:noalloc
func rect(stepLo, stepHi, idxLo, idxHi int) Rect {
	return Rect{StepLo: max(stepLo, 1), StepHi: stepHi, IdxLo: max(idxLo, 1), IdxHi: idxHi}
}

// Empty reports whether r holds no position.
//
//hls:noalloc
func (r Rect) Empty() bool { return r.StepLo > r.StepHi || r.IdxLo > r.IdxHi }

// Len returns the number of positions in r.
//
//hls:noalloc
func (r Rect) Len() int {
	if r.Empty() {
		return 0
	}
	return (r.StepHi - r.StepLo + 1) * (r.IdxHi - r.IdxLo + 1)
}

// Contains reports membership.
//
//hls:noalloc
func (r Rect) Contains(p Pos) bool {
	return p.Step >= r.StepLo && p.Step <= r.StepHi && p.Index >= r.IdxLo && p.Index <= r.IdxHi
}

// Positions returns r's positions in row-major (step, index) order.
func (r Rect) Positions() []Pos {
	ps := make([]Pos, 0, r.Len())
	for s := r.StepLo; s <= r.StepHi; s++ {
		for i := r.IdxLo; i <= r.IdxHi; i++ {
			ps = append(ps, Pos{Step: s, Index: i})
		}
	}
	return ps
}

// Frames is one placement decision's frames (§3 step 4, Figure 2) in
// closed form: the start-step window [Lo..Hi] the placed predecessors
// leave, the last step FFTop a placed predecessor forbids (0 for none),
// the running FU estimate Cur (current_j) and the type's bound Max
// (max_j). Every frame is a rectangle of the type's table, and so is
// the move frame MF = PF − (RF ∪ FF).
type Frames struct {
	Lo, Hi, FFTop, Cur, Max int
}

// PF is the primary frame [Lo..Hi] × [1..Max].
//
//hls:noalloc
func (f Frames) PF() Rect { return rect(f.Lo, f.Hi, 1, f.Max) }

// RF is the redundant frame [Lo..Hi] × [Cur+1..Max].
//
//hls:noalloc
func (f Frames) RF() Rect { return rect(f.Lo, f.Hi, f.Cur+1, f.Max) }

// FF is the forbidden frame [1..FFTop] × [1..Max].
//
//hls:noalloc
func (f Frames) FF() Rect { return rect(1, f.FFTop, 1, f.Max) }

// MF is the move frame PF − (RF ∪ FF): removing RF keeps the columns
// 1..min(Cur, Max), and removing FF keeps the rows past FFTop. The
// schedulers keep Lo ≥ FFTop+1, since every predecessor that forbids a
// row also raises Lo past it; the max keeps the form exact for any
// record.
//
//hls:noalloc
func (f Frames) MF() Rect { return rect(max(f.Lo, f.FFTop+1), f.Hi, 1, min(f.Cur, f.Max)) }

// Table is the placement grid of one FU type.
type Table struct {
	Type string // FU type key (op symbol in MFS, unit name in MFSA)
	CS   int    // rows: control steps
	Max  int    // columns: maximum FU instances (max_j)

	// Latency > 0 folds occupancy modulo the functional-pipelining
	// initiation interval (§5.5.2); Pipelined marks the type's units as
	// structurally pipelined (§5.5.1), so an op's conflict footprint is
	// its start row only.
	Latency   int
	Pipelined bool

	// The table is its occupancy: two mirrored word-level bitsets with
	// bit (step, index) set iff the cell is occupied, maintained by
	// Place and Grow. occRow is row-major (one rowWords-word group per
	// control step, bit (i-1)%64 of word (s-1)·rowWords+(i-1)/64),
	// matching the RowMajor walk order; occCol is column-major (one
	// colWords-word group per instance column, bit (s-1)%64 of word
	// (i-1)·colWords+(s-1)/64), matching ColMajor. ScanPlaceable masks a
	// move window into these words and finds free footprints with
	// bits.TrailingZeros64 — O(window/64) for the common case of a graph
	// without mutual-exclusion tags.
	occRow   []uint64
	occCol   []uint64
	rowWords int // ⌈Max/64⌉
	colWords int // ⌈CS/64⌉

	// shared lists the occupants of each cell whose first occupant carries
	// a mutual-exclusion tag: only there can a second, mutually exclusive
	// operation join. An occupied cell without an entry refuses every
	// operation.
	shared map[Pos][]dfg.NodeID
}

// NewTable returns an empty cs × max table for the given FU type.
// Callers that discover their instance count as they go (MFSA's local
// rescheduling) should start small — even at zero — and Grow: the
// allocation is proportional to the columns actually opened, which on
// large graphs is orders of magnitude below the worst-case bound.
func NewTable(typ string, cs, max int) *Table {
	return &Table{
		Type: typ, CS: cs, Max: max,
		rowWords: wordsPerRow(max),
		colWords: wordsPerRow(cs),
		occRow:   make([]uint64, cs*wordsPerRow(max)),
		occCol:   make([]uint64, max*wordsPerRow(cs)),
	}
}

// Grow widens the table to max instance columns, keeping existing
// occupancy. It is a no-op when the table is already that wide.
func (t *Table) Grow(max int) {
	if max <= t.Max {
		return
	}
	// occCol gains one zeroed colWords-word group per new column. occRow
	// only re-packs when the new width crosses a 64-column word boundary;
	// bits past Max inside the last word are never set, so within a word
	// width the existing rows are already correct.
	t.occCol = append(t.occCol, make([]uint64, (max-t.Max)*t.colWords)...)
	if wpr := wordsPerRow(max); wpr != t.rowWords {
		grown := make([]uint64, t.CS*wpr)
		for s := 0; s < t.CS; s++ {
			copy(grown[s*wpr:], t.occRow[s*t.rowWords:(s+1)*t.rowWords])
		}
		t.occRow, t.rowWords = grown, wpr
	}
	t.Max = max
}

// setOcc marks the cell at (folded) row step, column index occupied in
// both index bitsets. The caller has already bounds-checked.
//
//hls:noalloc
func (t *Table) setOcc(step, index int) {
	t.occRow[(step-1)*t.rowWords+(index-1)/64] |= uint64(1) << uint((index-1)%64)
	t.occCol[(index-1)*t.colWords+(step-1)/64] |= uint64(1) << uint((step-1)%64)
}

// Occupied reports whether an operation occupies p.
//
//hls:noalloc
func (t *Table) Occupied(p Pos) bool {
	if p.Step < 1 || p.Step > t.CS || p.Index < 1 || p.Index > t.Max {
		return false
	}
	return t.occRow[(p.Step-1)*t.rowWords+(p.Index-1)/64]&(uint64(1)<<uint((p.Index-1)%64)) != 0
}

// row returns the folded occupancy row for cycle i of an operation
// starting at step, honoring structural pipelining and latency folding.
// Rows beyond CS are returned as-is so callers can reject them.
//
//hls:noalloc
func (t *Table) row(step, i int) int {
	r := step + i
	if t.Latency > 0 {
		r = ((r - 1) % t.Latency) + 1
	}
	return r
}

// footRows returns how many rows an operation of the given duration
// occupies (its conflict footprint).
//
//hls:noalloc
func (t *Table) footRows(cycles int) int {
	if t.Pipelined {
		return 1
	}
	return cycles
}

// CanPlace reports whether operation id (of the given duration, from
// graph g) can start at position p: the whole footprint stays on the
// table and every already-occupied footprint cell holds only operations
// mutually exclusive with id.
//
//hls:noalloc
func (t *Table) CanPlace(g *dfg.Graph, id dfg.NodeID, p Pos, cycles int) bool {
	// The completion bound always uses the full duration: even on a
	// pipelined unit the operation must finish within the schedule.
	if p.Index < 1 || p.Index > t.Max || p.Step < 1 || p.Step+cycles-1 > t.CS {
		return false
	}
	for i := 0; i < t.footRows(cycles); i++ {
		q := Pos{Step: t.row(p.Step, i), Index: p.Index}
		if !t.Occupied(q) {
			continue
		}
		occ := t.shared[q]
		if len(occ) == 0 {
			return false // an untagged first occupant excludes nobody
		}
		for _, o := range occ {
			//hls:allocok dfg.MutuallyExclusive is two loops over the (tiny) Excl tag slices; it allocates nothing
			if !g.MutuallyExclusive(id, o) {
				return false
			}
		}
	}
	return true
}

// Place records operation id starting at p for the given duration. It
// fails if CanPlace would. Only a tagged operation that opens a cell, or
// joins one, allocates.
func (t *Table) Place(g *dfg.Graph, id dfg.NodeID, p Pos, cycles int) error {
	if !t.CanPlace(g, id, p, cycles) {
		return fmt.Errorf("grid %s: cannot place node %d at %v", t.Type, id, p)
	}
	tagged := len(g.Node(id).Excl) > 0
	for i := 0; i < t.footRows(cycles); i++ {
		q := Pos{Step: t.row(p.Step, i), Index: p.Index}
		switch {
		case !t.Occupied(q):
			t.setOcc(q.Step, q.Index)
			if tagged {
				if t.shared == nil {
					t.shared = make(map[Pos][]dfg.NodeID)
				}
				t.shared[q] = []dfg.NodeID{id}
			}
		case t.shared[q] != nil:
			t.shared[q] = append(t.shared[q], id)
		}
	}
	return nil
}

// ScanPlaceable visits, in the given walk order, exactly the positions p
// in the window [stepLo..stepHi] × [1..idxHi] where CanPlace(g, id, p,
// cycles) holds, stopping early when yield returns false (and reporting
// whether the walk ran to completion). It is semantically a window loop
// over CanPlace — the schedulers' move-frame walk — but it masks the
// window into the occupancy words and jumps between free footprints with
// bits.TrailingZeros64: on a graph with no mutual-exclusion tags
// (excl=false) an occupied bit is provably illegal and is skipped; with
// exclusion tags (excl=true) free bits still fast-accept, and only
// occupied bits fall back to the per-occupant CanPlace check. A multicycle footprint ORs the occupancy
// of its footRows rows, any number of them, into one busy mask (one row
// for Pipelined types).
//
// Latency folding is the identity whenever Latency ≥ CS: the completion
// bound keeps every footprint row at or below CS. Below CS the row-major
// walk folds rows through t.row exactly as CanPlace does; a column-major
// walk over such a table is a caller bug and panics (MFS rejects the
// configuration when it builds its tables, MFSA only walks row-major).
//
//hls:noalloc
func (t *Table) ScanPlaceable(g *dfg.Graph, id dfg.NodeID, excl bool, ord Order, stepLo, stepHi, idxHi, cycles int, yield func(Pos) bool) bool {
	if ord == ColMajor && t.Latency > 0 && t.Latency < t.CS {
		panic("grid: column-major walk over a latency-folded table")
	}
	if stepLo < 1 {
		stepLo = 1
	}
	if hi := t.CS - cycles + 1; stepHi > hi {
		stepHi = hi // CanPlace's completion bound: the op must finish by CS
	}
	if idxHi > t.Max {
		idxHi = t.Max
	}
	if stepLo > stepHi || idxHi < 1 {
		return true
	}
	if ord == RowMajor {
		return t.scanRowMajor(g, id, excl, stepLo, stepHi, idxHi, cycles, yield)
	}
	return t.scanColMajor(g, id, excl, stepLo, stepHi, idxHi, cycles, yield)
}

// scanRowMajor walks the window by ascending (step, index). For each
// step it ORs the footprint rows' occupancy words (folded modulo Latency
// by t.row, exactly as CanPlace folds them) into one busy mask per
// 64-column word and iterates the free bits.
//
//hls:noalloc
func (t *Table) scanRowMajor(g *dfg.Graph, id dfg.NodeID, excl bool, stepLo, stepHi, idxHi, cycles int, yield func(Pos) bool) bool {
	f := t.footRows(cycles)
	words := wordsPerRow(idxHi)
	for s := stepLo; s <= stepHi; s++ {
		for w := 0; w < words; w++ {
			var busy uint64
			for i := 0; i < f; i++ {
				busy |= t.occRow[(t.row(s, i)-1)*t.rowWords+w]
			}
			hi := idxHi - 1 - w*64
			if hi > 63 {
				hi = 63
			}
			win := maskRange(0, hi)
			if excl {
				for m := win; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					p := Pos{Step: s, Index: w*64 + b + 1}
					if busy&(uint64(1)<<uint(b)) != 0 && !t.CanPlace(g, id, p, cycles) {
						continue
					}
					if !yield(p) {
						return false
					}
				}
				continue
			}
			for free := ^busy & win; free != 0; free &= free - 1 {
				b := bits.TrailingZeros64(free)
				if !yield(Pos{Step: s, Index: w*64 + b + 1}) {
					return false
				}
			}
		}
	}
	return true
}

// scanColMajor walks the window by ascending (index, step). For each
// column it builds a busy-start mask — bit s set iff any of the
// footprint rows s..s+f-1 is occupied — by ORing the column words
// shifted down by each footprint offset (the bitboard AND-of-shifted-
// masks trick, complemented), then iterates the free start bits.
// ScanPlaceable only sends it tables whose folding is the identity, so
// footprint rows are the raw consecutive rows.
//
//hls:noalloc
func (t *Table) scanColMajor(g *dfg.Graph, id dfg.NodeID, excl bool, stepLo, stepHi, idxHi, cycles int, yield func(Pos) bool) bool {
	f := t.footRows(cycles)
	words := wordsPerRow(stepHi)
	for i := 1; i <= idxHi; i++ {
		base := (i - 1) * t.colWords
		for w := 0; w < words; w++ {
			busy := t.occCol[base+w]
			for j := 1; j < f; j++ {
				// Row s+j lies j/64 words and j%64 bits past row s; the
				// completion bound keeps word q inside the column.
				q, r := w+j/64, uint(j%64)
				busy |= t.occCol[base+q] >> r
				if q+1 < t.colWords {
					busy |= t.occCol[base+q+1] << (64 - r)
				}
			}
			lo, hi := stepLo-1-w*64, stepHi-1-w*64
			if lo < 0 {
				lo = 0
			}
			if hi > 63 {
				hi = 63
			}
			if lo > hi {
				continue
			}
			win := maskRange(lo, hi)
			if excl {
				for m := win; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					p := Pos{Step: w*64 + b + 1, Index: i}
					if busy&(uint64(1)<<uint(b)) != 0 && !t.CanPlace(g, id, p, cycles) {
						continue
					}
					if !yield(p) {
						return false
					}
				}
				continue
			}
			for free := ^busy & win; free != 0; free &= free - 1 {
				b := bits.TrailingZeros64(free)
				if !yield(Pos{Step: w*64 + b + 1, Index: i}) {
					return false
				}
			}
		}
	}
	return true
}
