// Package grid implements the paper's 2-dimensional placement tables
// (Figure 1) and the frame algebra of MFS step 4: positions, rectangular
// frames, the set relation MF = PF − (RF ∪ FF), occupancy with
// mutual-exclusion sharing, and ASCII rendering used to reproduce the
// paper's Figures 1 and 2.
//
// One Table exists per functional-unit type: rows are control steps
// (1..CS, growing downward as in the paper's figures) and columns are FU
// instances of that type (1..Max). The full search space is the union of
// the per-type tables — the paper's third dimension.
//
// Frames are dense bitsets, not hash sets: a Frame is a row-major
// []uint64 over its bounding box, one word group per control step, so
// Rect is a mask fill, Union and Minus are per-word | and &^, and
// membership is a shift-and-test. Table.ScanPlaceable walks a move
// window's free cells in (step, index) or (index, step) order straight
// off the table's occupancy bitsets; for the paper's linear Liapunov
// functions those orders are exactly non-decreasing energy (see
// liapunov.Ordered), which is what turns the schedulers' min-energy
// search into "first legal bit wins".
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

// Frame is a set of grid positions. The paper's PF, RF, FF and MF are all
// Frames; MF = PF − (RF ∪ FF) is set subtraction.
//
// The representation is a dense row-major bitset over the frame's
// bounding box [1..steps] × [1..max]: wordsPerRow = ⌈max/64⌉ words per
// control step, and position (s, i) is bit (i-1) mod 64 of word
// (s-1)·wordsPerRow + (i-1)/64. The zero value is the empty frame.
// Algebra results are always freshly allocated (one backing array per
// result), so frames behave as values; only Add mutates in place.
type Frame struct {
	steps, max int // bounding box; both 0 for the zero value
	words      []uint64
}

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

// Rect returns the rectangular frame [stepLo..stepHi] × [idxLo..idxHi].
// Bounds below 1 are clamped (positions are 1-based); empty or inverted
// ranges yield an empty frame. The fill is one masked word row copied to
// every step — a single allocation regardless of area.
//
//hls:noalloc
func Rect(stepLo, stepHi, idxLo, idxHi int) Frame {
	if stepLo < 1 {
		stepLo = 1
	}
	if idxLo < 1 {
		idxLo = 1
	}
	if stepHi < stepLo || idxHi < idxLo {
		return Frame{}
	}
	wpr := wordsPerRow(idxHi)
	//hls:allocok the result's single backing array, O(1) per call (pinned by TestFrameAlgebraAllocs)
	f := Frame{steps: stepHi, max: idxHi, words: make([]uint64, stepHi*wpr)}
	first := (stepLo - 1) * wpr
	for w := 0; w < wpr; w++ {
		lo, hi := idxLo-1, idxHi-1 // 0-based bit indices over the row
		if lo < w*64 {
			lo = w * 64
		}
		if hi > w*64+63 {
			hi = w*64 + 63
		}
		if lo > hi {
			continue
		}
		f.words[first+w] = maskRange(lo-w*64, hi-w*64)
	}
	row := f.words[first : first+wpr]
	for s := stepLo; s < stepHi; s++ {
		copy(f.words[s*wpr:(s+1)*wpr], row)
	}
	return f
}

// accumulate ORs (clear=false) or ANDNOT-clears (clear=true) src's bits
// into f. For OR, f's bounding box must contain src's. Word layouts align
// across different widths because a position's bit offset within its row
// depends only on its index, never on the frame's max.
//
//hls:noalloc
func (f *Frame) accumulate(src Frame, clear bool) {
	wpr, swpr := wordsPerRow(f.max), wordsPerRow(src.max)
	steps, w := src.steps, swpr
	if clear {
		if f.steps < steps {
			steps = f.steps
		}
		if wpr < w {
			w = wpr
		}
	}
	if wpr == swpr {
		n := steps * wpr
		if clear {
			for i := 0; i < n; i++ {
				f.words[i] &^= src.words[i]
			}
		} else {
			for i := 0; i < n; i++ {
				f.words[i] |= src.words[i]
			}
		}
		return
	}
	for s := 0; s < steps; s++ {
		fo, so := s*wpr, s*swpr
		if clear {
			for k := 0; k < w; k++ {
				f.words[fo+k] &^= src.words[so+k]
			}
		} else {
			for k := 0; k < w; k++ {
				f.words[fo+k] |= src.words[so+k]
			}
		}
	}
}

// Union returns f ∪ o.
//
//hls:noalloc
func (f Frame) Union(o Frame) Frame {
	steps, max := f.steps, f.max
	if o.steps > steps {
		steps = o.steps
	}
	if o.max > max {
		max = o.max
	}
	if steps == 0 || max == 0 {
		return Frame{}
	}
	//hls:allocok the result's single backing array, O(1) per call (pinned by TestFrameAlgebraAllocs)
	out := Frame{steps: steps, max: max, words: make([]uint64, steps*wordsPerRow(max))}
	out.accumulate(f, false)
	out.accumulate(o, false)
	return out
}

// Minus returns f − o.
//
//hls:noalloc
func (f Frame) Minus(o Frame) Frame {
	if f.steps == 0 {
		return Frame{}
	}
	//hls:allocok the result's single backing array, O(1) per call (pinned by TestFrameAlgebraAllocs)
	out := Frame{steps: f.steps, max: f.max, words: append([]uint64(nil), f.words...)}
	out.accumulate(o, true)
	return out
}

// Contains reports membership.
//
//hls:noalloc
func (f Frame) Contains(p Pos) bool {
	if p.Step < 1 || p.Step > f.steps || p.Index < 1 || p.Index > f.max {
		return false
	}
	i := p.Index - 1
	return f.words[(p.Step-1)*wordsPerRow(f.max)+i/64]&(uint64(1)<<uint(i%64)) != 0
}

// Add inserts p, growing the bounding box if needed. Positions below
// (1,1) are rejected. Add mutates the frame in place (the only Frame
// operation that does), re-packing the words when the box grows.
//
//hls:noalloc
func (f *Frame) Add(p Pos) {
	if p.Step < 1 || p.Index < 1 {
		return
	}
	if p.Step > f.steps || p.Index > f.max {
		steps, max := f.steps, f.max
		if p.Step > steps {
			steps = p.Step
		}
		if p.Index > max {
			max = p.Index
		}
		//hls:allocok the grow path re-packs into a wider box; in-bounds Adds never reach it
		grown := Frame{steps: steps, max: max, words: make([]uint64, steps*wordsPerRow(max))}
		grown.accumulate(*f, false)
		*f = grown
	}
	i := p.Index - 1
	f.words[(p.Step-1)*wordsPerRow(f.max)+i/64] |= uint64(1) << uint(i%64)
}

// Empty reports whether the frame has no positions.
//
//hls:noalloc
func (f Frame) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of positions in the frame.
//
//hls:noalloc
func (f Frame) Len() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports set equality, independent of the bounding boxes.
func (f Frame) Equal(o Frame) bool {
	if f.steps == o.steps && f.max == o.max {
		for i, w := range f.words {
			if w != o.words[i] {
				return false
			}
		}
		return true
	}
	if f.Len() != o.Len() {
		return false
	}
	return f.Scan(func(p Pos) bool { return o.Contains(p) })
}

// Scan visits every position in row-major (step, index) order — the
// paper's "fill a step before opening the next". It stops early when
// yield returns false, and reports whether the walk ran to completion.
// For a time-constrained Liapunov function V = x + n·y with n greater
// than every index, this order is strictly increasing energy.
//
//hls:noalloc
func (f Frame) Scan(yield func(Pos) bool) bool {
	wpr := wordsPerRow(f.max)
	for s := 0; s < f.steps; s++ {
		base := s * wpr
		for w := 0; w < wpr; w++ {
			word := f.words[base+w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				if !yield(Pos{Step: s + 1, Index: w*64 + b + 1}) {
					return false
				}
				word &= word - 1
			}
		}
	}
	return true
}

// Positions returns the frame's positions sorted by (step, index) so
// iteration is deterministic. The bitset stores them in exactly that
// order, so this is a single pre-sized scan, no sort.
func (f Frame) Positions() []Pos {
	ps := make([]Pos, 0, f.Len())
	f.Scan(func(p Pos) bool {
		ps = append(ps, p)
		return true
	})
	return ps
}

// FrameSet bundles the four frames of one placement decision, for
// inspection and for rendering Figure 2.
type FrameSet struct {
	PF, RF, FF, MF Frame
}

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

	// cells is dense column-major: one contiguous CS-cell run per
	// instance column, so Grow opens new columns by appending without
	// relaying existing occupancy. A nil/empty slice is a free cell.
	// More than one occupant only for mutually exclusive operations.
	cells [][]dfg.NodeID

	// The occupancy index: two mirrored word-level bitsets with bit
	// (step, index) set iff cells[(index-1)·CS+(step-1)] is non-empty,
	// maintained by Place/Remove/Grow. occRow is row-major (one
	// rowWords-word group per control step, bit (i-1)%64 of word
	// (s-1)·rowWords+(i-1)/64), matching the RowMajor walk order; occCol
	// is column-major (one colWords-word group per instance column, bit
	// (s-1)%64 of word (i-1)·colWords+(s-1)/64), matching ColMajor.
	// ScanPlaceable masks a move window into these words and finds free
	// footprints with bits.TrailingZeros64 instead of probing cells one
	// by one — O(window/64) instead of O(window) for the common case of
	// a graph without mutual-exclusion tags.
	occRow   []uint64
	occCol   []uint64
	rowWords int // ⌈Max/64⌉
	colWords int // ⌈CS/64⌉
}

// NewTable returns an empty cs × max table for the given FU type.
// Callers that discover their instance count as they go (MFSA's local
// rescheduling) should start small — even at zero — and Grow: the
// allocation is proportional to the columns actually opened, which on
// large graphs is orders of magnitude below the worst-case bound.
func NewTable(typ string, cs, max int) *Table {
	return &Table{
		Type: typ, CS: cs, Max: max,
		cells:    make([][]dfg.NodeID, cs*max),
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
	t.cells = append(t.cells, make([][]dfg.NodeID, (max-t.Max)*t.CS)...)
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

// clearOcc marks the cell at (folded) row step, column index free in
// both index bitsets. The caller has already bounds-checked.
//
//hls:noalloc
func (t *Table) clearOcc(step, index int) {
	t.occRow[(step-1)*t.rowWords+(index-1)/64] &^= uint64(1) << uint((index-1)%64)
	t.occCol[(index-1)*t.colWords+(step-1)/64] &^= uint64(1) << uint((step-1)%64)
}

// cell returns the dense index of p, which must be in bounds.
//
//hls:noalloc
func (t *Table) cell(p Pos) int { return (p.Index-1)*t.CS + (p.Step - 1) }

// InBounds reports whether p lies on the table.
//
//hls:noalloc
func (t *Table) InBounds(p Pos) bool {
	return p.Step >= 1 && p.Step <= t.CS && p.Index >= 1 && p.Index <= t.Max
}

// At returns the operations occupying p (more than one only for mutually
// exclusive operations). The slice must not be modified.
func (t *Table) At(p Pos) []dfg.NodeID {
	if !t.InBounds(p) {
		return nil
	}
	return t.cells[t.cell(p)]
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
		row := t.row(p.Step, i)
		for _, occ := range t.cells[(p.Index-1)*t.CS+(row-1)] {
			//hls:allocok dfg.MutuallyExclusive is two loops over the (tiny) Excl tag slices; it allocates nothing
			if !g.MutuallyExclusive(id, occ) {
				return false
			}
		}
	}
	return true
}

// Place records operation id starting at p for the given duration. It
// fails if CanPlace would.
func (t *Table) Place(g *dfg.Graph, id dfg.NodeID, p Pos, cycles int) error {
	if !t.CanPlace(g, id, p, cycles) {
		return fmt.Errorf("grid %s: cannot place node %d at %v", t.Type, id, p)
	}
	for i := 0; i < t.footRows(cycles); i++ {
		row := t.row(p.Step, i)
		c := (p.Index-1)*t.CS + (row - 1)
		t.cells[c] = append(t.cells[c], id)
		if len(t.cells[c]) == 1 {
			t.setOcc(row, p.Index)
		}
	}
	return nil
}

// Remove erases operation id's footprint starting at p.
func (t *Table) Remove(id dfg.NodeID, p Pos, cycles int) {
	for i := 0; i < t.footRows(cycles); i++ {
		row := t.row(p.Step, i)
		if row < 1 || row > t.CS || p.Index < 1 || p.Index > t.Max {
			continue
		}
		c := (p.Index-1)*t.CS + (row - 1)
		occ := t.cells[c]
		for j, x := range occ {
			if x == id {
				t.cells[c] = append(occ[:j], occ[j+1:]...)
				if len(t.cells[c]) == 0 {
					t.clearOcc(row, p.Index)
				}
				break
			}
		}
	}
}

// ScanPlaceable visits, in the given walk order, exactly the positions p
// in the window [stepLo..stepHi] × [1..idxHi] where CanPlace(g, id, p,
// cycles) holds, stopping early when yield returns false (and reporting
// whether the walk ran to completion). It is semantically a window loop
// over CanPlace — the schedulers' move-frame walk — but it masks the
// window into the occupancy words and jumps between free footprints with
// bits.TrailingZeros64: on a graph with no mutual-exclusion tags
// (excl=false) an occupied bit is provably illegal and is skipped
// without touching cells; with exclusion tags (excl=true) free bits
// still fast-accept, and only occupied bits fall back to the
// per-occupant CanPlace walk. A multicycle footprint ORs the occupancy
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
