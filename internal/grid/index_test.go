package grid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dfg"
	"repro/internal/op"
)

// model is the dense occupant-list table the occupancy bits replaced,
// kept as their oracle: every cell lists its occupants, and a position
// is placeable iff the footprint stays on the table and every footprint
// cell's occupants are mutually exclusive with the mover. It reads its
// shape from the table it shadows, so it follows the table's Grow.
type model struct {
	t     *Table
	lists [][]dfg.NodeID // column-major: cell (s, i) at (i-1)·CS+(s-1); short until placed into
}

func newModel(t *Table) *model { return &model{t: t} }

// at returns the occupants of the in-bounds cell p.
func (m *model) at(p Pos) []dfg.NodeID {
	if c := (p.Index-1)*m.t.CS + (p.Step - 1); c < len(m.lists) {
		return m.lists[c]
	}
	return nil
}

func (m *model) canPlace(g *dfg.Graph, id dfg.NodeID, p Pos, cycles int) bool {
	t := m.t
	if p.Index < 1 || p.Index > t.Max || p.Step < 1 || p.Step+cycles-1 > t.CS {
		return false
	}
	for i := 0; i < t.footRows(cycles); i++ {
		for _, occ := range m.at(Pos{Step: t.row(p.Step, i), Index: p.Index}) {
			if !g.MutuallyExclusive(id, occ) {
				return false
			}
		}
	}
	return true
}

// place checks the table's CanPlace against the model's, places id on
// both when it is legal, and reports whether it was.
func (m *model) place(tb testing.TB, g *dfg.Graph, id dfg.NodeID, p Pos, cycles int) bool {
	tb.Helper()
	ok := m.canPlace(g, id, p, cycles)
	if got := m.t.CanPlace(g, id, p, cycles); got != ok {
		tb.Fatalf("CanPlace(node %d, %v, %d cycles) = %v, the occupant model says %v", id, p, cycles, got, ok)
	}
	if !ok {
		return false
	}
	if err := m.t.Place(g, id, p, cycles); err != nil {
		tb.Fatalf("CanPlace true but Place failed: %v", err)
	}
	if n := m.t.Max * m.t.CS; len(m.lists) < n {
		m.lists = append(m.lists, make([][]dfg.NodeID, n-len(m.lists))...)
	}
	for i := 0; i < m.t.footRows(cycles); i++ {
		c := (p.Index-1)*m.t.CS + (m.t.row(p.Step, i) - 1)
		m.lists[c] = append(m.lists[c], id)
	}
	return true
}

// scanNaive is the reference ScanPlaceable is checked against: the
// window walk with one model canPlace per cell, in the given order,
// over an already clamped window.
func (m *model) scanNaive(g *dfg.Graph, id dfg.NodeID, ord Order, stepLo, stepHi, idxHi, cycles int, yield func(Pos) bool) bool {
	if ord == RowMajor {
		for s := stepLo; s <= stepHi; s++ {
			for i := 1; i <= idxHi; i++ {
				p := Pos{Step: s, Index: i}
				if m.canPlace(g, id, p, cycles) && !yield(p) {
					return false
				}
			}
		}
		return true
	}
	for i := 1; i <= idxHi; i++ {
		for s := stepLo; s <= stepHi; s++ {
			p := Pos{Step: s, Index: i}
			if m.canPlace(g, id, p, cycles) && !yield(p) {
				return false
			}
		}
	}
	return true
}

// checkIndex asserts the table is exactly the model: both occupancy
// bitsets set iff the model's cell holds an occupant, and an occupant
// list, equal to the model's, exactly for the cells whose first
// occupant is tagged.
func checkIndex(t *testing.T, g *dfg.Graph, m *model, when string) {
	t.Helper()
	tb := m.t
	if got, want := tb.rowWords, wordsPerRow(tb.Max); got != want {
		t.Fatalf("%s: rowWords = %d, want %d", when, got, want)
	}
	if got, want := len(tb.occRow), tb.CS*tb.rowWords; got != want {
		t.Fatalf("%s: len(occRow) = %d, want %d", when, got, want)
	}
	if got, want := len(tb.occCol), tb.Max*tb.colWords; got != want {
		t.Fatalf("%s: len(occCol) = %d, want %d", when, got, want)
	}
	lists := 0
	for s := 1; s <= tb.CS; s++ {
		for i := 1; i <= tb.Max; i++ {
			p := Pos{Step: s, Index: i}
			occ := m.at(p)
			rowBit := tb.occRow[(s-1)*tb.rowWords+(i-1)/64]&(uint64(1)<<uint((i-1)%64)) != 0
			colBit := tb.occCol[(i-1)*tb.colWords+(s-1)/64]&(uint64(1)<<uint((s-1)%64)) != 0
			if rowBit != (len(occ) > 0) || colBit != (len(occ) > 0) {
				t.Fatalf("%s: %v: occupants=%v rowBit=%v colBit=%v", when, p, occ, rowBit, colBit)
			}
			var want []dfg.NodeID
			if len(occ) > 0 && len(g.Node(occ[0]).Excl) > 0 {
				want = occ
				lists++
			}
			if got := tb.shared[p]; !slices.Equal(got, want) {
				t.Fatalf("%s: %v: occupant list %v, model %v", when, p, got, want)
			}
		}
	}
	if len(tb.shared) != lists {
		t.Fatalf("%s: %d occupant lists, %d tagged cells", when, len(tb.shared), lists)
	}
	// No stray bits past Max within the last row word, or past CS within
	// the last column word — Grow's repack correctness depends on that.
	for s := 0; s < tb.CS; s++ {
		for w := 0; w < tb.rowWords; w++ {
			hi := tb.Max - 1 - w*64
			if hi > 63 {
				hi = 63
			}
			if hi < 0 {
				if tb.occRow[s*tb.rowWords+w] != 0 {
					t.Fatalf("%s: stray occRow bits in word past Max", when)
				}
				continue
			}
			if tb.occRow[s*tb.rowWords+w]&^maskRange(0, hi) != 0 {
				t.Fatalf("%s: stray occRow bits past Max in step %d", when, s+1)
			}
		}
	}
	for i := 0; i < tb.Max; i++ {
		for w := 0; w < tb.colWords; w++ {
			hi := tb.CS - 1 - w*64
			if hi > 63 {
				hi = 63
			}
			if tb.occCol[i*tb.colWords+w]&^maskRange(0, hi) != 0 {
				t.Fatalf("%s: stray occCol bits past CS in column %d", when, i+1)
			}
		}
	}
}

// exclGraph builds a graph of n Mul ops where every third op carries a
// mutual-exclusion tag, alternating branches — so some pairs share cells.
func exclGraph(t *testing.T, n int, tagged bool) (*dfg.Graph, []dfg.NodeID) {
	t.Helper()
	g := dfg.New("idx")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	ids := make([]dfg.NodeID, n)
	for i := 0; i < n; i++ {
		id, err := g.AddOp(fmt.Sprintf("n%d", i), op.Mul, "a", "a")
		if err != nil {
			t.Fatal(err)
		}
		if tagged && i%3 != 0 {
			g.Tag(id, dfg.CondTag{Cond: 1, Branch: i % 2})
		}
		ids[i] = id
	}
	return g, ids
}

// TestOccupancyIndexProperty drives randomized Place/Grow sequences —
// across Latency folding, Pipelined footprints, multicycle durations,
// and mutual-exclusion sharing — checking CanPlace against the occupant
// model at every random probe and asserting after every mutation that
// the table is exactly the model (checkIndex).
func TestOccupancyIndexProperty(t *testing.T) {
	configs := []struct {
		name      string
		cs        int
		latency   int
		pipelined bool
		tagged    bool
	}{
		{"plain", 9, 0, false, false},
		{"excl", 9, 0, false, true},
		{"latency", 12, 4, false, false},
		{"latency/excl", 12, 4, false, true},
		{"pipelined", 9, 0, true, false},
		{"wide", 200, 0, false, true}, // colWords > 1
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(17))
			for trial := 0; trial < 20; trial++ {
				g, ids := exclGraph(t, 40, cfg.tagged)
				cycles := make(map[dfg.NodeID]int, len(ids))
				for _, id := range ids {
					c := 1 + r.Intn(3)
					g.SetCycles(id, c)
					cycles[id] = c
				}
				tb := NewTable("*", cfg.cs, 0)
				tb.Latency = cfg.latency
				tb.Pipelined = cfg.pipelined
				m := newModel(tb)
				placed := make(map[dfg.NodeID]bool, len(ids))
				for step := 0; step < 120; step++ {
					if tb.Max == 0 || r.Intn(8) == 0 {
						tb.Grow(tb.Max + 1 + r.Intn(70)) // crosses 64-column words
						checkIndex(t, g, m, fmt.Sprintf("trial %d op %d (grow)", trial, step))
						continue
					}
					id := ids[r.Intn(len(ids))]
					p := Pos{Step: 1 + r.Intn(cfg.cs), Index: 1 + r.Intn(tb.Max)}
					if placed[id] {
						// Each op is placed once; later draws only probe.
						if got, want := tb.CanPlace(g, id, p, cycles[id]), m.canPlace(g, id, p, cycles[id]); got != want {
							t.Fatalf("trial %d: CanPlace(node %d, %v) = %v, model %v", trial, id, p, got, want)
						}
						continue
					}
					if m.place(t, g, id, p, cycles[id]) {
						placed[id] = true
						checkIndex(t, g, m, fmt.Sprintf("trial %d op %d", trial, step))
					}
				}
			}
		})
	}
}

// TestScanPlaceableMatchesNaive pins the word scans against the
// occupant model's scanNaive: over randomized occupancy, every (order ×
// exclusion × duration × window) walk visits exactly the positions the
// per-cell model walk accepts, in exactly the same order. The configurations cover every
// table shape the schedulers build: latency folding below, at and past
// CS, pipelined single-row footprints, multi-word columns, and
// footprints of 60–140 rows that span up to three column words. A
// table folded below CS is walked row-major only (ScanPlaceable's
// precondition, pinned by TestScanPlaceableRejectsFoldedColumnWalk).
func TestScanPlaceableMatchesNaive(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		cs        int
		latency   int
		pipelined bool
		tagged    bool
		cycLo     int // durations are cycLo..cycLo+cycSpan-1 (default 1..3)
		cycSpan   int
	}{
		{"plain", 9, 0, false, false, 0, 0},
		{"excl", 9, 0, false, true, 0, 0},
		{"latency", 12, 4, false, true, 0, 0},
		{"latency=cs", 12, 12, false, true, 0, 0},
		{"latency>cs", 12, 20, false, false, 0, 0},
		{"pipelined", 9, 0, true, false, 0, 0},
		{"tall", 130, 0, false, false, 0, 0}, // multi-word columns
		{"long-footprints", 300, 0, false, false, 60, 81},
		{"long-footprints/excl", 300, 0, false, true, 60, 81},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			cycLo, cycSpan := 1, 3
			if cfg.cycLo > 0 {
				cycLo, cycSpan = cfg.cycLo, cfg.cycSpan
			}
			orders := []Order{RowMajor, ColMajor}
			if cfg.latency > 0 && cfg.latency < cfg.cs {
				orders = orders[:1]
			}
			r := rand.New(rand.NewSource(99))
			for trial := 0; trial < 25; trial++ {
				g, ids := exclGraph(t, 60, cfg.tagged)
				tb := NewTable("*", cfg.cs, 70+r.Intn(70))
				tb.Latency = cfg.latency
				tb.Pipelined = cfg.pipelined
				m := newModel(tb)
				for _, id := range ids {
					c := cycLo + r.Intn(cycSpan)
					g.SetCycles(id, c)
					m.place(t, g, id, Pos{Step: 1 + r.Intn(cfg.cs), Index: 1 + r.Intn(tb.Max)}, c)
				}
				probe, err := g.AddOp("probe", op.Mul, "a", "a")
				if err != nil {
					t.Fatal(err)
				}
				cyc := cycLo + r.Intn(cycSpan)
				g.SetCycles(probe, cyc)
				if cfg.tagged {
					// So occupied cells whose occupants all sit on the other
					// branch stay placeable.
					g.Tag(probe, dfg.CondTag{Cond: 1, Branch: r.Intn(2)})
				}
				excl := g.HasExclusions()
				for _, ord := range orders {
					lo := 1 + r.Intn(cfg.cs)
					hi := lo + r.Intn(cfg.cs)
					idxHi := 1 + r.Intn(tb.Max+4)
					var fast, slow []Pos
					tb.ScanPlaceable(g, probe, excl, ord, lo, hi, idxHi, cyc, func(p Pos) bool {
						fast = append(fast, p)
						return true
					})
					sLo, sHi, sIdx := lo, hi, idxHi
					if top := tb.CS - cyc + 1; sHi > top {
						sHi = top
					}
					if sIdx > tb.Max {
						sIdx = tb.Max
					}
					m.scanNaive(g, probe, ord, sLo, sHi, sIdx, cyc, func(p Pos) bool {
						slow = append(slow, p)
						return true
					})
					if len(fast) != len(slow) {
						t.Fatalf("trial %d ord %v: indexed walk found %d positions, naive %d",
							trial, ord, len(fast), len(slow))
					}
					for i := range fast {
						if fast[i] != slow[i] {
							t.Fatalf("trial %d ord %v: position %d: indexed %v, naive %v",
								trial, ord, i, fast[i], slow[i])
						}
					}
					// Early termination agrees too.
					if len(fast) > 1 {
						var first Pos
						got := 0
						tb.ScanPlaceable(g, probe, excl, ord, lo, hi, idxHi, cyc, func(p Pos) bool {
							first, got = p, got+1
							return false
						})
						if got != 1 || first != fast[0] {
							t.Fatalf("trial %d ord %v: early stop visited %d, first %v (want %v)",
								trial, ord, got, first, fast[0])
						}
					}
				}
			}
		})
	}
}

// TestScanPlaceableRejectsFoldedColumnWalk pins ScanPlaceable's one
// precondition: a column-major walk over a table folded below CS
// panics, even over an empty window, while the same table walks
// row-major and a table folded at or past CS walks in both orders.
func TestScanPlaceableRejectsFoldedColumnWalk(t *testing.T) {
	g, ids := exclGraph(t, 1, false)
	walk := func(latency int, ord Order, stepLo int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		tb := NewTable("*", 8, 4)
		tb.Latency = latency
		tb.ScanPlaceable(g, ids[0], false, ord, stepLo, 8, 4, 1, func(Pos) bool { return true })
		return false
	}
	for _, c := range []struct {
		latency int
		ord     Order
		stepLo  int
		want    bool
	}{
		{4, ColMajor, 1, true},
		{4, ColMajor, 9, true}, // empty window
		{7, ColMajor, 1, true},
		{4, RowMajor, 1, false},
		{8, ColMajor, 1, false},
		{9, ColMajor, 1, false},
		{0, ColMajor, 1, false},
	} {
		if got := walk(c.latency, c.ord, c.stepLo); got != c.want {
			t.Errorf("latency %d, order %v, stepLo %d on 8 steps: panicked = %v, want %v",
				c.latency, c.ord, c.stepLo, got, c.want)
		}
	}
}

// TestScanPlaceableAllocs pins the zero-allocation claim of the index
// walks, and that placing an untagged operation allocates nothing.
func TestScanPlaceableAllocs(t *testing.T) {
	g, ids := exclGraph(t, 30, false)
	tb := NewTable("*", 20, 130)
	r := rand.New(rand.NewSource(5))
	for _, id := range ids {
		p := Pos{Step: 1 + r.Intn(20), Index: 1 + r.Intn(130)}
		if tb.CanPlace(g, id, p, 1) {
			if err := tb.Place(g, id, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := ids[0]
	n := 0
	for _, ord := range []Order{RowMajor, ColMajor} {
		if a := testing.AllocsPerRun(100, func() {
			n = 0
			tb.ScanPlaceable(g, probe, false, ord, 1, 20, 130, 1, func(Pos) bool {
				n++
				return true
			})
		}); a != 0 {
			t.Errorf("ScanPlaceable(%v) allocates %.0f, want 0", ord, a)
		}
		if n == 0 {
			t.Fatalf("ScanPlaceable(%v) found no positions on a sparse table", ord)
		}
	}
	// Each run places on a fresh cell of an empty table.
	fresh := NewTable("*", 20, 130)
	k := 0
	if a := testing.AllocsPerRun(100, func() {
		p := Pos{Step: 1 + k%20, Index: 1 + k/20}
		k++
		if err := fresh.Place(g, probe, p, 1); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("untagged Place allocates %.0f, want 0", a)
	}
}

// BenchmarkWindowWalk measures both scan orders over a half-occupied
// 64×256 window, the word scans against the occupant model's scanNaive, so an
// A/B of the walk itself is one `go test -bench WindowWalk` away.
func BenchmarkWindowWalk(b *testing.B) {
	g := dfg.New("bench")
	if err := g.AddInput("a"); err != nil {
		b.Fatal(err)
	}
	const cs, max = 64, 256
	tb := NewTable("*", cs, max)
	m := newModel(tb)
	r := rand.New(rand.NewSource(7))
	for i := 0; ; i++ {
		id, err := g.AddOp(fmt.Sprintf("n%d", i), op.Mul, "a", "a")
		if err != nil {
			b.Fatal(err)
		}
		placedAny := false
		for tries := 0; tries < 4 && !placedAny; tries++ {
			placedAny = m.place(b, g, id, Pos{Step: 1 + r.Intn(cs), Index: 1 + r.Intn(max)}, 1)
		}
		if !placedAny || i >= cs*max/2 {
			break
		}
	}
	probe, err := g.AddOp("probe", op.Mul, "a", "a")
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		ord  Order
	}{
		{"row-major", RowMajor},
		{"col-major", ColMajor},
	} {
		b.Run(bench.name+"/indexed", func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				tb.ScanPlaceable(g, probe, false, bench.ord, 1, cs, max, 1, func(Pos) bool {
					n++
					return true
				})
			}
		})
		b.Run(bench.name+"/naive", func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				m.scanNaive(g, probe, bench.ord, 1, cs, max, 1, func(Pos) bool {
					n++
					return true
				})
			}
		})
	}
}
