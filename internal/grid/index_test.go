package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/op"
)

// checkIndex asserts both occupancy bitsets exactly mirror the cell
// array: bit (step, index) set iff the cell holds at least one occupant.
func checkIndex(t *testing.T, tb *Table, when string) {
	t.Helper()
	if got, want := tb.rowWords, wordsPerRow(tb.Max); got != want {
		t.Fatalf("%s: rowWords = %d, want %d", when, got, want)
	}
	if got, want := len(tb.occRow), tb.CS*tb.rowWords; got != want {
		t.Fatalf("%s: len(occRow) = %d, want %d", when, got, want)
	}
	if got, want := len(tb.occCol), tb.Max*tb.colWords; got != want {
		t.Fatalf("%s: len(occCol) = %d, want %d", when, got, want)
	}
	for s := 1; s <= tb.CS; s++ {
		for i := 1; i <= tb.Max; i++ {
			occupied := len(tb.cells[(i-1)*tb.CS+(s-1)]) > 0
			rowBit := tb.occRow[(s-1)*tb.rowWords+(i-1)/64]&(uint64(1)<<uint((i-1)%64)) != 0
			colBit := tb.occCol[(i-1)*tb.colWords+(s-1)/64]&(uint64(1)<<uint((s-1)%64)) != 0
			if rowBit != occupied || colBit != occupied {
				t.Fatalf("%s: (t%d,fu%d): occupied=%v rowBit=%v colBit=%v",
					when, s, i, occupied, rowBit, colBit)
			}
		}
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

// TestOccupancyIndexProperty drives randomized Place/Remove/Grow
// sequences — across Latency folding, Pipelined footprints, multicycle
// durations, and mutual-exclusion sharing — and asserts after every
// mutation that the mirrored bitsets exactly track cell occupancy.
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
				type placed struct {
					id dfg.NodeID
					p  Pos
				}
				var live []placed
				for step := 0; step < 120; step++ {
					switch {
					case r.Intn(8) == 0:
						tb.Grow(tb.Max + 1 + r.Intn(70)) // crosses 64-column words
					case len(live) > 0 && r.Intn(3) == 0:
						k := r.Intn(len(live))
						pl := live[k]
						tb.Remove(pl.id, pl.p, cycles[pl.id])
						live = append(live[:k], live[k+1:]...)
					default:
						if tb.Max == 0 {
							tb.Grow(1 + r.Intn(5))
						}
						id := ids[r.Intn(len(ids))]
						used := false
						for _, pl := range live {
							if pl.id == id {
								used = true
								break
							}
						}
						if used {
							continue
						}
						p := Pos{Step: 1 + r.Intn(cfg.cs), Index: 1 + r.Intn(tb.Max)}
						if tb.CanPlace(g, id, p, cycles[id]) {
							if err := tb.Place(g, id, p, cycles[id]); err != nil {
								t.Fatalf("trial %d: CanPlace true but Place failed: %v", trial, err)
							}
							live = append(live, placed{id, p})
						}
					}
					checkIndex(t, tb, fmt.Sprintf("trial %d op %d", trial, step))
				}
				for _, pl := range live {
					tb.Remove(pl.id, pl.p, cycles[pl.id])
				}
				checkIndex(t, tb, fmt.Sprintf("trial %d after teardown", trial))
				for _, w := range tb.occRow {
					if w != 0 {
						t.Fatalf("trial %d: occRow not empty after removing everything", trial)
					}
				}
				for _, w := range tb.occCol {
					if w != 0 {
						t.Fatalf("trial %d: occCol not empty after removing everything", trial)
					}
				}
			}
		})
	}
}

// scanNaive is the reference ScanPlaceable is checked against: the
// window walk with one CanPlace per cell, in the given order, over an
// already clamped window.
func (t *Table) scanNaive(g *dfg.Graph, id dfg.NodeID, ord Order, stepLo, stepHi, idxHi, cycles int, yield func(Pos) bool) bool {
	if ord == RowMajor {
		for s := stepLo; s <= stepHi; s++ {
			for i := 1; i <= idxHi; i++ {
				p := Pos{Step: s, Index: i}
				if t.CanPlace(g, id, p, cycles) && !yield(p) {
					return false
				}
			}
		}
		return true
	}
	for i := 1; i <= idxHi; i++ {
		for s := stepLo; s <= stepHi; s++ {
			p := Pos{Step: s, Index: i}
			if t.CanPlace(g, id, p, cycles) && !yield(p) {
				return false
			}
		}
	}
	return true
}

// TestScanPlaceableMatchesNaive pins the word scans against scanNaive:
// over randomized occupancy, every (order × exclusion × duration ×
// window) walk visits exactly the positions the per-cell CanPlace loop
// accepts, in exactly the same order. The configurations cover every
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
				for _, id := range ids {
					c := cycLo + r.Intn(cycSpan)
					g.SetCycles(id, c)
					p := Pos{Step: 1 + r.Intn(cfg.cs), Index: 1 + r.Intn(tb.Max)}
					if tb.CanPlace(g, id, p, c) {
						if err := tb.Place(g, id, p, c); err != nil {
							t.Fatal(err)
						}
					}
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
					tb.scanNaive(g, probe, ord, sLo, sHi, sIdx, cyc, func(p Pos) bool {
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
// walks, in the style of TestFrameAlgebraAllocs.
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
	tb.Remove(probe, Pos{}, 1) // no-op if unplaced; probe may be on the table
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
	if a := testing.AllocsPerRun(100, func() {
		p := Pos{Step: 3, Index: 7}
		if tb.CanPlace(g, probe, p, 1) {
			if err := tb.Place(g, probe, p, 1); err != nil {
				t.Fatal(err)
			}
			tb.Remove(probe, p, 1)
		}
	}); a != 0 {
		t.Errorf("Place+Remove with index maintenance allocates %.0f, want 0", a)
	}
}

// BenchmarkWindowWalk measures both scan orders over a half-occupied
// 64×256 window, the word scans against the test-only scanNaive, so an
// A/B of the walk itself is one `go test -bench WindowWalk` away.
func BenchmarkWindowWalk(b *testing.B) {
	g := dfg.New("bench")
	if err := g.AddInput("a"); err != nil {
		b.Fatal(err)
	}
	const cs, max = 64, 256
	tb := NewTable("*", cs, max)
	r := rand.New(rand.NewSource(7))
	for i := 0; ; i++ {
		id, err := g.AddOp(fmt.Sprintf("n%d", i), op.Mul, "a", "a")
		if err != nil {
			b.Fatal(err)
		}
		placedAny := false
		for tries := 0; tries < 4; tries++ {
			p := Pos{Step: 1 + r.Intn(cs), Index: 1 + r.Intn(max)}
			if tb.CanPlace(g, id, p, 1) {
				if err := tb.Place(g, id, p, 1); err != nil {
					b.Fatal(err)
				}
				placedAny = true
				break
			}
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
				tb.scanNaive(g, probe, bench.ord, 1, cs, max, 1, func(Pos) bool {
					n++
					return true
				})
			}
		})
	}
}
