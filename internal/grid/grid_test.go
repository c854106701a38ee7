package grid

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/op"
)

func testGraph(t *testing.T) (*dfg.Graph, dfg.NodeID, dfg.NodeID, dfg.NodeID) {
	t.Helper()
	g := dfg.New("g")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, _ := g.AddOp("x", op.Add, "a", "a")
	y, _ := g.AddOp("y", op.Sub, "a", "a")
	z, _ := g.AddOp("z", op.Mul, "a", "a")
	g.Tag(x, dfg.CondTag{Cond: 1, Branch: 0})
	g.Tag(y, dfg.CondTag{Cond: 1, Branch: 1})
	return g, x, y, z
}

func TestRect(t *testing.T) {
	f := Rect(2, 4, 1, 3)
	if f.Len() != 9 {
		t.Errorf("|Rect(2,4,1,3)| = %d, want 9", f.Len())
	}
	if !f.Contains(Pos{2, 1}) || !f.Contains(Pos{4, 3}) || f.Contains(Pos{1, 1}) {
		t.Error("Rect membership wrong")
	}
	if !Rect(3, 2, 1, 1).Empty() {
		t.Error("inverted Rect not empty")
	}
	// Rectangles spanning a word boundary fill every column.
	wide := Rect(1, 2, 60, 70)
	if wide.Len() != 22 || !wide.Contains(Pos{1, 64}) || !wide.Contains(Pos{2, 65}) {
		t.Errorf("|Rect(1,2,60,70)| = %d, want 22", wide.Len())
	}
}

func TestFrameAlgebra(t *testing.T) {
	a := Rect(1, 2, 1, 2) // 4 cells
	b := Rect(2, 3, 1, 2) // 4 cells, 2 shared
	u := a.Union(b)
	if u.Len() != 6 {
		t.Errorf("|a∪b| = %d, want 6", u.Len())
	}
	m := a.Minus(b)
	if m.Len() != 2 || !m.Contains(Pos{1, 1}) || !m.Contains(Pos{1, 2}) {
		t.Errorf("a−b = %v", m.Positions())
	}
	// MF = PF − (RF ∪ FF) as in the paper.
	mf := a.Minus(b.Union(Rect(1, 1, 1, 1)))
	if mf.Len() != 1 || !mf.Contains(Pos{1, 2}) {
		t.Errorf("MF = %v", mf.Positions())
	}
}

func TestFrameAlgebraProperties(t *testing.T) {
	// Property: for random rectangles, |A−B| + |A∩B| == |A| where
	// A∩B = A − (A−B).
	f := func(a1, a2, b1, b2 uint8) bool {
		A := Rect(int(a1%5)+1, int(a1%5)+1+int(a2%4), 1, 3)
		B := Rect(int(b1%5)+1, int(b1%5)+1+int(b2%4), 2, 4)
		diff := A.Minus(B)
		inter := A.Minus(diff)
		return diff.Len()+inter.Len() == A.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapFrame is the historical map-of-positions frame representation; the
// property tests below assert the bitset algebra agrees with it exactly.
type mapFrame map[Pos]bool

func mapRect(stepLo, stepHi, idxLo, idxHi int) mapFrame {
	f := make(mapFrame)
	for s := stepLo; s <= stepHi; s++ {
		for i := idxLo; i <= idxHi; i++ {
			f[Pos{s, i}] = true
		}
	}
	return f
}

func (f mapFrame) union(o mapFrame) mapFrame {
	out := make(mapFrame, len(f)+len(o))
	for p := range f {
		out[p] = true
	}
	for p := range o {
		out[p] = true
	}
	return out
}

func (f mapFrame) minus(o mapFrame) mapFrame {
	out := make(mapFrame, len(f))
	for p := range f {
		if !o[p] {
			out[p] = true
		}
	}
	return out
}

func sameSet(t *testing.T, ctx string, got Frame, want mapFrame) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: bitset has %d positions, map has %d", ctx, got.Len(), len(want))
	}
	for _, p := range got.Positions() {
		if !want[p] {
			t.Fatalf("%s: bitset contains %v, map does not", ctx, p)
		}
	}
}

// TestBitsetMatchesMapSemantics drives the bitset Union/Minus/Positions
// through random rectangles (including word-boundary widths) and checks
// every result against the map-of-positions reference semantics.
func TestBitsetMatchesMapSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	randRect := func() (Frame, mapFrame) {
		sLo, iLo := 1+r.Intn(8), 1+r.Intn(70)
		sHi, iHi := sLo+r.Intn(8)-2, iLo+r.Intn(70)-2 // sometimes inverted → empty
		return Rect(sLo, sHi, iLo, iHi), mapRect(sLo, sHi, iLo, iHi)
	}
	for trial := 0; trial < 200; trial++ {
		a, ma := randRect()
		b, mb := randRect()
		c, mc := randRect()
		sameSet(t, "rect", a, ma)
		sameSet(t, "union", a.Union(b), ma.union(mb))
		sameSet(t, "minus", a.Minus(b), ma.minus(mb))
		sameSet(t, "mf", a.Minus(b.Union(c)), ma.minus(mb.union(mc)))
		// Positions must come out sorted by (step, index).
		ps := a.Minus(b).Positions()
		for i := 1; i < len(ps); i++ {
			x, y := ps[i-1], ps[i]
			if x.Step > y.Step || (x.Step == y.Step && x.Index >= y.Index) {
				t.Fatalf("Positions not sorted: %v", ps)
			}
		}
	}
}

// TestFrameAlgebraAllocs pins the zero-allocation property of the bitset
// algebra: each operation allocates O(1) — a single backing array for
// the result — regardless of the frame's area, and iteration allocates
// nothing at all.
func TestFrameAlgebraAllocs(t *testing.T) {
	for _, dim := range []struct{ cs, max int }{{4, 3}, {32, 16}, {128, 130}} {
		cs, max := dim.cs, dim.max
		var pf, rf, ff, mf Frame
		if a := testing.AllocsPerRun(100, func() {
			pf = Rect(1, cs, 1, max)
			rf = Rect(1, cs, max/2+1, max)
			ff = Rect(1, cs/2, 1, max)
		}); a > 3 {
			t.Errorf("%dx%d: Rect×3 allocates %.0f, want <= 3", cs, max, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			mf = pf.Minus(rf.Union(ff))
		}); a > 2 {
			t.Errorf("%dx%d: Union+Minus allocates %.0f, want <= 2", cs, max, a)
		}
		n := 0
		if a := testing.AllocsPerRun(100, func() {
			n = 0
			mf.Scan(func(Pos) bool { n++; return true })
		}); a != 0 {
			t.Errorf("%dx%d: Scan allocates %.0f, want 0", cs, max, a)
		}
		if want := cs*max - cs*(max-max/2) - (cs/2)*(max/2); n != want {
			t.Errorf("%dx%d: |MF| = %d, want %d", cs, max, n, want)
		}
	}
}

func TestFrameAddAndEqual(t *testing.T) {
	var f Frame
	f.Add(Pos{2, 3})
	f.Add(Pos{2, 3}) // idempotent
	f.Add(Pos{5, 70})
	f.Add(Pos{0, 1}) // below the grid: ignored
	if f.Len() != 2 || !f.Contains(Pos{2, 3}) || !f.Contains(Pos{5, 70}) {
		t.Fatalf("Add produced %v", f.Positions())
	}
	g := Rect(2, 2, 3, 3)
	g.Add(Pos{5, 70})
	if !f.Equal(g) || !g.Equal(f) {
		t.Error("Equal false for equal sets with different boxes")
	}
	g.Add(Pos{1, 1})
	if f.Equal(g) {
		t.Error("Equal true for different sets")
	}
	if !Rect(1, 0, 1, 1).Equal(Frame{}) {
		t.Error("empty frames not equal")
	}
}

func TestPositionsSorted(t *testing.T) {
	var f Frame
	for _, p := range []Pos{{3, 1}, {1, 2}, {1, 1}, {2, 5}} {
		f.Add(p)
	}
	ps := f.Positions()
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if a.Step > b.Step || (a.Step == b.Step && a.Index >= b.Index) {
			t.Fatalf("Positions not sorted: %v", ps)
		}
	}
}

func TestScanOrders(t *testing.T) {
	f := Rect(1, 2, 1, 2)
	var row []Pos
	f.Scan(func(p Pos) bool { row = append(row, p); return true })
	wantRow := []Pos{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	if !reflect.DeepEqual(row, wantRow) {
		t.Fatalf("Scan order = %v, want %v", row, wantRow)
	}
	// Early stop.
	seen := 0
	if f.Scan(func(Pos) bool { seen++; return false }) {
		t.Error("Scan did not report the early stop")
	}
	if seen != 1 {
		t.Errorf("Scan visited %d after stop, want 1", seen)
	}
}

func TestPlaceAndConflict(t *testing.T) {
	g, x, y, z := testGraph(t)
	tb := NewTable("+", 4, 3)
	if err := tb.Place(g, x, Pos{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	// z (not exclusive with x) cannot share the cell.
	if tb.CanPlace(g, z, Pos{1, 1}, 1) {
		t.Error("non-exclusive sharing allowed")
	}
	// y (exclusive with x) can.
	if !tb.CanPlace(g, y, Pos{1, 1}, 1) {
		t.Error("exclusive sharing refused")
	}
	if err := tb.Place(g, y, Pos{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.At(Pos{1, 1})); got != 2 {
		t.Errorf("occupants = %d, want 2", got)
	}
	// z can still go next to them.
	if err := tb.Place(g, z, Pos{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.At(Pos{1, 2})); got != 1 {
		t.Errorf("occupants of (t1,fu2) = %d, want 1", got)
	}
}

func TestPlaceBounds(t *testing.T) {
	g, x, _, _ := testGraph(t)
	tb := NewTable("+", 3, 2)
	for _, p := range []Pos{{0, 1}, {1, 0}, {4, 1}, {1, 3}} {
		if tb.CanPlace(g, x, p, 1) {
			t.Errorf("CanPlace(%v) out of bounds accepted", p)
		}
	}
	// Multicycle op spilling past CS.
	if tb.CanPlace(g, x, Pos{3, 1}, 2) {
		t.Error("multicycle spill accepted")
	}
	if !tb.CanPlace(g, x, Pos{2, 1}, 2) {
		t.Error("fitting multicycle refused")
	}
	if err := tb.Place(g, x, Pos{4, 1}, 1); err == nil {
		t.Error("Place out of bounds accepted")
	}
}

func TestMulticycleFootprint(t *testing.T) {
	g, x, _, z := testGraph(t)
	tb := NewTable("*", 4, 2)
	if err := tb.Place(g, z, Pos{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if len(tb.At(Pos{1, 1})) != 1 || len(tb.At(Pos{2, 1})) != 1 {
		t.Error("2-cycle footprint not recorded on both rows")
	}
	if tb.CanPlace(g, x, Pos{2, 1}, 1) {
		t.Error("overlap with 2nd cycle accepted")
	}
	tb.Remove(z, Pos{1, 1}, 2)
	if len(tb.At(Pos{1, 1})) != 0 || len(tb.At(Pos{2, 1})) != 0 {
		t.Error("Remove left footprint behind")
	}
	if !empty(tb) {
		t.Error("occupancy index not empty after Remove")
	}
}

func TestPipelinedFootprint(t *testing.T) {
	g, x, _, z := testGraph(t)
	tb := NewTable("*", 4, 1)
	tb.Pipelined = true
	if err := tb.Place(g, z, Pos{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	// Stage frees next cycle: x can start at step 2 on the same unit.
	if !tb.CanPlace(g, x, Pos{2, 1}, 2) {
		t.Error("pipelined overlap refused")
	}
	if tb.CanPlace(g, x, Pos{1, 1}, 2) {
		t.Error("same-start pipelined conflict accepted")
	}
	// Even on a pipelined unit the op must complete within the schedule.
	if tb.CanPlace(g, x, Pos{4, 1}, 2) {
		t.Error("pipelined op spilling past cs accepted")
	}
	if !tb.CanPlace(g, x, Pos{3, 1}, 2) {
		t.Error("pipelined op finishing at cs refused")
	}
}

func TestLatencyFolding(t *testing.T) {
	g, x, _, z := testGraph(t)
	tb := NewTable("+", 4, 1)
	tb.Latency = 2
	if err := tb.Place(g, z, Pos{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Step 3 folds onto step 1 (mod 2): conflict.
	if tb.CanPlace(g, x, Pos{3, 1}, 1) {
		t.Error("modular conflict accepted")
	}
	if !tb.CanPlace(g, x, Pos{2, 1}, 1) {
		t.Error("non-conflicting fold refused")
	}
}

func TestRender(t *testing.T) {
	g, x, _, z := testGraph(t)
	tb := NewTable("+", 3, 2)
	tb.Place(g, x, Pos{1, 1}, 1)
	fs := &FrameSet{
		PF: Rect(1, 3, 1, 2),
		RF: Rect(1, 3, 2, 2),
		FF: Rect(1, 1, 1, 2),
		MF: Rect(2, 3, 1, 1),
	}
	out := Render(tb, fs, map[Pos]string{{2, 1}: "r*"})
	for _, want := range []string{"fu1", "fu2", "t1", "t3", "X", "M", "r*", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	// Without frames or labels it still renders.
	plain := Render(tb, nil, nil)
	if !strings.Contains(plain, "X") || strings.Contains(plain, "legend") {
		t.Errorf("plain Render wrong:\n%s", plain)
	}
	_ = z
}

func TestPlaceRemoveInvariants(t *testing.T) {
	// Property: any sequence of successful placements followed by their
	// removals leaves the table empty; occupancy never exceeds one op
	// per cell among non-exclusive ops.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		g := dfg.New("pr")
		g.AddInput("a")
		type placed struct {
			id     dfg.NodeID
			p      Pos
			cycles int
		}
		tb := NewTable("*", 6, 3)
		var live []placed
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("n%d", i)
			id, err := g.AddOp(name, op.Mul, "a", "a")
			if err != nil {
				t.Fatal(err)
			}
			cyc := 1 + r.Intn(2)
			g.SetCycles(id, cyc)
			p := Pos{Step: 1 + r.Intn(6), Index: 1 + r.Intn(3)}
			if tb.CanPlace(g, id, p, cyc) {
				if err := tb.Place(g, id, p, cyc); err != nil {
					t.Fatalf("trial %d: CanPlace true but Place failed: %v", trial, err)
				}
				live = append(live, placed{id, p, cyc})
			}
		}
		// No two live ops overlap (none are exclusive).
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.p.Index != b.p.Index {
					continue
				}
				for ra := 0; ra < a.cycles; ra++ {
					for rb := 0; rb < b.cycles; rb++ {
						if a.p.Step+ra == b.p.Step+rb {
							t.Fatalf("trial %d: overlap at %v", trial, a.p)
						}
					}
				}
			}
		}
		for _, pl := range live {
			tb.Remove(pl.id, pl.p, pl.cycles)
		}
		if !empty(tb) {
			t.Fatalf("trial %d: table not empty after removals", trial)
		}
	}
}

// empty reports whether no cell of tb is occupied, read off the
// row-major occupancy bitset (checkIndex pins that it mirrors the cells).
func empty(tb *Table) bool {
	for _, w := range tb.occRow {
		if w != 0 {
			return false
		}
	}
	return true
}
