package grid

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
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
	r := Rect{StepLo: 2, StepHi: 4, IdxLo: 1, IdxHi: 3}
	if r.Len() != 9 {
		t.Errorf("|[2..4]×[1..3]| = %d, want 9", r.Len())
	}
	if !r.Contains(Pos{2, 1}) || !r.Contains(Pos{4, 3}) || r.Contains(Pos{1, 1}) {
		t.Error("Rect membership wrong")
	}
	inverted := Rect{StepLo: 3, StepHi: 2, IdxLo: 1, IdxHi: 1}
	if !inverted.Empty() || inverted.Len() != 0 || len(inverted.Positions()) != 0 {
		t.Error("inverted Rect not empty")
	}
	// Rectangles spanning a word boundary of the tables hold every column.
	wide := Rect{StepLo: 1, StepHi: 2, IdxLo: 60, IdxHi: 70}
	if wide.Len() != 22 || !wide.Contains(Pos{1, 64}) || !wide.Contains(Pos{2, 65}) {
		t.Errorf("|[1..2]×[60..70]| = %d, want 22", wide.Len())
	}
}

// TestFrameAlgebra works MF = PF − (RF ∪ FF) through two decisions: one
// whose predecessors forbid no row of the window, and one where FF
// reaches past Lo, as only a corrupted record can have it.
func TestFrameAlgebra(t *testing.T) {
	f := Frames{Lo: 2, Hi: 3, FFTop: 1, Cur: 1, Max: 2}
	for _, c := range []struct {
		name string
		got  Rect
		want []Pos
	}{
		{"PF", f.PF(), []Pos{{2, 1}, {2, 2}, {3, 1}, {3, 2}}},
		{"RF", f.RF(), []Pos{{2, 2}, {3, 2}}},
		{"FF", f.FF(), []Pos{{1, 1}, {1, 2}}},
		{"MF", f.MF(), []Pos{{2, 1}, {3, 1}}},
	} {
		if got := c.got.Positions(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	f.FFTop = 2
	if got, want := f.MF().Positions(), []Pos{{3, 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("MF with FF past Lo = %v, want %v", got, want)
	}
}

func TestFrameAlgebraProperties(t *testing.T) {
	// Property: MF and PF ∩ (RF ∪ FF) partition PF, as A − B and A ∩ B
	// partition A.
	f := func(lo, span, ffTop, cur, max uint8) bool {
		fs := Frames{Lo: int(lo % 9), Hi: int(lo%9) + int(span%6) - 1, FFTop: int(ffTop % 9), Cur: int(cur % 7), Max: int(max % 6)}
		pf, mf := fs.PF(), fs.MF()
		excluded := 0
		for _, p := range pf.Positions() {
			switch {
			case fs.RF().Contains(p) || fs.FF().Contains(p):
				excluded++
			case !mf.Contains(p):
				return false
			}
		}
		return mf.Len()+excluded == pf.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapFrame is the historical map-of-positions frame representation;
// TestFramesMatchMapAlgebra asserts the closed forms agree with the set
// algebra computed on it.
type mapFrame map[Pos]bool

// mapRect is [stepLo..stepHi] × [idxLo..idxHi] with both lower bounds
// clamped to 1, as the bitset Rect of the frame algebra clamped them.
func mapRect(stepLo, stepHi, idxLo, idxHi int) mapFrame {
	f := make(mapFrame)
	for s := max(stepLo, 1); s <= stepHi; s++ {
		for i := max(idxLo, 1); i <= idxHi; i++ {
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

// sameSet asserts that got holds exactly want's positions, that its
// Contains agrees with want over a margin around the window, and that
// Positions lists them in row-major order.
func sameSet(t *testing.T, ctx string, got Rect, want mapFrame) {
	t.Helper()
	if got.Len() != len(want) || got.Empty() != (len(want) == 0) {
		t.Fatalf("%s: closed form has %d positions (empty %v), map has %d", ctx, got.Len(), got.Empty(), len(want))
	}
	ps := got.Positions()
	if len(ps) != len(want) {
		t.Fatalf("%s: Positions lists %d, map has %d", ctx, len(ps), len(want))
	}
	for i, p := range ps {
		if !want[p] {
			t.Fatalf("%s: closed form contains %v, map does not", ctx, p)
		}
		if i > 0 && (ps[i-1].Step > p.Step || ps[i-1].Step == p.Step && ps[i-1].Index >= p.Index) {
			t.Fatalf("%s: Positions not row-major: %v", ctx, ps)
		}
	}
	for s := -1; s <= 20; s++ {
		for i := -1; i <= 20; i++ {
			if p := (Pos{s, i}); got.Contains(p) != want[p] {
				t.Fatalf("%s: Contains(%v) = %v, map %v", ctx, p, got.Contains(p), want[p])
			}
		}
	}
}

// TestFramesMatchMapAlgebra checks each closed form against the set
// algebra on maps — PF, RF and FF as rectangles, MF = PF − (RF ∪ FF) —
// over random windows and the edge cases: empty and inverted windows,
// FFTop past Lo, Cur at or past Max, negative Cur, and the all-zero
// window MFSA steps record.
func TestFramesMatchMapAlgebra(t *testing.T) {
	cases := []Frames{
		{},                                         // an MFSA step: Lo = Hi = FFTop = 0
		{Lo: 0, Hi: 0, FFTop: 0, Cur: 2, Max: 3},   // the same with an FU estimate
		{Lo: 3, Hi: 2, FFTop: 1, Cur: 1, Max: 2},   // inverted window
		{Lo: 2, Hi: 5, FFTop: 4, Cur: 1, Max: 3},   // FF past Lo
		{Lo: 2, Hi: 5, FFTop: 9, Cur: 1, Max: 3},   // FF past Hi
		{Lo: 1, Hi: 4, FFTop: 0, Cur: 3, Max: 3},   // Cur = Max
		{Lo: 1, Hi: 4, FFTop: 0, Cur: 7, Max: 3},   // Cur > Max
		{Lo: 1, Hi: 4, FFTop: 0, Cur: -2, Max: 3},  // negative Cur
		{Lo: -3, Hi: 4, FFTop: -1, Cur: 1, Max: 3}, // bounds below 1
		{Lo: 1, Hi: 4, FFTop: 0, Cur: 1, Max: 0},   // no columns
	}
	r := rand.New(rand.NewSource(17))
	for len(cases) < 400 {
		lo := r.Intn(12) - 1
		cases = append(cases, Frames{
			Lo: lo, Hi: lo + r.Intn(10) - 2,
			FFTop: r.Intn(12) - 1,
			Cur:   r.Intn(10) - 1, Max: r.Intn(9),
		})
	}
	for _, f := range cases {
		ctx := fmt.Sprintf("%+v", f)
		pf := mapRect(f.Lo, f.Hi, 1, f.Max)
		rf := mapRect(f.Lo, f.Hi, f.Cur+1, f.Max)
		ff := mapRect(1, f.FFTop, 1, f.Max)
		sameSet(t, ctx+" PF", f.PF(), pf)
		sameSet(t, ctx+" RF", f.RF(), rf)
		sameSet(t, ctx+" FF", f.FF(), ff)
		sameSet(t, ctx+" MF", f.MF(), pf.minus(rf.union(ff)))
	}
}

// TestFrameAlgebraAllocs pins that the closed forms allocate nothing,
// whatever the frame's area; only Positions materializes, in one
// allocation.
func TestFrameAlgebraAllocs(t *testing.T) {
	f := Frames{Lo: 3, Hi: 4000, FFTop: 2, Cur: 70, Max: 130}
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		n = f.PF().Len() + f.RF().Len() + f.FF().Len() + f.MF().Len()
		if f.MF().Empty() || !f.MF().Contains(Pos{3, 70}) {
			n = -1
		}
	}); a != 0 {
		t.Errorf("closed-form frames allocate %.0f, want 0", a)
	}
	if want := 3998*130 + 3998*60 + 2*130 + 3998*70; n != want {
		t.Errorf("|PF|+|RF|+|FF|+|MF| = %d, want %d", n, want)
	}
	small := Frames{Lo: 1, Hi: 4, Cur: 2, Max: 3}
	if a := testing.AllocsPerRun(100, func() { small.MF().Positions() }); a != 1 {
		t.Errorf("Positions allocates %.0f, want 1", a)
	}
}

func TestPositionsSorted(t *testing.T) {
	got := Rect{StepLo: 1, StepHi: 2, IdxLo: 2, IdxHi: 3}.Positions()
	want := []Pos{{1, 2}, {1, 3}, {2, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Positions = %v, want row-major %v", got, want)
	}
}

// TestTableBytesPerCell pins that a table is its occupancy bits: a
// 480-step × 2925-column table, the size MFS builds for a 100k-node
// graph's multipliers, allocates at most one byte per cell. Its two bit
// mirrors take a quarter byte; dense occupant lists took 24 bytes.
func TestTableBytesPerCell(t *testing.T) {
	const cs, max = 480, 2925
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := NewTable("*", cs, max)
	runtime.ReadMemStats(&after)
	if perCell := float64(after.TotalAlloc-before.TotalAlloc) / (cs * max); perCell > 1 {
		t.Errorf("NewTable(%d, %d) allocates %.2f bytes per cell, want at most 1", cs, max, perCell)
	}
	runtime.KeepAlive(tb)
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
	if got := len(tb.shared[Pos{1, 1}]); got != 2 {
		t.Errorf("occupants = %d, want 2", got)
	}
	// z can still go next to them; untagged, it opens no occupant list.
	if err := tb.Place(g, z, Pos{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if !tb.Occupied(Pos{1, 2}) || tb.shared[Pos{1, 2}] != nil {
		t.Errorf("(t1,fu2): occupied %v, occupants %v; want occupied with no list",
			tb.Occupied(Pos{1, 2}), tb.shared[Pos{1, 2}])
	}
	// Nobody joins an untagged occupant, not even an exclusive op.
	if tb.CanPlace(g, y, Pos{1, 2}, 1) {
		t.Error("sharing with an untagged occupant allowed")
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
	if !tb.Occupied(Pos{1, 1}) || !tb.Occupied(Pos{2, 1}) || tb.Occupied(Pos{3, 1}) {
		t.Error("2-cycle footprint not recorded on exactly its two rows")
	}
	if tb.CanPlace(g, x, Pos{2, 1}, 1) {
		t.Error("overlap with 2nd cycle accepted")
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
	fs := &Frames{Lo: 1, Hi: 3, FFTop: 1, Cur: 1, Max: 2}
	out := Render(tb, fs, map[Pos]string{{2, 1}: "r*"})
	for _, want := range []string{"fu1", "fu2", "t1", "t3", "X", "M", "r*", "legend", "|PF|=6 |RF|=3 |FF|=2 |MF|=2"} {
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
	// Property: among non-exclusive ops, successful placements never
	// share a cell, and the occupancy bits count exactly their footprints.
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
		cells := 0
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
				cells += cyc
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
		set := 0
		for _, w := range tb.occRow {
			set += bits.OnesCount64(w)
		}
		if set != cells || tb.shared != nil {
			t.Fatalf("trial %d: %d occupancy bits and occupant lists %v for %d footprint cells", trial, set, tb.shared, cells)
		}
	}
}
