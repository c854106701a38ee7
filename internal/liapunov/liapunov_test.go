package liapunov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestTimeConstrainedOrdering(t *testing.T) {
	// The defining property of §3.1: the LAST FU of step t is cheaper than
	// the FIRST FU of step t+1.
	n := 7
	f := TimeConstrained{N: n}
	for step := 1; step < 10; step++ {
		last := f.Value(grid.Pos{Step: step, Index: n})
		first := f.Value(grid.Pos{Step: step + 1, Index: 1})
		if last >= first {
			t.Fatalf("step %d: V(last fu)=%v not < V(next step first fu)=%v", step, last, first)
		}
	}
}

func TestResourceConstrainedOrdering(t *testing.T) {
	// Dual property: the LAST step on FU i is cheaper than step 1 on FU i+1.
	cs := 9
	f := ResourceConstrained{CS: cs}
	for idx := 1; idx < 6; idx++ {
		last := f.Value(grid.Pos{Step: cs, Index: idx})
		next := f.Value(grid.Pos{Step: 1, Index: idx + 1})
		if last >= next {
			t.Fatalf("fu %d: V(last step)=%v not < V(new fu)=%v", idx, last, next)
		}
	}
}

func TestProperties(t *testing.T) {
	if err := CheckProperties(TimeConstrained{N: 5}, 12, 5); err != nil {
		t.Error(err)
	}
	if err := CheckProperties(ResourceConstrained{CS: 12}, 12, 5); err != nil {
		t.Error(err)
	}
}

// badFunc violates positivity at (1,1).
type badFunc struct{}

func (badFunc) Value(p grid.Pos) float64 { return float64(p.Step) - 1 }
func (badFunc) Name() string             { return "bad" }

// flatFunc is constant, violating strict decrease.
type flatFunc struct{}

func (flatFunc) Value(p grid.Pos) float64 {
	if p == (grid.Pos{}) {
		return 0
	}
	return 1
}
func (flatFunc) Name() string { return "flat" }

// offsetFunc violates V(equilibrium)=0.
type offsetFunc struct{}

func (offsetFunc) Value(p grid.Pos) float64 { return 1 + float64(p.Step+p.Index) }
func (offsetFunc) Name() string             { return "offset" }

func TestCheckPropertiesRejects(t *testing.T) {
	if err := CheckProperties(badFunc{}, 3, 3); err == nil {
		t.Error("non-positive function accepted")
	}
	if err := CheckProperties(flatFunc{}, 3, 3); err == nil {
		t.Error("flat function accepted")
	}
	if err := CheckProperties(offsetFunc{}, 3, 3); err == nil {
		t.Error("offset function accepted")
	}
}

func TestTrajectory(t *testing.T) {
	f := TimeConstrained{N: 4}
	good := []grid.Pos{
		{Step: 6, Index: 4}, {Step: 6, Index: 2}, {Step: 5, Index: 3}, {Step: 3, Index: 1},
	}
	if err := CheckTrajectory(f, good); err != nil {
		t.Errorf("monotone trajectory rejected: %v", err)
	}
	bad := []grid.Pos{{Step: 3, Index: 1}, {Step: 3, Index: 1}}
	if err := CheckTrajectory(f, bad); err == nil {
		t.Error("stationary move accepted")
	}
	up := []grid.Pos{{Step: 3, Index: 1}, {Step: 4, Index: 1}}
	if err := CheckTrajectory(f, up); err == nil {
		t.Error("energy-increasing move accepted")
	}
	if err := CheckTrajectory(f, nil); err != nil {
		t.Errorf("empty trajectory rejected: %v", err)
	}
}

func TestMovePropertyQuick(t *testing.T) {
	// Property (2) of the theorem: x' < x and y' < y implies V' < V, for
	// both static functions.
	fT := TimeConstrained{N: 10}
	fR := ResourceConstrained{CS: 20}
	prop := func(x, y, dx, dy uint8) bool {
		p := grid.Pos{Step: int(y%20) + 2, Index: int(x%10) + 2}
		q := grid.Pos{Step: p.Step - int(dy%uint8(p.Step-1)) - 1, Index: p.Index - int(dx%uint8(p.Index-1)) - 1}
		return fT.Value(q) < fT.Value(p) && fR.Value(q) < fR.Value(p)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestGridOrder certifies the Ordered capability: where GridOrder
// reports ok, the claimed scan order must visit every grid position in
// strictly increasing energy; where the parameter constraint fails, the
// capability must be withdrawn.
func TestGridOrder(t *testing.T) {
	scan := func(cs, max int, ord grid.Order) []grid.Pos {
		ps := make([]grid.Pos, 0, cs*max)
		if ord == grid.RowMajor {
			for s := 1; s <= cs; s++ {
				for i := 1; i <= max; i++ {
					ps = append(ps, grid.Pos{Step: s, Index: i})
				}
			}
		} else {
			for i := 1; i <= max; i++ {
				for s := 1; s <= cs; s++ {
					ps = append(ps, grid.Pos{Step: s, Index: i})
				}
			}
		}
		return ps
	}
	cases := []struct {
		f       Ordered
		cs, max int
		wantOrd grid.Order
		wantOK  bool
	}{
		{TimeConstrained{N: 6}, 10, 5, grid.RowMajor, true},
		{TimeConstrained{N: 5}, 10, 5, grid.RowMajor, false}, // N not > max
		{ResourceConstrained{CS: 11}, 10, 5, grid.ColMajor, true},
		{ResourceConstrained{CS: 10}, 10, 5, grid.ColMajor, false}, // CS not > cs
	}
	for _, c := range cases {
		ord, ok := c.f.GridOrder(c.cs, c.max)
		if ord != c.wantOrd || ok != c.wantOK {
			t.Errorf("%s.GridOrder(%d,%d) = (%v,%v), want (%v,%v)",
				c.f.Name(), c.cs, c.max, ord, ok, c.wantOrd, c.wantOK)
		}
		if !ok {
			continue
		}
		ps := scan(c.cs, c.max, ord)
		for i := 1; i < len(ps); i++ {
			if c.f.Value(ps[i-1]) >= c.f.Value(ps[i]) {
				t.Fatalf("%s: scan order not strictly increasing at %v -> %v",
					c.f.Name(), ps[i-1], ps[i])
			}
		}
	}
	// Static functions implement the capability.
	var _ Ordered = TimeConstrained{}
	var _ Ordered = ResourceConstrained{}
}

func TestDominanceConstant(t *testing.T) {
	c := DominanceConstant(16000, 300, 1400)
	// The §4.1 inequality: C·(y+1) + mins > C·y + maxes, i.e. C > sum of
	// maxima (minima are zero).
	if !(c > 16000+300+1400) {
		t.Errorf("C = %v too small", c)
	}
	// Time dominance in action: step t with all worst-case hardware beats
	// step t+1 with free hardware.
	y := 3.0
	worst := c*y + 16000 + 300 + 1400
	nextFree := c * (y + 1)
	if !(worst < nextFree) {
		t.Errorf("time dominance broken: %v >= %v", worst, nextFree)
	}
}

// TestTimeDominatesEdges pins the predicate's verdict at its edges. The
// margin is relative to the largest magnitude the evaluation touches, so
// a gap that is ample for a hundred steps fails for an astronomically
// long schedule.
func TestTimeDominatesEdges(t *testing.T) {
	one := [4]float64{1, 1, 1, 1}
	cases := []struct {
		name string
		w    [4]float64
		cs   int
		want bool
	}{
		{"balanced", one, 100, true},
		{"cs-beyond-margin", one, 1 << 50, false},
		{"nan-weight", [4]float64{1, math.NaN(), 1, 1}, 100, false},
		{"inf-weight", [4]float64{math.Inf(1), 1, 1, 1}, 100, false},
		{"overflowing-product", [4]float64{math.MaxFloat64, 1, 1, 1}, 100, false},
		{"overflowing-hardware", [4]float64{1, math.MaxFloat64, math.MaxFloat64, 1}, 100, false},
		{"negative", [4]float64{1, 1, -1, 1}, 100, false},
		{"negative-zero", [4]float64{1, math.Copysign(0, -1), 1, 1}, 100, true},
		{"alu-outweighs-time", [4]float64{1, 1.01, 1, 1}, 100, false},
		{"time-only", [4]float64{1, 0, 0, 0}, 100, true},
		{"no-time", [4]float64{0, 1, 1, 1}, 100, false},
		{"all-zero", [4]float64{0, 0, 0, 0}, 100, false},
		{"subnormal-time", [4]float64{0x1p-1070, 0, 0, 0}, 100, false},
	}
	for _, tc := range cases {
		if got := TimeDominates(tc.w, 100, 20, 16, 1e4*20, tc.cs); got != tc.want {
			t.Errorf("%s: TimeDominates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTimeDominatesOrdersSteps checks the predicate's promise on random
// weights and caps: whenever it holds, the dearest candidate of step y,
// evaluated as MFSA evaluates V, scores below the cheapest of step y+1.
func TestTimeDominatesOrdersSteps(t *testing.T) {
	prop := func(wt, wa, wm, wr, a, m, r uint16, cs uint8) bool {
		w := [4]float64{float64(wt) / 64, float64(wa) / 4096, float64(wm) / 4096, float64(wr) / 4096}
		maxALU, maxMux, maxReg := float64(a)+1, float64(m)/8+1, float64(r)/8+1
		steps := int(cs) + 2
		if !TimeDominates(w, maxALU, maxMux, maxReg, 64*maxMux, steps) {
			return true
		}
		c := DominanceConstant(maxALU, maxMux, maxReg)
		for y := 1; y < steps; y++ {
			dearest := w[0]*(c*float64(y)) + w[1]*maxALU + w[2]*maxMux + w[3]*maxReg
			cheapest := w[0]*(c*float64(y+1)) + w[1]*0 + w[2]*0 + w[3]*0
			if dearest >= cheapest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
