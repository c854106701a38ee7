// Package liapunov implements the energy functions that guide MFS and
// MFSA (§2.4, §3.1, §4.1). A Liapunov function assigns every grid
// position a scalar energy; the schedulers always move an operation to
// the empty move-frame position of least energy, so the system's total
// energy decreases monotonically toward the (dummy) equilibrium point at
// the origin — the convergence argument of Liapunov's stability theorem.
package liapunov

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Func evaluates the energy contribution of placing one operation at a
// grid position. Lower is better; the schedulers pick the minimum over
// the move frame.
type Func interface {
	// Value returns the energy of position p. It must be positive for all
	// on-grid positions (theorem property 1) and strictly increasing in
	// each coordinate so that moves toward the origin decrease it
	// (property 2); it is zero only at the off-grid equilibrium (0,0)
	// (property 3) and unbounded with ‖X‖ (property 4).
	Value(p grid.Pos) float64
	Name() string
}

// Ordered is a Func that can prove one of the two canonical grid scan
// orders visits positions in non-decreasing energy (with the (step,
// index) tie-break the schedulers use). MFS requires it: it asks
// GridOrder once per placement table, walks the move frame's free cells
// in that order and commits the first legal one — no slice, no sort —
// which is exactly the minimum of a sort by (energy, step, index). There
// is no generic path: a function that withdraws its order for some
// table fails the run with an error. Implementations must be
// conservative: return ok only when the order is provably strict for
// every position on the given grid.
type Ordered interface {
	Func
	// GridOrder reports the scan order under which this function is
	// non-decreasing over a cs × max grid, and whether that claim holds
	// for these bounds.
	GridOrder(cs, max int) (grid.Order, bool)
}

// TimeConstrained is §3.1's scheduling function V = x + n·y, with
// n = max_j{max_j} strictly larger than any FU index. It makes every
// position in control step t cheaper than any position in step t+1, so
// no control step is wasted under a time constraint.
type TimeConstrained struct {
	// N must exceed the largest FU-instance index in use (the paper sets
	// it to the maximum of the per-type max_j bounds).
	N int
}

func (f TimeConstrained) Value(p grid.Pos) float64 {
	return float64(p.Index) + float64(f.N)*float64(p.Step)
}

func (f TimeConstrained) Name() string { return fmt.Sprintf("time-constrained(n=%d)", f.N) }

// GridOrder: with N > max, V = i + N·s is strictly increasing in
// row-major (step, then index) order — two positions in the same step
// differ by their index, and any step increase adds N, more than the
// largest possible index decrease. With N ≤ max the function is not
// even injective on the grid, so the order is withdrawn.
func (f TimeConstrained) GridOrder(cs, max int) (grid.Order, bool) {
	return grid.RowMajor, f.N > max
}

// ResourceConstrained is §3.1's dual V = cs·x + y: a position in control
// step t+1 on an existing FU is cheaper than opening a new FU in step t,
// minimizing hardware under a resource constraint.
type ResourceConstrained struct {
	// CS must exceed the total number of control steps in use.
	CS int
}

func (f ResourceConstrained) Value(p grid.Pos) float64 {
	return float64(f.CS)*float64(p.Index) + float64(p.Step)
}

func (f ResourceConstrained) Name() string { return fmt.Sprintf("resource-constrained(cs=%d)", f.CS) }

// GridOrder: with CS > cs, V = CS·i + s is strictly increasing in
// column-major (index, then step) order, by the mirror of the
// TimeConstrained argument. Self-validating against the concrete grid,
// so a run with an undersized CS fails with an error instead of
// silently misordering.
func (f ResourceConstrained) GridOrder(cs, max int) (grid.Order, bool) {
	return grid.ColMajor, f.CS > cs
}

// DominanceConstant returns §4.1's constant C for MFSA's composite
// function: C must exceed [f^ALU_max + f^MUX_max + f^REG_max] −
// [f^ALU_min + f^MUX_min + f^REG_min] (the minima are all zero), so the
// time term C·y dominates and control step t is still preferred over t+1
// whenever possible.
func DominanceConstant(maxALU, maxMux, maxReg float64) float64 {
	return maxALU + maxMux + maxReg + 1
}

// TimeDominates reports whether the time term of MFSA's weighted
// function V = w_T·C·y + w_A·f^ALU + w_M·f^MUX + w_R·f^REG strictly
// dominates over control steps 1..cs, as MFSA evaluates V in float64:
// every candidate at step y then scores strictly below every candidate
// at a later step, so the search may stop at the first step that has
// one. w is (w_T, w_A, w_M, w_R); C is DominanceConstant(maxALU, maxMux,
// maxReg), the same float MFSA scales y by; the hardware terms lie in
// [0, max] up to rounding; and muxScale bounds the two-port mux areas
// f^MUX is the difference of.
//
// It holds when every weight is ≥ 0 and the gap w_T·C − H, with
// H = w_A·maxALU + w_M·maxMux + w_R·maxReg, exceeds 2^-40·S plus the
// smallest normal float, where S = w_T·C·(cs+1) + H + w_M·muxScale
// bounds every magnitude the evaluation touches, and S is at most half
// the largest float. In exact arithmetic a gap > 0 suffices. Rounding
// is monotone and every term is ≥ 0, so a later candidate scores at
// least its rounded time term, and an earlier one at most its real
// value plus: 6u of it (u = 2^-53; two products and three sums), the
// f^MUX excess its own sums and difference can round into (under
// 6u·w_M·(maxMux + muxScale)), and 2^-1075 per product that underflows.
// Between the two that is under 20u·S + 2^-1070, far below the
// 2^-40·S + 2^-1022 required; the slack also absorbs the rounding of
// the check itself. Overflow fails it: an infinite or NaN weight,
// C·(cs+1) or S leaves a comparison false, and S ≤ MaxFloat64/2 keeps
// every V finite.
func TimeDominates(w [4]float64, maxALU, maxMux, maxReg, muxScale float64, cs int) bool {
	for _, x := range w {
		if !(x >= 0) {
			return false
		}
	}
	c := DominanceConstant(maxALU, maxMux, maxReg)
	h := w[1]*maxALU + w[2]*maxMux + w[3]*maxReg
	s := w[0]*(c*float64(cs+1)) + h + w[2]*muxScale
	return s <= math.MaxFloat64/2 && w[0]*c-h > 0x1p-40*s+0x1p-1022
}

// CheckProperties verifies the theorem's usable properties of f over the
// finite cs × max grid: strict positivity everywhere on the grid, zero at
// the equilibrium origin, and strict decrease when moving up or left
// (which implies trajectories toward the origin decrease monotonically).
// Schedulers' tests call it to certify a Func before trusting it.
func CheckProperties(f Func, cs, max int) error {
	if v := f.Value(grid.Pos{Step: 0, Index: 0}); v != 0 {
		return fmt.Errorf("liapunov %s: V(equilibrium) = %v, want 0", f.Name(), v)
	}
	for s := 1; s <= cs; s++ {
		for i := 1; i <= max; i++ {
			p := grid.Pos{Step: s, Index: i}
			v := f.Value(p)
			if v <= 0 {
				return fmt.Errorf("liapunov %s: V%v = %v, want > 0", f.Name(), p, v)
			}
			if s > 1 && f.Value(grid.Pos{Step: s - 1, Index: i}) >= v {
				return fmt.Errorf("liapunov %s: not decreasing upward at %v", f.Name(), p)
			}
			if i > 1 && f.Value(grid.Pos{Step: s, Index: i - 1}) >= v {
				return fmt.Errorf("liapunov %s: not decreasing leftward at %v", f.Name(), p)
			}
		}
	}
	return nil
}

// CheckTrajectory verifies property 2 along a concrete movement history:
// every move must strictly decrease the energy. The schedulers' movement
// mechanism (re-placements during local rescheduling) is validated with
// this in tests.
func CheckTrajectory(f Func, moves []grid.Pos) error {
	for i := 1; i < len(moves); i++ {
		a, b := f.Value(moves[i-1]), f.Value(moves[i])
		if b >= a {
			return fmt.Errorf("liapunov %s: move %d: V %v -> %v does not decrease",
				f.Name(), i, a, b)
		}
	}
	return nil
}
