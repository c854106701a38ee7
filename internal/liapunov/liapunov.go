// Package liapunov implements the energy functions that guide MFS and
// MFSA (§2.4, §3.1, §4.1). A Liapunov function assigns every grid
// position a scalar energy; the schedulers always move an operation to
// the empty move-frame position of least energy, so the system's total
// energy decreases monotonically toward the (dummy) equilibrium point at
// the origin — the convergence argument of Liapunov's stability theorem.
package liapunov

import (
	"fmt"

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
