// Package library models the cell library an allocator works against: the
// functional-unit (ALU) cells available, their capabilities and silicon
// areas, the area of a register, and the area of an r-input multiplexer.
//
// The paper evaluates against the proprietary NCR ASIC data book [21];
// NCRLike constructs a synthetic stand-in that preserves the relative cost
// structure MFSA's decisions depend on: a multi-function ALU is cheaper
// than the sum of its single-function parts but dearer than any one of
// them, and multiplexer area grows concavely (sub-linearly) with input
// count, exactly the non-linearity §4.1 calls out.
package library

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/op"
)

// Unit describes one functional-unit cell: the set of operations it can
// perform, its area, and its pipeline depth.
type Unit struct {
	Name string

	// Ops is the unit's capability set (sorted, no duplicates). A unit with
	// more than one op is a multi-function ALU in the paper's sense.
	Ops []op.Kind

	// Area is the cell's silicon area in µm².
	Area float64

	// Stages is the pipeline depth: 1 for a combinational or multi-cycle
	// (non-pipelined) unit; >1 for a structurally pipelined unit whose
	// stages can serve different operations in consecutive control steps
	// (§5.5.1).
	Stages int
}

// Can reports whether the unit can perform operation k.
func (u *Unit) Can(k op.Kind) bool {
	for _, o := range u.Ops {
		if o == k {
			return true
		}
	}
	return false
}

// Multifunction reports whether the unit performs more than one kind.
func (u *Unit) Multifunction() bool { return len(u.Ops) > 1 }

// Pipelined reports whether the unit has more than one pipeline stage.
func (u *Unit) Pipelined() bool { return u.Stages > 1 }

// Symbol renders the capability set in the paper's notation, e.g. "(+-)"
// for an add/sub ALU, with a leading "p" for a pipelined unit: "p(*)".
func (u *Unit) Symbol() string {
	var b strings.Builder
	if u.Pipelined() {
		b.WriteByte('p')
	}
	b.WriteByte('(')
	for _, o := range u.Ops {
		b.WriteString(o.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (u *Unit) String() string { return u.Symbol() }

func (u *Unit) validate() error {
	if u.Name == "" {
		return fmt.Errorf("library: unit with empty name")
	}
	if len(u.Ops) == 0 {
		return fmt.Errorf("library: unit %s: empty capability set", u.Name)
	}
	seen := make(map[op.Kind]bool)
	for _, o := range u.Ops {
		if !o.Valid() {
			return fmt.Errorf("library: unit %s: invalid op", u.Name)
		}
		if seen[o] {
			return fmt.Errorf("library: unit %s: duplicate op %v", u.Name, o)
		}
		seen[o] = true
	}
	if u.Area <= 0 {
		return fmt.Errorf("library: unit %s: area %v", u.Name, u.Area)
	}
	if u.Stages < 1 {
		return fmt.Errorf("library: unit %s: stages %d", u.Name, u.Stages)
	}
	return nil
}

// Library is a set of functional-unit cells plus register and multiplexer
// cost models.
type Library struct {
	Name string

	// RegArea is the area of one register in µm².
	RegArea float64

	// MuxBase is the area of a 2-input multiplexer; MuxStep and MuxCurve
	// shape the concave growth of MuxArea with input count.
	MuxBase, MuxStep, MuxCurve float64

	units []*Unit
}

// New returns an empty library with the given cost parameters.
func New(name string, regArea, muxBase, muxStep, muxCurve float64) *Library {
	return &Library{Name: name, RegArea: regArea, MuxBase: muxBase, MuxStep: muxStep, MuxCurve: muxCurve}
}

// Add registers a unit cell after validating it. Unit names are unique.
func (l *Library) Add(u *Unit) error {
	if err := u.validate(); err != nil {
		return err
	}
	i, dup := l.find(u.Name)
	if dup {
		return fmt.Errorf("library %s: duplicate unit %s", l.Name, u.Name)
	}
	u.Ops = slices.Clone(u.Ops)
	slices.Sort(u.Ops)
	l.units = slices.Insert(l.units, i, u)
	return nil
}

// find returns the position of the unit named name in the name-sorted
// unit list, or where it would be inserted, and whether it is there.
func (l *Library) find(name string) (int, bool) {
	return slices.BinarySearchFunc(l.units, name, func(u *Unit, name string) int {
		return strings.Compare(u.Name, name)
	})
}

// Units returns every unit in name order. The slice must not be modified.
func (l *Library) Units() []*Unit { return l.units }

// UnitsFor returns every unit capable of performing k, in name order.
func (l *Library) UnitsFor(k op.Kind) []*Unit {
	var out []*Unit
	for _, u := range l.units {
		if u.Can(k) {
			out = append(out, u)
		}
	}
	return out
}

// Single returns the cheapest non-pipelined unit capable of k, or nil if
// the library has none. Pure-scheduling mode (MFS) treats every operation
// type as implemented by such a unit.
func (l *Library) Single(k op.Kind) *Unit {
	var best *Unit
	for _, u := range l.units {
		if !u.Can(k) || u.Pipelined() {
			continue
		}
		if best == nil || u.Area < best.Area {
			best = u
		}
	}
	return best
}

// Lookup returns the unit with the given name, if present.
func (l *Library) Lookup(name string) (*Unit, bool) {
	if i, ok := l.find(name); ok {
		return l.units[i], true
	}
	return nil, false
}

// Restrict returns a sub-library containing only the named units; the
// paper notes the user's cell library "may be restricted to some specific
// types" before running MFSA.
func (l *Library) Restrict(names ...string) (*Library, error) {
	sub := New(l.Name+"/restricted", l.RegArea, l.MuxBase, l.MuxStep, l.MuxCurve)
	for _, name := range names {
		u, ok := l.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("library %s: no unit %s", l.Name, name)
		}
		c := *u // Add writes its unit, and l's units may be shared
		if err := sub.Add(&c); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// clone returns a deep copy of l: its units and their op lists are new,
// allocated together.
func (l *Library) clone() *Library {
	c := *l
	n := 0
	for _, u := range l.units {
		n += len(u.Ops)
	}
	c.units = make([]*Unit, len(l.units))
	cells := make([]Unit, len(l.units))
	ops := make([]op.Kind, 0, n)
	for i, u := range l.units {
		cells[i] = *u
		start := len(ops)
		ops = append(ops, u.Ops...)
		cells[i].Ops = ops[start:len(ops):len(ops)] // an append reallocates
		c.units[i] = &cells[i]
	}
	return &c
}

// MuxArea returns the area of an n-input multiplexer. Zero or one input
// needs no multiplexer and costs nothing. Growth with n is concave but
// strictly monotonic: each extra input costs MuxStep/(1 + MuxCurve·(n-2)),
// never less than a quarter of MuxStep, matching §4.1's observation that
// MUX cost is not linear in input count.
func (l *Library) MuxArea(n int) float64 {
	if n <= 1 {
		return 0
	}
	area := l.MuxBase
	for r := 3; r <= n; r++ {
		area += l.muxIncrement(r)
	}
	return area
}

func (l *Library) muxIncrement(r int) float64 {
	inc := l.MuxStep / (1 + l.MuxCurve*float64(r-2))
	if min := l.MuxStep / 4; inc < min {
		inc = min
	}
	return inc
}

// MaxMuxStep returns an upper bound on the area added by widening any
// multiplexer by one input — the quantity 2·max{Cost(MUX_{r+1}) −
// Cost(MUX_r)}/2 the paper uses for f^MUX_max when sizing the
// time-dominance constant C. The largest single step is the first one
// (2-input mux from nothing), i.e. MuxBase.
func (l *Library) MaxMuxStep() float64 {
	if l.MuxBase >= l.MuxStep {
		return l.MuxBase
	}
	return l.MuxStep
}

// MaxUnitArea returns the area of the dearest unit (f^ALU_max in §4.1).
func (l *Library) MaxUnitArea() float64 {
	max := 0.0
	for _, u := range l.units {
		if u.Area > max {
			max = u.Area
		}
	}
	return max
}

// Validate checks the library is internally consistent and usable:
// positive cost parameters, at least one unit, and monotonic mux areas.
func (l *Library) Validate() error {
	if len(l.units) == 0 {
		return fmt.Errorf("library %s: no units", l.Name)
	}
	if l.RegArea <= 0 || l.MuxBase <= 0 || l.MuxStep <= 0 || l.MuxCurve < 0 {
		return fmt.Errorf("library %s: non-positive cost parameters", l.Name)
	}
	for _, u := range l.units {
		if err := u.validate(); err != nil {
			return err
		}
	}
	for n := 2; n < 64; n++ {
		if l.MuxArea(n+1) <= l.MuxArea(n) {
			return fmt.Errorf("library %s: MuxArea not monotonic at %d", l.Name, n)
		}
	}
	return nil
}
