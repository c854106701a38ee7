package library

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/op"
)

// Single-function cell areas (µm²) for the NCR-like synthetic library.
// Absolute values are calibrated so that complete datapaths land in the
// 40 000–100 000 µm² range the paper's Table 2 reports; the orderings that
// matter to the algorithms are: multiply/divide an order of magnitude
// dearer than add/sub, comparators cheaper than adders, logic cheapest.
var singleArea = map[op.Kind]float64{
	op.Add: 2500,
	op.Sub: 2600,
	op.Mul: 16000,
	op.Div: 18000,
	op.And: 800,
	op.Or:  800,
	op.Xor: 900,
	op.Not: 500,
	op.Lt:  1200,
	op.Gt:  1200,
	op.Le:  1300,
	op.Ge:  1300,
	op.Eq:  1100,
	op.Ne:  1100,
	op.Shl: 1500,
	op.Shr: 1500,
	op.Neg: 1400,
	op.Mov: 400,
}

// ComposeArea returns the synthetic area of a multi-function ALU covering
// the given kinds: the dearest member's full area plus 30 % of each other
// member's area. This keeps every merge profitable versus separate units
// (the property MFSA's f^ALU term exploits) while still charging for added
// capability.
func ComposeArea(kinds ...op.Kind) float64 {
	if len(kinds) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, k := range kinds {
		a := singleArea[k]
		sum += a
		if a > max {
			max = a
		}
	}
	return max + 0.3*(sum-max)
}

// ComposeName builds a deterministic unit name for a capability set, e.g.
// "alu_add_sub".
func ComposeName(kinds ...op.Kind) string {
	ks := append([]op.Kind(nil), kinds...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = kindSlug(k)
	}
	return "alu_" + strings.Join(parts, "_")
}

func kindSlug(k op.Kind) string {
	switch k {
	case op.Add:
		return "add"
	case op.Sub:
		return "sub"
	case op.Mul:
		return "mul"
	case op.Div:
		return "div"
	case op.And:
		return "and"
	case op.Or:
		return "or"
	case op.Xor:
		return "xor"
	case op.Not:
		return "not"
	case op.Lt:
		return "lt"
	case op.Gt:
		return "gt"
	case op.Le:
		return "le"
	case op.Ge:
		return "ge"
	case op.Eq:
		return "eq"
	case op.Ne:
		return "ne"
	case op.Shl:
		return "shl"
	case op.Shr:
		return "shr"
	case op.Neg:
		return "neg"
	case op.Mov:
		return "mov"
	}
	return "x"
}

// Compose builds a multi-function ALU Unit with synthetic area.
func Compose(kinds ...op.Kind) *Unit {
	ks := append([]op.Kind(nil), kinds...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return &Unit{Name: ComposeName(ks...), Ops: ks, Area: ComposeArea(ks...), Stages: 1}
}

// combos are the multi-function ALU capability sets offered by the
// NCR-like library, covering the shapes Table 2's result columns use:
// add/sub, add/compare, add/sub/compare, logic combinations, and the
// divide-carrying ALUs of examples #1 and #2.
var combos = [][]op.Kind{
	{op.Add, op.Sub},
	{op.Add, op.Lt},
	{op.Add, op.Gt},
	{op.Sub, op.Gt},
	{op.Add, op.Sub, op.Lt},
	{op.Add, op.Sub, op.Gt},
	{op.Add, op.Sub, op.Gt, op.Ne},
	{op.Add, op.Div, op.Gt, op.Ne},
	{op.Add, op.Or},
	{op.And, op.Or},
	{op.And, op.Sub},
	{op.And, op.Div},
	{op.Eq, op.Or},
	{op.And, op.Add, op.Div},
	{op.Sub, op.Gt},
	{op.Add, op.Sub, op.Mul},
}

// NCRLike constructs the synthetic stand-in for the NCR ASIC data book:
// one single-function unit per operation kind, the multi-function ALUs
// above, and 2-stage pipelined multiplier/divider cells for structural
// pipelining. Register area is 700 µm²; a 2-input multiplexer is 300 µm²
// and each further input adds a concavely shrinking increment (see
// Library.MuxArea). Each call returns a library of its own, a copy of
// one built on first use, so a caller may edit its result freely.
func NCRLike() *Library { return ncrLike().clone() }

var ncrLike = sync.OnceValue(buildNCRLike)

func buildNCRLike() *Library {
	l := New("ncr-like", 700, 300, 260, 0.08)
	for k, a := range singleArea {
		mustAdd(l, &Unit{Name: "fu_" + kindSlug(k), Ops: []op.Kind{k}, Area: a, Stages: 1})
	}
	for _, c := range combos {
		u := Compose(c...)
		if _, ok := l.Lookup(u.Name); ok {
			continue // combo list may contain duplicates
		}
		mustAdd(l, u)
	}
	// Structurally pipelined cells: same area premium as a 2-way ALU merge.
	for _, k := range []op.Kind{op.Mul, op.Div} {
		mustAdd(l, &Unit{
			Name:   "pfu_" + kindSlug(k),
			Ops:    []op.Kind{k},
			Area:   singleArea[k] * 1.25,
			Stages: 2,
		})
	}
	return l
}

// mustAdd registers a built-in unit. Add fails only on a duplicate name,
// an empty op list, or a non-positive area/stage count — none of which
// the static singleArea and combos tables above contain (the package
// tests validate the full NCRLike result), so this is unreachable short
// of an inconsistent edit to those literals: a programming error that
// must fail loudly at construction, in the regexp.MustCompile tradition,
// rather than hand every caller an error for data baked into the binary.
func mustAdd(l *Library, u *Unit) {
	if err := l.Add(u); err != nil {
		panic("library: invalid built-in unit table: " + err.Error())
	}
}
