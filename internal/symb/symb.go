// Package symb is a hash-consed word-level symbolic-expression engine:
// the substrate of the translation-validation pass (internal/lint's
// equiv analyzer). Expressions are canonical DAGs interned in a Builder,
// so two structurally equal expressions are the same pointer and an
// equivalence proof between two synthesis artifacts reduces to one
// pointer comparison of their root expressions.
//
// Canonicalization applies exactly the normalization every artifact
// layer of the flow is entitled to: constant folding through the shared
// op.Kind.Eval semantics (int64 two's-complement, so + and * are
// associative and commutative under wraparound), associativity
// flattening of + and * into n-ary nodes, commutative-operand sorting
// by intern id, and identity elision of the neutral element (x+0, x*1).
// Mov is the identity function and vanishes on construction. No other
// algebraic rules (distribution, double negation, x-x=0, ...) are
// applied: every artifact is derived from the same data-flow graph, so
// the only structural freedom the synthesis layers actually exercise is
// operand commutation (the §5.6 multiplexer-input optimization), and a
// deliberately small rule set keeps the normalization trivially
// semantics-preserving — a proof can never be manufactured by an
// unsound rewrite.
package symb

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/op"
)

// Expr is one canonical expression node. Exprs are created only through
// a Builder and are immutable afterwards; two Exprs from the same
// Builder are semantically equal under the package's normalization iff
// they are the same pointer.
type Expr struct {
	// Kind is the operator of an interior node; op.Invalid for leaves.
	Kind op.Kind

	// Var is the free-variable name; non-empty iff the node is a
	// variable leaf.
	Var string

	// Val is the constant value, meaningful iff IsConst.
	Val     int64
	IsConst bool

	id int32 // builder-local intern id; ids order operands deterministically

	// Args are the operand expressions of an interior node. For + and *
	// the list is n-ary (flattened), sorted by intern id, with at most
	// one constant; for other commutative operators it is a sorted
	// pair.
	Args []*Expr
}

// Leaf reports whether the expression is a variable or constant.
func (e *Expr) Leaf() bool { return len(e.Args) == 0 }

// Builder interns expressions: leaves by their name or value, interior
// nodes by their operator and the ids of their operands, so a lookup
// hashes no text and a hit allocates nothing. Ids are handed out in
// creation order. The zero value is not ready; use NewBuilder or
// NewBuilderSize. A Builder is not safe for concurrent use.
type Builder struct {
	vars   map[string]*Expr
	consts map[int64]*Expr

	// nodes is an open-addressing table of the interior nodes by
	// opHash, nil for an empty slot, at most half full.
	nodes  []*Expr
	nNodes int

	next int32
	flat []*Expr // assoc's scratch operand list
}

// NewBuilder returns an empty intern table.
func NewBuilder() *Builder { return NewBuilderSize(0, 0) }

// NewBuilderSize returns an empty intern table with room for about vars
// variables and nodes interior nodes before it grows.
func NewBuilderSize(vars, nodes int) *Builder {
	return &Builder{
		vars:   make(map[string]*Expr, vars),
		consts: make(map[int64]*Expr),
		nodes:  make([]*Expr, max(16, 2<<bits.Len(uint(nodes)))),
	}
}

// Len reports how many distinct expressions have been interned.
func (b *Builder) Len() int { return len(b.vars) + len(b.consts) + b.nNodes }

// fresh gives e the next id.
func (b *Builder) fresh(e *Expr) *Expr {
	e.id = b.next
	b.next++
	return e
}

// Var returns the canonical leaf for the named free variable.
func (b *Builder) Var(name string) *Expr {
	if e, ok := b.vars[name]; ok {
		return e
	}
	e := b.fresh(&Expr{Var: name})
	b.vars[name] = e
	return e
}

// Const returns the canonical leaf for the constant v.
func (b *Builder) Const(v int64) *Expr {
	if e, ok := b.consts[v]; ok {
		return e
	}
	e := b.fresh(&Expr{Val: v, IsConst: true})
	b.consts[v] = e
	return e
}

// opHash hashes an interior node's operator and operand ids.
//
//hls:noalloc
func opHash(k op.Kind, args []*Expr) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	for _, a := range args {
		h = (h ^ uint64(a.id)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// find returns the slot of the interior node of operator k over args:
// the node's own slot when it is interned, else the empty slot where it
// belongs.
//
//hls:noalloc
func (b *Builder) find(k op.Kind, args []*Expr) int {
	mask := uint64(len(b.nodes) - 1)
	for i := opHash(k, args) & mask; ; i = (i + 1) & mask {
		if e := b.nodes[i]; e == nil || e.Kind == k && sameArgs(e.Args, args) {
			return int(i)
		}
	}
}

// sameArgs reports whether two operand lists hold the same pointers.
//
//hls:noalloc
func sameArgs(a, b []*Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// node returns the interned interior node of operator k over the
// canonical operand list args. Only a miss copies args.
func (b *Builder) node(k op.Kind, args []*Expr) *Expr {
	i := b.find(k, args)
	if e := b.nodes[i]; e != nil {
		return e
	}
	e := b.fresh(&Expr{Kind: k, Args: slices.Clone(args)})
	b.nodes[i] = e
	b.nNodes++
	if 2*b.nNodes > len(b.nodes) {
		old := b.nodes
		b.nodes = make([]*Expr, 2*len(old))
		for _, x := range old {
			if x != nil {
				b.nodes[b.find(x.Kind, x.Args)] = x
			}
		}
	}
	return e
}

// identity returns the neutral element of an associative operator.
func identity(k op.Kind) int64 {
	if k == op.Mul {
		return 1
	}
	return 0 // Add
}

// Apply builds the canonical expression for operator k over args. The
// operand list is first normalized to the operator's arity the way the
// concrete evaluators do it (unary operators ignore a second operand; a
// binary operator missing one reads the zero value), so the symbolic
// and concrete semantics agree on malformed artifacts too.
func (b *Builder) Apply(k op.Kind, args ...*Expr) *Expr {
	var pair [2]*Expr // a padded or swapped operand pair
	switch k.Arity() {
	case 1:
		if len(args) == 0 {
			pair[0] = b.Const(0)
			args = pair[:1]
		}
		args = args[:1]
	case 2:
		if len(args) < 2 {
			for i := copy(pair[:], args); i < 2; i++ {
				pair[i] = b.Const(0)
			}
			args = pair[:]
		}
		if len(args) > 2 && k != op.Add && k != op.Mul {
			args = args[:2] // only the associative operators are n-ary
		}
	}
	if k == op.Mov {
		return args[0] // identity function
	}
	if k == op.Add || k == op.Mul {
		return b.assoc(k, args)
	}
	allConst := true
	for _, a := range args {
		if !a.IsConst {
			allConst = false
			break
		}
	}
	if allConst {
		if len(args) == 1 {
			return b.Const(k.Eval(args[0].Val, 0))
		}
		return b.Const(k.Eval(args[0].Val, args[1].Val))
	}
	if k.Commutative() && len(args) == 2 && args[1].id < args[0].id {
		pair = [2]*Expr{args[1], args[0]}
		args = pair[:]
	}
	return b.node(k, args)
}

// assoc canonicalizes an n-ary + or *: flatten nested nodes of the same
// operator, fold every constant operand into one (sound under int64
// wraparound), drop the fold when it is the neutral element, and sort
// the remaining operands by intern id.
func (b *Builder) assoc(k op.Kind, args []*Expr) *Expr {
	flat := b.flat[:0]
	c := identity(k)
	for i, a := range args {
		kids := args[i : i+1]
		if a.Kind == k {
			kids = a.Args // already flat and constant-free (or one const)
		}
		for _, kid := range kids {
			if kid.IsConst {
				c = k.Eval(c, kid.Val)
			} else {
				flat = append(flat, kid)
			}
		}
	}
	if c != identity(k) || len(flat) == 0 {
		flat = append(flat, b.Const(c))
	}
	e := flat[0]
	if len(flat) > 1 {
		slices.SortFunc(flat, byID)
		e = b.node(k, flat)
	}
	b.flat = flat[:0]
	return e
}

func byID(a, b *Expr) int { return cmp.Compare(a.id, b.id) }

// Eval computes the expression's concrete value under an assignment of
// the free variables (missing variables read 0). Evaluation is
// memoized over the DAG, so shared subexpressions are computed once.
func (e *Expr) Eval(env map[string]int64) int64 {
	memo := make(map[*Expr]int64)
	var rec func(x *Expr) int64
	rec = func(x *Expr) int64 {
		if v, ok := memo[x]; ok {
			return v
		}
		var v int64
		switch {
		case x.IsConst:
			v = x.Val
		case x.Var != "":
			v = env[x.Var]
		case x.Kind == op.Add || x.Kind == op.Mul:
			v = rec(x.Args[0])
			for _, a := range x.Args[1:] {
				v = x.Kind.Eval(v, rec(a))
			}
		case len(x.Args) == 1:
			v = x.Kind.Eval(rec(x.Args[0]), 0)
		default:
			v = x.Kind.Eval(rec(x.Args[0]), rec(x.Args[1]))
		}
		memo[x] = v
		return v
	}
	return rec(e)
}

// Vars adds every free variable of the expression to dst.
func (e *Expr) Vars(dst map[string]bool) {
	seen := make(map[*Expr]bool)
	var rec func(x *Expr)
	rec = func(x *Expr) {
		if seen[x] {
			return
		}
		seen[x] = true
		if x.Var != "" {
			dst[x.Var] = true
		}
		for _, a := range x.Args {
			rec(a)
		}
	}
	rec(e)
}

// maxRenderDepth bounds String's recursion so a diagnostic carrying a
// deep expression stays readable; deeper structure renders as "…".
const maxRenderDepth = 8

// String renders the expression as a depth-capped S-expression, e.g.
// "(+ x y (* 3 dx))".
func (e *Expr) String() string {
	var sb strings.Builder
	e.render(&sb, maxRenderDepth)
	return sb.String()
}

func (e *Expr) render(sb *strings.Builder, depth int) {
	switch {
	case e.IsConst:
		sb.WriteString(strconv.FormatInt(e.Val, 10))
	case e.Var != "":
		sb.WriteString(e.Var)
	case depth <= 0:
		sb.WriteString("…")
	default:
		sb.WriteByte('(')
		sb.WriteString(e.Kind.String())
		for _, a := range e.Args {
			sb.WriteByte(' ')
			a.render(sb, depth-1)
		}
		sb.WriteByte(')')
	}
}

// Diff localizes the structural difference between two expressions from
// the same Builder: it descends as long as the difference is confined
// to exactly one operand position and then renders both sides at the
// divergence point. Calling Diff on equal expressions returns "".
func Diff(a, b *Expr) string {
	if a == b {
		return ""
	}
	var path []string
	for a.Kind == b.Kind && !a.Leaf() && !b.Leaf() && len(a.Args) == len(b.Args) {
		differing := -1
		for i := range a.Args {
			if a.Args[i] != b.Args[i] {
				if differing >= 0 {
					differing = -1 // more than one operand differs: stop here
					break
				}
				differing = i
			}
		}
		if differing < 0 {
			break
		}
		path = append(path, fmt.Sprintf("%s[%d]", a.Kind, differing))
		a, b = a.Args[differing], b.Args[differing]
	}
	at := "root"
	if len(path) > 0 {
		at = strings.Join(path, ".")
	}
	return fmt.Sprintf("at %s: reference %s, candidate %s", at, a, b)
}
