package symb

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/op"
)

// refBuilder is the string-keyed intern table Builder replaced, kept as
// the oracle of TestBuilderMatchesReference: every leaf and interior
// node is interned under a text key built from its operator and its
// operands' ids. It hands out ids in creation order, as Builder does.
type refBuilder struct {
	nodes map[string]*Expr
	next  int32
}

func newRefBuilder() *refBuilder {
	return &refBuilder{nodes: make(map[string]*Expr)}
}

func (b *refBuilder) Len() int { return len(b.nodes) }

func (b *refBuilder) intern(key string, mk func() *Expr) *Expr {
	if e, ok := b.nodes[key]; ok {
		return e
	}
	e := mk()
	e.id = b.next
	b.next++
	b.nodes[key] = e
	return e
}

func (b *refBuilder) Var(name string) *Expr {
	return b.intern("v\x00"+name, func() *Expr { return &Expr{Var: name} })
}

func (b *refBuilder) Const(v int64) *Expr {
	return b.intern("c\x00"+strconv.FormatInt(v, 10), func() *Expr {
		return &Expr{Val: v, IsConst: true}
	})
}

// refOpKey builds the intern key of an interior node from its operator
// and the ids of its (already canonical) operands.
func refOpKey(k op.Kind, args []*Expr) string {
	var sb strings.Builder
	sb.WriteString("o\x00")
	sb.WriteString(strconv.Itoa(int(k)))
	for _, a := range args {
		sb.WriteByte('\x00')
		sb.WriteString(strconv.Itoa(int(a.id)))
	}
	return sb.String()
}

func (b *refBuilder) Apply(k op.Kind, args ...*Expr) *Expr {
	switch k.Arity() {
	case 1:
		if len(args) == 0 {
			args = []*Expr{b.Const(0)}
		}
		args = args[:1]
	case 2:
		for len(args) < 2 {
			args = append(args, b.Const(0))
		}
		if len(args) > 2 && k != op.Add && k != op.Mul {
			args = args[:2]
		}
	}
	if k == op.Mov {
		return args[0]
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
		args = []*Expr{args[1], args[0]}
	}
	sorted := append([]*Expr(nil), args...)
	return b.intern(refOpKey(k, sorted), func() *Expr {
		return &Expr{Kind: k, Args: sorted}
	})
}

func (b *refBuilder) assoc(k op.Kind, args []*Expr) *Expr {
	flat := make([]*Expr, 0, len(args))
	c := identity(k)
	hasConst := false
	for _, a := range args {
		kids := []*Expr{a}
		if a.Kind == k {
			kids = a.Args
		}
		for _, kid := range kids {
			if kid.IsConst {
				c = k.Eval(c, kid.Val)
				hasConst = true
			} else {
				flat = append(flat, kid)
			}
		}
	}
	if len(flat) == 0 {
		return b.Const(c)
	}
	if hasConst && c != identity(k) {
		flat = append(flat, b.Const(c))
	}
	if len(flat) == 1 {
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].id < flat[j].id })
	return b.intern(refOpKey(k, flat), func() *Expr {
		return &Expr{Kind: k, Args: flat}
	})
}
