package symb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/op"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	if x != b.Var("x") {
		t.Fatal("variable leaf not interned")
	}
	if b.Const(7) != b.Const(7) {
		t.Fatal("constant leaf not interned")
	}
	e1 := b.Apply(op.Sub, x, y)
	e2 := b.Apply(op.Sub, x, y)
	if e1 != e2 {
		t.Fatal("structurally equal expressions are distinct pointers")
	}
	if e3 := b.Apply(op.Sub, y, x); e3 == e1 {
		t.Fatal("non-commutative operands were conflated")
	}
}

func TestCommutativeSorting(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	for _, k := range []op.Kind{op.Add, op.Mul, op.And, op.Or, op.Xor, op.Eq, op.Ne} {
		if b.Apply(k, x, y) != b.Apply(k, y, x) {
			t.Errorf("%s: operand order not canonicalized", k)
		}
	}
	if b.Apply(op.Lt, x, y) == b.Apply(op.Lt, y, x) {
		t.Error("< must not commute")
	}
}

func TestAssociativityFlattening(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	l := b.Apply(op.Add, b.Apply(op.Add, x, y), z)
	r := b.Apply(op.Add, x, b.Apply(op.Add, y, z))
	if l != r {
		t.Fatalf("(x+y)+z != x+(y+z): %s vs %s", l, r)
	}
	if len(l.Args) != 3 {
		t.Fatalf("flattened sum has %d args, want 3: %s", len(l.Args), l)
	}
	m := b.Apply(op.Mul, b.Apply(op.Mul, z, y), x)
	if m != b.Apply(op.Mul, x, b.Apply(op.Mul, y, z)) {
		t.Fatal("n-ary * not canonical across association/commutation")
	}
	// Subtraction must NOT flatten.
	s := b.Apply(op.Sub, b.Apply(op.Sub, x, y), z)
	if s == b.Apply(op.Sub, x, b.Apply(op.Sub, y, z)) {
		t.Fatal("(x-y)-z conflated with x-(y-z)")
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	if e := b.Apply(op.Add, b.Const(2), b.Const(3)); !e.IsConst || e.Val != 5 {
		t.Fatalf("2+3 = %s", e)
	}
	if e := b.Apply(op.Div, b.Const(7), b.Const(0)); !e.IsConst || e.Val != 0 {
		t.Fatalf("7/0 = %s, want the simulator's defined-result 0", e)
	}
	// Constants merge across a flattened sum; the neutral element vanishes.
	e := b.Apply(op.Add, b.Const(2), b.Apply(op.Add, x, b.Const(-2)))
	if e != x {
		t.Fatalf("2+(x+-2) = %s, want x", e)
	}
	if e := b.Apply(op.Mul, x, b.Const(1)); e != x {
		t.Fatalf("x*1 = %s, want x", e)
	}
	if e := b.Apply(op.Mul, b.Const(0), x); e.IsConst {
		t.Fatalf("0*x folded to a constant %s; only the neutral element may be elided", e)
	}
}

func TestMovIsIdentity(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	if b.Apply(op.Mov, x) != x {
		t.Fatal("mov(x) != x")
	}
	e := b.Apply(op.Neg, b.Apply(op.Mov, x))
	if e != b.Apply(op.Neg, x) {
		t.Fatal("mov not transparent under composition")
	}
}

func TestEvalMatchesOpSemantics(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	env := map[string]int64{"x": -7, "y": 3}
	for _, k := range op.Kinds() {
		var e *Expr
		if k.Arity() == 1 {
			e = b.Apply(k, x)
		} else {
			e = b.Apply(k, x, y)
		}
		want := k.Eval(-7, 3)
		if k.Arity() == 1 {
			want = k.Eval(-7, 0)
		}
		if got := e.Eval(env); got != want {
			t.Errorf("%s: Eval = %d, op.Eval = %d", k, got, want)
		}
	}
	// n-ary fold
	e := b.Apply(op.Add, x, y, b.Apply(op.Mul, x, y))
	if got := e.Eval(env); got != -7+3+(-7*3) {
		t.Errorf("n-ary eval = %d", got)
	}
}

func TestVarsAndDiff(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	a := b.Apply(op.Sub, b.Apply(op.Add, x, y), z)
	c := b.Apply(op.Sub, b.Apply(op.Add, x, x), z)
	vars := map[string]bool{}
	a.Vars(vars)
	if len(vars) != 3 || !vars["x"] || !vars["y"] || !vars["z"] {
		t.Fatalf("Vars = %v", vars)
	}
	if d := Diff(a, a); d != "" {
		t.Fatalf("Diff(a,a) = %q", d)
	}
	d := Diff(a, c)
	if !strings.Contains(d, "-[0]") || !strings.Contains(d, "reference") {
		t.Fatalf("Diff did not localize the divergence: %q", d)
	}
}

func TestRenderDepthCap(t *testing.T) {
	b := NewBuilder()
	e := b.Var("x")
	for i := 0; i < 40; i++ {
		e = b.Apply(op.Sub, e, b.Var("y"))
	}
	s := e.String()
	if !strings.Contains(s, "…") {
		t.Fatalf("deep expression rendered without a depth cap: %d bytes", len(s))
	}
}

// refConsts are the constants the reference sequences draw from: the
// neutral elements, values that cancel, and the int64 extremes.
var refConsts = []int64{0, 1, -1, 2, -2, 3, 7, math.MaxInt64, math.MinInt64}

// matchReference drives a Builder and the string-keyed reference
// through the same sequence of Var, Const and Apply calls, each choice
// drawn from next(n) in [0, n); it stops when next reports the
// sequence is over. Apply draws any kind over zero to five operands
// from every expression built so far, so nested sums and products
// flatten and operands come in both orders. At every step both
// builders must agree on the id, the kind, the operand ids, Len and
// String.
func matchReference(t *testing.T, next func(n int) (int, bool)) {
	t.Helper()
	b, r := NewBuilder(), newRefBuilder()
	kinds := op.Kinds()
	var got, want []*Expr
	for step := 0; ; step++ {
		what, ok := next(4)
		if !ok {
			return
		}
		var g, w *Expr
		var call string
		switch what {
		case 0:
			i, _ := next(6)
			name := fmt.Sprintf("v%d", i)
			g, w, call = b.Var(name), r.Var(name), "Var("+name+")"
		case 1:
			i, _ := next(len(refConsts))
			v := refConsts[i]
			g, w, call = b.Const(v), r.Const(v), fmt.Sprintf("Const(%d)", v)
		default:
			ki, _ := next(len(kinds))
			n, _ := next(6)
			var ga, wa []*Expr
			var ids []int32
			for range n {
				if len(got) == 0 {
					break
				}
				i, _ := next(len(got))
				ga, wa, ids = append(ga, got[i]), append(wa, want[i]), append(ids, got[i].id)
			}
			g, w = b.Apply(kinds[ki], ga...), r.Apply(kinds[ki], wa...)
			call = fmt.Sprintf("Apply(%s, ids %v)", kinds[ki], ids)
		}
		if d := exprDiff(g, w); d != "" || b.Len() != r.Len() {
			t.Fatalf("step %d, %s: %s; Len %d, reference %d", step, call, d, b.Len(), r.Len())
		}
		got, want = append(got, g), append(want, w)
	}
}

// exprDiff says how two expressions from different builders differ in
// id, kind, leaf value, operand ids or rendering; "" when they agree.
func exprDiff(g, w *Expr) string {
	switch {
	case g.id != w.id || g.Kind != w.Kind || g.Var != w.Var || g.IsConst != w.IsConst || g.Val != w.Val:
		return fmt.Sprintf("got id %d %+v, reference id %d %+v", g.id, *g, w.id, *w)
	case len(g.Args) != len(w.Args):
		return fmt.Sprintf("got %d operands, reference %d", len(g.Args), len(w.Args))
	case g.String() != w.String():
		return fmt.Sprintf("got %s, reference %s", g, w)
	}
	for i := range g.Args {
		if g.Args[i].id != w.Args[i].id {
			return fmt.Sprintf("operand %d: got id %d, reference id %d", i, g.Args[i].id, w.Args[i].id)
		}
	}
	return ""
}

// TestBuilderMatchesReference runs seeded sequences of 400 calls
// through the Builder and the string-keyed reference it replaced.
func TestBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 0
		matchReference(t, func(n int) (int, bool) {
			steps++
			return rng.Intn(n), steps <= 400*4
		})
	}
}

// FuzzBuilderMatchesReference reads a call sequence from the fuzzed
// bytes, one byte per choice, and checks it against the reference.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0, 2, 4, 2, 0, 1, 1, 0, 2, 2, 3, 2, 1, 0})
	f.Add([]byte{1, 3, 1, 4, 2, 0, 5, 0, 1, 0, 2, 2, 0, 2, 1, 3, 0, 5, 2, 0, 3, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			v := int(data[0]) % n
			data = data[1:]
			return v, true
		})
	})
}

// TestInternedApplyAllocatesNothing re-applies an interned n-ary sum
// (operands permuted, one of them a nested sum, its constant split in
// two) and an interned commutative pair (operands swapped): the lookups
// must allocate nothing.
func TestInternedApplyAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	one, two, three := b.Const(1), b.Const(2), b.Const(3)
	xy := b.Apply(op.Add, x, y)
	sum := b.Apply(op.Add, x, y, z, three)
	and := b.Apply(op.And, y, z)
	ok := true
	if a := testing.AllocsPerRun(100, func() {
		ok = ok && b.Apply(op.Add, z, one, xy, two) == sum && b.Apply(op.And, z, y) == and &&
			b.Var("x") == x && b.Const(3) == three
	}); a != 0 {
		t.Errorf("re-applying interned expressions allocates %.0f, want 0", a)
	}
	if !ok {
		t.Error("a re-applied expression was not the interned one")
	}
}
