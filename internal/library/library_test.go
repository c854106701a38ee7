package library

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/op"
)

func TestNCRLikeValid(t *testing.T) {
	l := NCRLike()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestEveryKindCovered(t *testing.T) {
	l := NCRLike()
	for _, k := range op.Kinds() {
		if l.Single(k) == nil {
			t.Errorf("no single-function unit for %v", k)
		}
		if len(l.UnitsFor(k)) == 0 {
			t.Errorf("UnitsFor(%v) empty", k)
		}
	}
}

func TestUnitCan(t *testing.T) {
	u := Compose(op.Add, op.Sub)
	if !u.Can(op.Add) || !u.Can(op.Sub) {
		t.Error("composed ALU missing capability")
	}
	if u.Can(op.Mul) {
		t.Error("composed ALU claims mul")
	}
	if !u.Multifunction() {
		t.Error("two-op unit not multifunction")
	}
	if u.Pipelined() {
		t.Error("composed unit should not be pipelined")
	}
}

func TestSymbols(t *testing.T) {
	l := NCRLike()
	addsub, ok := l.Lookup(ComposeName(op.Add, op.Sub))
	if !ok {
		t.Fatal("no add/sub ALU")
	}
	if got := addsub.Symbol(); got != "(+-)" {
		t.Errorf("Symbol = %q, want (+-)", got)
	}
	pmul, ok := l.Lookup("pfu_mul")
	if !ok {
		t.Fatal("no pipelined multiplier")
	}
	if got := pmul.Symbol(); got != "p(*)" {
		t.Errorf("pipelined Symbol = %q, want p(*)", got)
	}
	if pmul.Stages != 2 {
		t.Errorf("pipelined multiplier stages = %d, want 2", pmul.Stages)
	}
}

func TestMergeProfitability(t *testing.T) {
	// A multi-function ALU must cost less than the sum of its parts but
	// more than any single part — the ordering MFSA's f^ALU term relies on.
	sets := [][]op.Kind{
		{op.Add, op.Sub},
		{op.Add, op.Sub, op.Lt},
		{op.And, op.Or},
		{op.Add, op.Sub, op.Mul},
	}
	for _, s := range sets {
		merged := ComposeArea(s...)
		sum, max := 0.0, 0.0
		for _, k := range s {
			sum += ComposeArea(k)
			if a := ComposeArea(k); a > max {
				max = a
			}
		}
		if !(merged < sum) {
			t.Errorf("%v: merged %v not cheaper than separate %v", s, merged, sum)
		}
		if !(merged > max) {
			t.Errorf("%v: merged %v not dearer than largest member %v", s, merged, max)
		}
	}
	if ComposeArea() != 0 {
		t.Error("ComposeArea() != 0")
	}
}

func TestMuxAreaShape(t *testing.T) {
	l := NCRLike()
	if l.MuxArea(0) != 0 || l.MuxArea(1) != 0 {
		t.Error("0/1-input mux should be free")
	}
	if l.MuxArea(2) != l.MuxBase {
		t.Errorf("MuxArea(2) = %v, want MuxBase %v", l.MuxArea(2), l.MuxBase)
	}
	// Monotonic and concave: increments strictly positive, non-increasing.
	prev := l.MuxArea(2)
	prevInc := l.MuxArea(3) - l.MuxArea(2)
	for n := 3; n <= 40; n++ {
		cur := l.MuxArea(n)
		inc := cur - prev
		if inc <= 0 {
			t.Fatalf("MuxArea not monotonic at %d", n)
		}
		if inc > prevInc+1e-9 {
			t.Fatalf("MuxArea increment grew at %d: %v > %v", n, inc, prevInc)
		}
		prev, prevInc = cur, inc
	}
}

func TestMaxMuxStepBounds(t *testing.T) {
	l := NCRLike()
	// MaxMuxStep must dominate every actual widening increment.
	f := func(n uint8) bool {
		r := int(n%40) + 2
		return l.MuxArea(r+1)-l.MuxArea(r) <= l.MaxMuxStep()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if l.MuxArea(2)-l.MuxArea(1) > l.MaxMuxStep() {
		t.Error("MaxMuxStep misses the first step")
	}
}

func TestMaxUnitArea(t *testing.T) {
	l := NCRLike()
	max := l.MaxUnitArea()
	if max <= 0 {
		t.Fatal("MaxUnitArea <= 0")
	}
	for _, u := range l.Units() {
		if u.Area > max {
			t.Errorf("unit %s area %v exceeds MaxUnitArea %v", u.Name, u.Area, max)
		}
	}
}

func TestRestrict(t *testing.T) {
	l := NCRLike()
	sub, err := l.Restrict("fu_add", "fu_mul")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Units()) != 2 {
		t.Errorf("restricted units = %d, want 2", len(sub.Units()))
	}
	if sub.Single(op.Sub) != nil {
		t.Error("restricted library still offers sub")
	}
	if _, err := l.Restrict("nonexistent"); err == nil {
		t.Error("Restrict accepted unknown unit")
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("restricted library invalid: %v", err)
	}
}

// TestRestrictLeavesSourceUnits asserts Restrict does not write the
// units of the library it restricts.
func TestRestrictLeavesSourceUnits(t *testing.T) {
	l := NCRLike()
	add, _ := l.Lookup("fu_add")
	before := *add
	sub, err := l.Restrict("fu_add", "fu_mul")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Lookup("fu_add"); got == add {
		t.Error("the restricted library holds the source's unit")
	}
	if add.Name != before.Name || add.Area != before.Area || add.Stages != before.Stages ||
		!slices.Equal(add.Ops, before.Ops) || &add.Ops[0] != &before.Ops[0] {
		t.Errorf("Restrict changed the source unit: %+v, was %+v", *add, before)
	}
}

// TestRestrictConcurrent restricts one library from two goroutines; the
// race detector reports any write to the shared units.
func TestRestrictConcurrent(t *testing.T) {
	l := NCRLike()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, err := l.Restrict("fu_add", "fu_mul")
				if err != nil {
					t.Error(err)
					return
				}
				if err := sub.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAddValidation(t *testing.T) {
	l := New("t", 700, 300, 260, 0.08)
	bad := []*Unit{
		{Name: "", Ops: []op.Kind{op.Add}, Area: 1, Stages: 1},
		{Name: "u", Ops: nil, Area: 1, Stages: 1},
		{Name: "u", Ops: []op.Kind{op.Add, op.Add}, Area: 1, Stages: 1},
		{Name: "u", Ops: []op.Kind{op.Kind(99)}, Area: 1, Stages: 1},
		{Name: "u", Ops: []op.Kind{op.Add}, Area: 0, Stages: 1},
		{Name: "u", Ops: []op.Kind{op.Add}, Area: 1, Stages: 0},
	}
	for i, u := range bad {
		if err := l.Add(u); err == nil {
			t.Errorf("case %d: bad unit accepted", i)
		}
	}
	good := &Unit{Name: "u", Ops: []op.Kind{op.Add}, Area: 1, Stages: 1}
	if err := l.Add(good); err != nil {
		t.Fatal(err)
	}
	dup := &Unit{Name: "u", Ops: []op.Kind{op.Sub}, Area: 1, Stages: 1}
	if err := l.Add(dup); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestEmptyLibraryInvalid(t *testing.T) {
	l := New("empty", 700, 300, 260, 0.08)
	if err := l.Validate(); err == nil {
		t.Error("empty library validated")
	}
}

func TestSinglePrefersCheapest(t *testing.T) {
	l := NCRLike()
	u := l.Single(op.Add)
	if u == nil {
		t.Fatal("no adder")
	}
	if u.Multifunction() {
		t.Errorf("Single(add) picked multifunction %s", u.Name)
	}
	if u.Area != singleArea[op.Add] {
		t.Errorf("Single(add).Area = %v, want %v", u.Area, singleArea[op.Add])
	}
}

func TestSingleSkipsPipelined(t *testing.T) {
	l := New("p", 700, 300, 260, 0.08)
	l.Add(&Unit{Name: "pmul", Ops: []op.Kind{op.Mul}, Area: 100, Stages: 2})
	if l.Single(op.Mul) != nil {
		t.Error("Single returned a pipelined unit")
	}
}

func TestComposeNameDeterministic(t *testing.T) {
	a := ComposeName(op.Sub, op.Add)
	b := ComposeName(op.Add, op.Sub)
	if a != b {
		t.Errorf("ComposeName order-sensitive: %q vs %q", a, b)
	}
	if a != "alu_add_sub" {
		t.Errorf("ComposeName = %q", a)
	}
}

// TestNCRLikeUnitsPinned pins the unit order Add keeps (by name) and
// bounds what building the library allocates: every default-library
// synthesis builds it.
func TestNCRLikeUnitsPinned(t *testing.T) {
	want := []string{
		"alu_add_div_and", "alu_add_div_gt_ne", "alu_add_gt", "alu_add_lt", "alu_add_or",
		"alu_add_sub", "alu_add_sub_gt", "alu_add_sub_gt_ne", "alu_add_sub_lt", "alu_add_sub_mul",
		"alu_and_or", "alu_div_and", "alu_or_eq", "alu_sub_and", "alu_sub_gt",
		"fu_add", "fu_and", "fu_div", "fu_eq", "fu_ge", "fu_gt", "fu_le", "fu_lt", "fu_mov",
		"fu_mul", "fu_ne", "fu_neg", "fu_not", "fu_or", "fu_shl", "fu_shr", "fu_sub", "fu_xor",
		"pfu_div", "pfu_mul",
	}
	var got []string
	for _, u := range NCRLike().Units() {
		got = append(got, u.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("NCRLike units = %q, want %q", got, want)
	}
	// A copy of the template: the library, its unit list, the units and
	// their op lists. Building it from scratch took 263.
	if n := testing.AllocsPerRun(20, func() { NCRLike() }); n > 4 {
		t.Errorf("NCRLike allocates %v times, want at most 4", n)
	}
}

// TestNCRLikeResultsIndependent asserts two NCRLike results share no
// unit and no op list, so an edit of one is invisible in the other.
func TestNCRLikeResultsIndependent(t *testing.T) {
	a, b := NCRLike(), NCRLike()
	ua, ub := a.Units(), b.Units()
	if len(ua) != len(ub) {
		t.Fatalf("%d units vs %d", len(ua), len(ub))
	}
	for i := range ua {
		if ua[i] == ub[i] {
			t.Errorf("unit %s is shared", ua[i].Name)
		}
		if &ua[i].Ops[0] == &ub[i].Ops[0] {
			t.Errorf("unit %s shares its op list", ua[i].Name)
		}
	}
	want := *ub[0]
	ua[0].Area *= 2
	ua[0].Ops[0] = op.Mov
	ua[1].Ops = append(ua[1].Ops, op.Mov)
	if ub[0].Area != want.Area || ub[0].Ops[0] != want.Ops[0] {
		t.Errorf("editing one result changed the other: %+v", ub[0])
	}
	if got := a.Units()[2].Ops[0]; got != ub[2].Ops[0] {
		t.Errorf("appending to one unit's ops overwrote the next unit's: %v", got)
	}
	if err := NCRLike().Validate(); err != nil {
		t.Errorf("edits leaked into later results: %v", err)
	}
}

func BenchmarkNCRLike(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NCRLike()
	}
}
