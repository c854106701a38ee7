package rtl

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestOptimizeMuxListsBasic(t *testing.T) {
	// Two commutative ops with mirrored operands: the optimizer must use
	// the swap so both lists stay singletons.
	ops := []MuxOp{
		{A: "a", B: "b", Commutative: true},
		{A: "b", B: "a", Commutative: true},
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	if len(l1)+len(l2) != 2 {
		t.Fatalf("|L1|+|L2| = %d, want 2 (L1=%v L2=%v)", len(l1)+len(l2), l1, l2)
	}
	if swapped[0] == swapped[1] {
		t.Error("exactly one of the two ops should be swapped")
	}
}

func TestOptimizeMuxListsNonCommutativeFixed(t *testing.T) {
	ops := []MuxOp{
		{A: "a", B: "b", Commutative: false},
		{A: "b", B: "a", Commutative: false},
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	if len(l1) != 2 || len(l2) != 2 {
		t.Errorf("non-commutative lists = %v / %v", l1, l2)
	}
	if swapped[0] || swapped[1] {
		t.Error("non-commutative op reported swapped")
	}
}

func TestOptimizeMuxListsUnary(t *testing.T) {
	ops := []MuxOp{{A: "a"}, {A: "a"}, {A: "b"}}
	l1, l2, _ := OptimizeMuxLists(ops)
	if len(l1) != 2 || len(l2) != 0 {
		t.Errorf("unary lists = %v / %v", l1, l2)
	}
}

func TestOptimizeBeatsGreedyOrderTrap(t *testing.T) {
	// A case where greedy-in-order is suboptimal: the first op has no
	// preference (fresh lists), but its orientation decides whether the
	// later ops can share. ops: (x,y) then (y,z) then (y,w): orienting
	// op0 as (y on L1) lets ops 1,2 put y on L1 too.
	ops := []MuxOp{
		{A: "x", B: "y", Commutative: true},
		{A: "y", B: "z", Commutative: true},
		{A: "y", B: "w", Commutative: true},
	}
	l1, l2, _ := OptimizeMuxLists(ops)
	// Optimal: L1 = {y}? no — op0 needs x somewhere: best is
	// L1={y,x?}... enumerate: orientations giving y always on one side:
	// op0 (y|x), op1 (y|z), op2 (y|w): L1={y}, L2={x,z,w}: total 4.
	if got := len(l1) + len(l2); got != 4 {
		t.Errorf("|L1|+|L2| = %d (L1=%v L2=%v), want 4", got, l1, l2)
	}
}

func TestOptimizeExactMatchesBruteForce(t *testing.T) {
	// Property: for small random instances the optimizer matches an
	// independent brute-force minimum.
	r := rand.New(rand.NewSource(77))
	sigs := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		ops := make([]MuxOp, n)
		for i := range ops {
			ops[i] = MuxOp{
				A:           sigs[r.Intn(len(sigs))],
				B:           sigs[r.Intn(len(sigs))],
				Commutative: r.Intn(2) == 0,
			}
		}
		l1, l2, _ := OptimizeMuxLists(ops)
		got := len(l1) + len(l2)
		want := bruteForceMin(ops)
		if got != want {
			t.Fatalf("trial %d: optimizer %d, brute force %d (ops %+v)", trial, got, want, ops)
		}
	}
}

func bruteForceMin(ops []MuxOp) int {
	var flex []int
	for i, op := range ops {
		if op.Commutative && op.B != "" {
			flex = append(flex, i)
		}
	}
	best := 1 << 30
	for mask := 0; mask < 1<<len(flex); mask++ {
		s1, s2 := map[string]bool{}, map[string]bool{}
		swap := make(map[int]bool)
		for idx, i := range flex {
			swap[i] = mask&(1<<idx) != 0
		}
		for i, op := range ops {
			a, b := op.A, op.B
			if swap[i] {
				a, b = b, a
			}
			s1[a] = true
			if b != "" {
				s2[b] = true
			}
		}
		if size := len(s1) + len(s2); size < best {
			best = size
		}
	}
	return best
}

func TestOptimizeLargeFallsBackToGreedy(t *testing.T) {
	// More commutative ops than the exact limit: the greedy+improve path
	// must still produce consistent lists covering every operand.
	r := rand.New(rand.NewSource(3))
	sigs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ops := make([]MuxOp, exactSearchLimit+8)
	for i := range ops {
		ops[i] = MuxOp{A: sigs[r.Intn(len(sigs))], B: sigs[r.Intn(len(sigs))], Commutative: true}
	}
	l1, l2, swapped := OptimizeMuxLists(ops)
	in := func(l []string, s string) bool {
		for _, x := range l {
			if x == s {
				return true
			}
		}
		return false
	}
	for i, op := range ops {
		a, b := op.A, op.B
		if swapped[i] {
			a, b = b, a
		}
		if !in(l1, a) || !in(l2, b) {
			t.Fatalf("op %d operands not covered by lists", i)
		}
	}
}

// optimizeMuxListsMap is the historical map-based §5.6 optimizer: string
// sets per port, a branch and bound that prunes only on the running size,
// and a greedy pass plus refcounted improvement sweep beyond
// exactSearchLimit. It is the oracle the dense-id optimizer must match
// byte for byte (lists and orientations).
func optimizeMuxListsMap(ops []MuxOp) (l1, l2 []string, swapped []bool) {
	swapped = make([]bool, len(ops))
	set1, set2 := map[string]bool{}, map[string]bool{}
	var flex []int
	for i, op := range ops {
		switch {
		case op.B == "":
			set1[op.A] = true
		case !op.Commutative:
			set1[op.A] = true
			set2[op.B] = true
		default:
			flex = append(flex, i)
		}
	}
	if len(flex) <= exactSearchLimit {
		best := 1 << 30
		bestMask := 0
		mapSearch(ops, flex, 0, 0, mapCloneSet(set1), mapCloneSet(set2), &best, &bestMask)
		for idx, i := range flex {
			swap := bestMask&(1<<idx) != 0
			swapped[i] = swap
			a, b := ops[i].A, ops[i].B
			if swap {
				a, b = b, a
			}
			set1[a] = true
			set2[b] = true
		}
	} else {
		for _, i := range flex {
			op := ops[i]
			direct := mapAddCount(set1, op.A) + mapAddCount(set2, op.B)
			crossed := mapAddCount(set1, op.B) + mapAddCount(set2, op.A)
			swap := crossed < direct
			swapped[i] = swap
			a, b := op.A, op.B
			if swap {
				a, b = b, a
			}
			set1[a] = true
			set2[b] = true
		}
		mapImproveOnce(ops, flex, set1, set2, swapped)
	}
	return mapSortedKeys(set1), mapSortedKeys(set2), swapped
}

// mapSearch explores orientation assignments for flex[idx:], pruning
// when the running size already meets the best found.
func mapSearch(ops []MuxOp, flex []int, idx, mask int, s1, s2 map[string]bool, best *int, bestMask *int) {
	if size := len(s1) + len(s2); size >= *best {
		return
	}
	if idx == len(flex) {
		*best = len(s1) + len(s2)
		*bestMask = mask
		return
	}
	op := ops[flex[idx]]
	direct := mapAddCount(s1, op.A) + mapAddCount(s2, op.B)
	crossed := mapAddCount(s1, op.B) + mapAddCount(s2, op.A)
	order := []bool{false, true}
	if crossed < direct {
		order = []bool{true, false}
	}
	for _, swap := range order {
		a, b := op.A, op.B
		if swap {
			a, b = b, a
		}
		added1 := !s1[a]
		added2 := !s2[b]
		s1[a], s2[b] = true, true
		m := mask
		if swap {
			m |= 1 << idx
		}
		mapSearch(ops, flex, idx+1, m, s1, s2, best, bestMask)
		if added1 {
			delete(s1, a)
		}
		if added2 {
			delete(s2, b)
		}
	}
}

// mapImproveOnce is the map-refcount improvement sweep: flip any single
// orientation whose flip shrinks |L1|+|L2| until a sweep makes no
// progress, then rebuild both sets.
func mapImproveOnce(ops []MuxOp, flex []int, s1, s2 map[string]bool, swapped []bool) {
	c1, c2 := map[string]int{}, map[string]int{}
	for i, op := range ops {
		switch {
		case op.B == "":
			c1[op.A]++
		case !op.Commutative:
			c1[op.A]++
			c2[op.B]++
		default:
			a, b := op.A, op.B
			if swapped[i] {
				a, b = b, a
			}
			c1[a]++
			c2[b]++
		}
	}
	move := func(c map[string]int, sig string, d int) int {
		c[sig] += d
		if d > 0 && c[sig] == 1 {
			return 1
		}
		if d < 0 && c[sig] == 0 {
			return -1
		}
		return 0
	}
	for changed := true; changed; {
		changed = false
		for _, i := range flex {
			a, b := ops[i].A, ops[i].B
			if swapped[i] {
				a, b = b, a
			}
			delta := move(c1, a, -1) + move(c1, b, +1) +
				move(c2, b, -1) + move(c2, a, +1)
			if delta < 0 {
				swapped[i] = !swapped[i]
				changed = true
			} else {
				move(c1, b, -1)
				move(c1, a, +1)
				move(c2, a, -1)
				move(c2, b, +1)
			}
		}
	}
	for k := range s1 {
		delete(s1, k)
	}
	for k := range s2 {
		delete(s2, k)
	}
	for i, op := range ops {
		switch {
		case op.B == "":
			s1[op.A] = true
		case !op.Commutative:
			s1[op.A] = true
			s2[op.B] = true
		default:
			a, b := op.A, op.B
			if swapped[i] {
				a, b = b, a
			}
			s1[a] = true
			s2[b] = true
		}
	}
}

func mapAddCount(s map[string]bool, sig string) int {
	if sig == "" || s[sig] {
		return 0
	}
	return 1
}

func mapCloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func mapSortedKeys(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameMuxResult reports the first difference between two optimizer
// results, or "" when lists and orientations are identical.
func sameMuxResult(l1, l2 []string, sw []bool, w1, w2 []string, wsw []bool) string {
	switch {
	case !reflect.DeepEqual(l1, w1):
		return fmt.Sprintf("L1 = %q, oracle %q", l1, w1)
	case !reflect.DeepEqual(l2, w2):
		return fmt.Sprintf("L2 = %q, oracle %q", l2, w2)
	case !reflect.DeepEqual(sw, wsw):
		return fmt.Sprintf("swapped = %v, oracle %v", sw, wsw)
	}
	return ""
}

// TestOptimizeMuxListsMatchesMapOracle drives random orientation
// problems on both sides of exactSearchLimit — unary, non-commutative
// and commutative ops, repeated signals, and the empty signal as an
// operand — through OptimizeMuxLists and the map oracle and requires
// identical lists and orientations. Real ALU op lists are checked by
// TestOptimizeMuxListsMatchesMapOracleOnDesigns.
func TestOptimizeMuxListsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var exact, greedy int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		pool := 1 + rng.Intn(24)
		commPct := []int{30, 60, 90}[rng.Intn(3)]
		sig := func() string {
			if rng.Intn(12) == 0 {
				return ""
			}
			return fmt.Sprintf("s%d", rng.Intn(pool))
		}
		ops := make([]MuxOp, n)
		for i := range ops {
			switch r := rng.Intn(100); {
			case r < 10:
				ops[i] = MuxOp{A: sig()}
			case r < 10+commPct*9/10:
				ops[i] = MuxOp{A: sig(), B: sig(), Commutative: true}
			default:
				ops[i] = MuxOp{A: sig(), B: sig()}
			}
		}
		flex := 0
		for _, op := range ops {
			if op.Commutative && op.B != "" {
				flex++
			}
		}
		if flex <= exactSearchLimit {
			exact++
		} else {
			greedy++
		}
		w1, w2, wsw := optimizeMuxListsMap(ops)
		l1, l2, sw := OptimizeMuxLists(ops)
		if d := sameMuxResult(l1, l2, sw, w1, w2, wsw); d != "" {
			t.Fatalf("trial %d (ops %+v): %s", trial, ops, d)
		}
	}
	if exact < 1000 || greedy < 500 {
		t.Fatalf("instances: %d exact, %d greedy; want both sides of the limit covered", exact, greedy)
	}
}

func TestReoptimizeMuxesNeverRegresses(t *testing.T) {
	// Covered end-to-end in the mfsa tests; here check the empty case.
	dp := NewDatapath(nil)
	if dp.ReoptimizeMuxes(nil) != 0 {
		t.Error("empty datapath reported savings")
	}
}

// improveOnceScan is the historical quadratic sweep — two full set
// rebuilds per candidate flip — kept as the oracle the incremental
// refcount sweep must match flip for flip.
func improveOnceScan(ops []MuxOp, flex []int, swapped []bool) {
	for changed := true; changed; {
		changed = false
		for _, i := range flex {
			cur := rebuildSize(ops, swapped)
			swapped[i] = !swapped[i]
			if rebuildSize(ops, swapped) < cur {
				changed = true
			} else {
				swapped[i] = !swapped[i]
			}
		}
	}
}

// TestImproveOnceMatchesScanOracle drives random orientation problems —
// above the exact-search limit, with shared signals, unary and
// non-commutative ops mixed in — through the incremental sweep and the
// historical scan and requires identical final orientations.
func TestImproveOnceMatchesScanOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := exactSearchLimit + 1 + rng.Intn(60)
		sigs := 2 + rng.Intn(12)
		sig := func() string { return fmt.Sprintf("s%d", rng.Intn(sigs)) }
		ops := make([]MuxOp, n)
		var flex []int
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i] = MuxOp{A: sig()}
			case 1:
				ops[i] = MuxOp{A: sig(), B: sig()}
			default:
				ops[i] = MuxOp{A: sig(), B: sig(), Commutative: true}
				flex = append(flex, i)
			}
		}
		start := make([]bool, n)
		for _, i := range flex {
			start[i] = rng.Intn(2) == 0
		}
		want := append([]bool(nil), start...)
		improveOnceScan(ops, flex, want)
		got := append([]bool(nil), start...)
		var s muxScratch
		s.intern(ops)
		for _, i := range s.flex {
			a, b := s.opA[i], s.opB[i]
			if got[i] {
				a, b = b, a
			}
			s.c1[a]++
			s.c2[b]++
		}
		s.improve(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: orientation %d = %v, oracle %v", seed, i, got[i], want[i])
			}
		}
		if size := len(s.portList(s.c1)) + len(s.portList(s.c2)); size != rebuildSize(ops, want) {
			t.Fatalf("seed %d: refcounted size %d, oracle %d", seed, size, rebuildSize(ops, want))
		}
	}
}

// rebuildSize is |L1|+|L2| re-derived from scratch for the given
// orientations.
func rebuildSize(ops []MuxOp, swapped []bool) int {
	s1, s2 := map[string]bool{}, map[string]bool{}
	for i, op := range ops {
		switch {
		case op.B == "":
			s1[op.A] = true
		case !op.Commutative:
			s1[op.A] = true
			s2[op.B] = true
		default:
			a, b := op.A, op.B
			if swapped[i] {
				a, b = b, a
			}
			s1[a] = true
			s2[b] = true
		}
	}
	return len(s1) + len(s2)
}
