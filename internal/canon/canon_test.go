package canon

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/library"
	"repro/internal/op"
)

// rebuild reconstructs g with every signal renamed through ren and the
// nodes inserted in the given (topologically valid) order — the two
// transformations Canonical must be blind to.
func rebuild(t *testing.T, g *dfg.Graph, ren func(string) string, order []dfg.NodeID) *dfg.Graph {
	t.Helper()
	out := dfg.New(g.Name + "~rebuilt")
	for _, in := range g.Inputs() {
		if err := out.AddInput(ren(in)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range order {
		n := g.Node(id)
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = ren(a)
		}
		var nid dfg.NodeID
		var err error
		if n.IsLoop() {
			innerRen := func(s string) string { return "q" + s }
			sub := rebuild(t, n.Sub, innerRen, n.Sub.TopoOrder())
			binds := make(map[string]string, len(n.SubIns))
			for i, si := range n.SubIns {
				binds[innerRen(si)] = args[i]
			}
			nid, err = out.AddLoop(ren(n.Name), sub, innerRen(n.SubOut), binds)
		} else {
			nid, err = out.AddOp(ren(n.Name), n.Op, args...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n.Cycles > 1 {
			if err := out.SetCycles(nid, n.Cycles); err != nil {
				t.Fatal(err)
			}
		}
		if n.DelayNs > 0 && !n.IsLoop() {
			if err := out.SetDelayNs(nid, n.DelayNs); err != nil {
				t.Fatal(err)
			}
		}
		if len(n.Excl) > 0 {
			if err := out.Tag(nid, n.Excl...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// reversingRename maps the graph's signal names onto fresh names whose
// lexicographic order is the reverse of the originals', so the
// canonicalizer's name-sorted seed order is maximally perturbed.
func reversingRename(g *dfg.Graph) func(string) string {
	var names []string
	names = append(names, g.Inputs()...)
	for _, n := range g.Nodes() {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	m := make(map[string]string, len(names))
	for i, name := range names {
		m[name] = fmt.Sprintf("r%04d", len(names)-1-i)
	}
	return func(s string) string { return m[s] }
}

// altOrder returns a topologically valid insertion order that differs
// from ID order whenever the graph admits one (descending-ID greedy).
func altOrder(g *dfg.Graph) []dfg.NodeID {
	placed := make([]bool, g.Len())
	var order []dfg.NodeID
	for len(order) < g.Len() {
		for id := g.Len() - 1; id >= 0; id-- {
			if placed[id] {
				continue
			}
			n := g.Node(dfg.NodeID(id))
			ready := true
			for _, p := range n.Preds() {
				if !placed[p] {
					ready = false
					break
				}
			}
			if ready {
				placed[id] = true
				order = append(order, n.ID)
			}
		}
	}
	return order
}

// TestCanonicalIsomorphismInvariant: renaming every signal (reversing
// the name order) and re-inserting the nodes in a different valid order
// must not change the canonical hash on any paper benchmark, while the
// strict fingerprint must notice both transformations.
func TestCanonicalIsomorphismInvariant(t *testing.T) {
	for _, ex := range benchmarks.All() {
		cfg := core.Config{CS: ex.TimeConstraints[0]}
		base, err := Canonical(ex.Graph, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		renamed := rebuild(t, ex.Graph, reversingRename(ex.Graph), ex.Graph.TopoOrder())
		reordered := rebuild(t, ex.Graph, func(s string) string { return s }, altOrder(ex.Graph))
		both := rebuild(t, ex.Graph, reversingRename(ex.Graph), altOrder(ex.Graph))
		for what, g := range map[string]*dfg.Graph{
			"renamed": renamed, "reordered": reordered, "renamed+reordered": both,
		} {
			h, err := Canonical(g, nil, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", ex.Name, what, err)
			}
			if h != base {
				t.Errorf("%s: canonical hash changed under %s variant: %s != %s",
					ex.Name, what, h, base)
			}
		}

		fp, err := Fingerprint(ex.Graph, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for what, g := range map[string]*dfg.Graph{"renamed": renamed, "reordered": reordered} {
			got, err := Fingerprint(g, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got == fp {
				t.Errorf("%s: fingerprint blind to %s variant", ex.Name, what)
			}
		}
	}
}

// loopGraph is a small outer graph around one folded 3-cycle loop whose
// body reads both of its sub inputs.
func loopGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	sub := dfg.New("body")
	for _, in := range []string{"u", "v"} {
		if err := sub.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sub.AddOp("w", op.Mul, "u", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.AddOp("x", op.Add, "w", "u"); err != nil {
		t.Fatal(err)
	}
	g := dfg.New("outer")
	for _, in := range []string{"a", "b", "c"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddOp("s", op.Add, "a", "b"); err != nil {
		t.Fatal(err)
	}
	id, err := g.AddLoop("lp", sub, "x", map[string]string{"u": "s", "v": "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCycles(id, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("y", op.Sub, "lp", "a"); err != nil {
		t.Fatal(err)
	}
	return g
}

// hashPins are the literal Canonical and Fingerprint values of the six
// paper graphs (at their first Table 1 time constraint) and of loopGraph
// (at 6 steps). hlsd embeds Canonical in every response it synthesizes
// and keys its cache entries by Fingerprint, so these bytes are a wire
// contract: an encoding or hashing change must fail here, not drift.
var hashPins = map[string][2]string{
	"facet":      {"b49f7e2b57f3369ed02c8506ea7b5f73fadff69d4519247d8b2a846e45b99c0b", "0dcf4881809c94be5e575f17d35b8b890efdd831d455bf572d081accc0c6deb2"},
	"chained":    {"d66050b19b898a6fa9823761227510034ce39368fb20ec57ee84224063ddefd3", "b5f980ee03cb049c8ac3d82dd752e395091f875b867c95ca76c46afdd1f0c033"},
	"diffeq":     {"eec54099115a79a4b094069db52eeb149eed85ba9b6e94298569514e9aa0a655", "2aa96c9a76fc9c697b5e747d42b6732503c7479390056cf0e3372df3d1e969f7"},
	"ar-lattice": {"b732cca2f8f1a9d9a086ce182eb4d1dfa0bef74ea7caf6b4cb32ff53e4705aee", "01c3d36f9af1e161034de131e4170ff1cb8a66762b16cdd7fe556de9e5e154d3"},
	"bandpass":   {"357aa0d53cab9a58a511acd2b0f662acdc3f9d945ebc56b3133ed561da50a9d7", "934f4c24369760b6a5cfd3055e17bc64e0cf4805ba4fd9b51df02eb663b1ab9a"},
	"ewf":        {"37eecc833a063c633b08c65d85c14275d4f06a6e20a4fbb94b22563f8002a657", "92ce4ecb9bbf83b6bb9f8984f151c20fb9e9c89396c65508711b1913a80638d1"},
	"loop":       {"e0aef9d131b54fe7062e232331e7a25ae1dd1a7bac3245aa03436b5d9e8d23cc", "49360a7fbff4bb0ad46da38fbb30f5cc62be80470ed5ba4cab86676668912b42"},
}

func TestHashGoldenPins(t *testing.T) {
	type pinCase struct {
		name string
		g    *dfg.Graph
		cfg  core.Config
	}
	var cases []pinCase
	for _, ex := range benchmarks.All() {
		cases = append(cases, pinCase{ex.Name, ex.Graph, core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs}})
	}
	cases = append(cases, pinCase{"loop", loopGraph(t), core.Config{CS: 6}})
	for _, c := range cases {
		ch, err := Canonical(c.g, nil, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Fingerprint(c.g, nil, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]string{ch.String(), fp.String()}; got != hashPins[c.name] {
			t.Errorf("%q: {%q, %q}, // pinned %q", c.name, got[0], got[1], hashPins[c.name])
		}
	}
}

// TestCanonicalLoopGraph extends the invariance property to folded
// loops: the sub-graph canonicalizes recursively and the positional
// binding of outer operands onto sub inputs is tracked canonically.
func TestCanonicalLoopGraph(t *testing.T) {
	g := loopGraph(t)
	base, err := Canonical(g, nil, core.Config{CS: 6})
	if err != nil {
		t.Fatal(err)
	}
	variant := rebuild(t, g, reversingRename(g), altOrder(g))
	h, err := Canonical(variant, nil, core.Config{CS: 6})
	if err != nil {
		t.Fatal(err)
	}
	if h != base {
		t.Errorf("loop graph: canonical hash changed under rename+reorder")
	}
}

// TestCanonicalDistinguishesSharing: a+a (one input read twice) and a+b
// (two symmetric inputs) are not isomorphic and must hash apart — the
// classic trap for name-insensitive leaf hashing.
func TestCanonicalDistinguishesSharing(t *testing.T) {
	shared := dfg.New("shared")
	if err := shared.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.AddOp("s", op.Add, "a", "a"); err != nil {
		t.Fatal(err)
	}
	distinct := dfg.New("distinct")
	for _, in := range []string{"a", "b"} {
		if err := distinct.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := distinct.AddOp("s", op.Add, "a", "b"); err != nil {
		t.Fatal(err)
	}
	h1, err := Canonical(shared, nil, core.Config{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Canonical(distinct, nil, core.Config{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("a+a and a+b hash equal")
	}
}

// TestCanonicalSymmetricInputs: when two inputs are genuinely
// interchangeable (s=a+b, t=b+a), swapping their roles is an
// automorphism and the hash must not depend on which one the tie-break
// seats first.
func TestCanonicalSymmetricInputs(t *testing.T) {
	build := func(first, second string) *dfg.Graph {
		g := dfg.New("sym")
		for _, in := range []string{first, second} {
			if err := g.AddInput(in); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.AddOp("s", op.Add, first, second); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddOp("t", op.Add, second, first); err != nil {
			t.Fatal(err)
		}
		return g
	}
	h1, err := Canonical(build("a", "b"), nil, core.Config{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The renamed copy maps a's role onto "z" so the name-sorted seed
	// order seats the roles in the opposite order.
	h2, err := Canonical(build("z", "b"), nil, core.Config{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("automorphic input swap changed the canonical hash")
	}
}

// graph mutations that must change the canonical hash: every semantic
// node field.
func TestCanonicalGraphSensitivity(t *testing.T) {
	base := func(t *testing.T, mutate func(g *dfg.Graph, mul, add dfg.NodeID)) Hash {
		t.Helper()
		g := dfg.New("m")
		for _, in := range []string{"a", "b", "c"} {
			if err := g.AddInput(in); err != nil {
				t.Fatal(err)
			}
		}
		mul, err := g.AddOp("p", op.Mul, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		add, err := g.AddOp("s", op.Sub, "p", "c")
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(g, mul, add)
		}
		h, err := Canonical(g, nil, core.Config{CS: 4})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref := base(t, nil)
	muts := map[string]func(g *dfg.Graph, mul, add dfg.NodeID){
		"multicycle": func(g *dfg.Graph, mul, _ dfg.NodeID) {
			if err := g.SetCycles(mul, 2); err != nil {
				t.Fatal(err)
			}
		},
		"delay": func(g *dfg.Graph, mul, _ dfg.NodeID) {
			if err := g.SetDelayNs(mul, 18.5); err != nil {
				t.Fatal(err)
			}
		},
		"excl-tag": func(g *dfg.Graph, _, add dfg.NodeID) {
			if err := g.Tag(add, dfg.CondTag{Cond: 1, Branch: 0}); err != nil {
				t.Fatal(err)
			}
		},
		"extra-node": func(g *dfg.Graph, _, _ dfg.NodeID) {
			if _, err := g.AddOp("extra", op.Add, "s", "a"); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range muts {
		if h := base(t, mutate); h == ref {
			t.Errorf("mutation %s did not change the canonical hash", name)
		}
	}

	// Operand order of a non-commutative node is semantic.
	g := dfg.New("m")
	for _, in := range []string{"a", "b", "c"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddOp("p", op.Mul, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("s", op.Sub, "c", "p"); err != nil { // swapped args
		t.Fatal(err)
	}
	h, err := Canonical(g, nil, core.Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h == ref {
		t.Error("swapping Sub operands did not change the canonical hash")
	}

	// A different operator kind is semantic.
	g2 := dfg.New("m")
	for _, in := range []string{"a", "b", "c"} {
		if err := g2.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g2.AddOp("p", op.Add, "a", "b"); err != nil { // Mul -> Add
		t.Fatal(err)
	}
	if _, err := g2.AddOp("s", op.Sub, "p", "c"); err != nil {
		t.Fatal(err)
	}
	h2, err := Canonical(g2, nil, core.Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h2 == ref {
		t.Error("changing an op kind did not change the canonical hash")
	}
}

// TestConfigSensitivity: every semantic Config field change rehashes;
// the excluded execution knobs (Parallelism, Timeout) and equivalent
// guard spellings do not.
func TestConfigSensitivity(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	hash := func(cfg core.Config) Hash {
		h, err := Canonical(g, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := core.Config{CS: 4}
	ref := hash(base)

	sensitive := map[string]core.Config{
		"cs":              {CS: 5},
		"limits":          {CS: 4, Limits: map[string]int{"alu2": 1}},
		"limits-value":    {CS: 4, Limits: map[string]int{"alu2": 2}},
		"clock":           {CS: 4, ClockNs: 40},
		"latency":         {CS: 4, Latency: 2},
		"pipelined-ops":   {CS: 4, PipelinedOps: []string{"*"}},
		"style":           {CS: 4, Style: 2},
		"weights":         {CS: 4, Weights: [4]float64{1, 2, 3, 4}},
		"register-inputs": {CS: 4, RegisterInputs: true},
		"optimize":        {CS: 4, Optimize: true},
		"lint":            {CS: 4, Lint: true},
		"notrace":         {CS: 4, NoTrace: true},
		"maxnodes":        {CS: 4, MaxNodes: 10},
		"maxcsteps":       {CS: 4, MaxCSteps: 100},
	}
	for name, cfg := range sensitive {
		if hash(cfg) == ref {
			t.Errorf("config field %s did not change the hash", name)
		}
	}

	insensitive := map[string]core.Config{
		"parallelism":        {CS: 4, Parallelism: 7},
		"timeout":            {CS: 4, Timeout: 3 * time.Second},
		"style-zero-is-one":  {CS: 4, Style: 1},
		"maxnodes-default":   {CS: 4, MaxNodes: guard.DefaultMaxNodes},
		"maxcsteps-default":  {CS: 4, MaxCSteps: guard.DefaultMaxCSteps},
		"negative-unlimited": {CS: 4, MaxNodes: -1, MaxCSteps: -1},
	}
	want := map[string]Hash{
		"negative-unlimited": hash(core.Config{CS: 4, MaxNodes: -2, MaxCSteps: -9}),
	}
	for name, cfg := range insensitive {
		expect := ref
		if w, ok := want[name]; ok {
			expect = w
		}
		if hash(cfg) != expect {
			t.Errorf("non-semantic config spelling %s changed the hash", name)
		}
	}
}

// TestLibrarySensitivity: every library cost parameter and unit field
// is semantic; a nil library hashes as the NCR default it resolves to.
func TestLibrarySensitivity(t *testing.T) {
	g := benchmarks.Facet().Graph
	cfg := core.Config{CS: 4}
	hash := func(lib *library.Library) Hash {
		h, err := Canonical(g, lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	mk := func(reg, muxBase, muxStep, muxCurve float64, units ...*library.Unit) *library.Library {
		l := library.New("custom", reg, muxBase, muxStep, muxCurve)
		for _, u := range units {
			if err := l.Add(u); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	unit := func(name string, area float64, stages int, kinds ...op.Kind) *library.Unit {
		return &library.Unit{Name: name, Ops: kinds, Area: area, Stages: stages}
	}

	ref := hash(mk(100, 50, 30, 0.8, unit("add", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)))
	variants := map[string]*library.Library{
		"reg-area":   mk(101, 50, 30, 0.8, unit("add", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"mux-base":   mk(100, 51, 30, 0.8, unit("add", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"mux-step":   mk(100, 50, 31, 0.8, unit("add", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"mux-curve":  mk(100, 50, 30, 0.9, unit("add", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"unit-area":  mk(100, 50, 30, 0.8, unit("add", 501, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"unit-name":  mk(100, 50, 30, 0.8, unit("adder", 500, 1, op.Add), unit("mul", 2000, 1, op.Mul)),
		"unit-ops":   mk(100, 50, 30, 0.8, unit("add", 500, 1, op.Add, op.Sub), unit("mul", 2000, 1, op.Mul)),
		"unit-pipe":  mk(100, 50, 30, 0.8, unit("add", 500, 1, op.Add), unit("mul", 2000, 2, op.Mul)),
		"unit-fewer": mk(100, 50, 30, 0.8, unit("add", 500, 1, op.Add)),
	}
	for name, lib := range variants {
		if hash(lib) == ref {
			t.Errorf("library variant %s did not change the hash", name)
		}
	}

	if hash(nil) != hash(library.NCRLike()) {
		t.Error("nil library does not hash as the NCR default")
	}
}

// TestCanonicalConcurrent: hashing is a pure read of the (frozen)
// request; 32 goroutines hashing the same graph must agree bytewise.
// Run under -race this also proves Canonical takes no locks it needs.
func TestCanonicalConcurrent(t *testing.T) {
	g := benchmarks.EWF().Graph
	cfg := core.Config{CS: 17}
	want, err := Canonical(g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]Hash, 32)
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Canonical(g, nil, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 32; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("goroutine %d: hash %s != %s", i, got[i], want)
		}
	}
}
