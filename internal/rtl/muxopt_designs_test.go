package rtl_test

import (
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/rtl"
)

// aluMuxOps synthesizes g at its critical path + 4 steps and returns
// every ALU's op list exactly as ReoptimizeMuxes sees it.
func aluMuxOps(tb testing.TB, g *dfg.Graph) [][]rtl.MuxOp {
	tb.Helper()
	res, err := mfsa.Synthesize(g, mfsa.Options{CS: g.CriticalPathCycles() + 4})
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]rtl.MuxOp
	for _, a := range res.Datapath.ALUs {
		ops := make([]rtl.MuxOp, len(a.Ops))
		for i, b := range a.Ops {
			n := g.Node(b.Node)
			ops[i] = rtl.MuxOp{A: n.Args[0], Commutative: n.Op.Commutative()}
			if len(n.Args) > 1 {
				ops[i].B = n.Args[1]
			}
		}
		out = append(out, ops)
	}
	return out
}

// flexOps counts the operations whose orientation the optimizer chooses.
func flexOps(ops []rtl.MuxOp) int {
	n := 0
	for _, op := range ops {
		if op.Commutative && op.B != "" {
			n++
		}
	}
	return n
}

// oracleGraphs are the designs whose real ALU op lists the optimizer is
// checked on: the 300-node shapes of generator seeds 1001–1024, a
// 2000-node seed-1 graph and a 64-tap FIR, all with 2-cycle multipliers.
func oracleGraphs(tb testing.TB) []*dfg.Graph {
	tb.Helper()
	var gs []*dfg.Graph
	for seed := int64(1001); seed <= 1024; seed++ {
		g, err := gen.Generate(gen.Config{Nodes: 300, MulCycles: 2, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	g, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	fir, err := gen.FIR(64, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return append(gs, g, fir)
}

// TestOptimizeMuxListsMatchesMapOracleOnDesigns requires identical
// L1/L2 lists and orientations from OptimizeMuxLists and the map oracle
// on every ALU of mfsa-synthesized generator designs, on both sides of
// the exact-search limit.
func TestOptimizeMuxListsMatchesMapOracleOnDesigns(t *testing.T) {
	var alus, searched, greedy int
	for gi, g := range oracleGraphs(t) {
		for k, ops := range aluMuxOps(t, g) {
			alus++
			switch f := flexOps(ops); {
			case f > 16:
				greedy++
			case f >= 9:
				searched++
			}
			w1, w2, wsw := rtl.OptimizeMuxListsMap(ops)
			l1, l2, sw := rtl.OptimizeMuxLists(ops)
			if !reflect.DeepEqual(l1, w1) || !reflect.DeepEqual(l2, w2) || !reflect.DeepEqual(sw, wsw) {
				t.Fatalf("graph %d (%s) ALU %d: got %q %q %v, oracle %q %q %v", gi, g.Name, k, l1, l2, sw, w1, w2, wsw)
			}
		}
	}
	if searched == 0 || greedy == 0 {
		t.Fatalf("%d ALUs: %d with 9–16 commutative ops, %d above 16; want both", alus, searched, greedy)
	}
	t.Logf("%d ALUs: %d with 9–16 commutative ops, %d above 16", alus, searched, greedy)
}

// BenchmarkOptimizeMuxLists times the optimizer on a real ALU with
// exactly exactSearchLimit (16) commutative operations: the first such
// ALU of the 300-node generator shapes from seed 1001 on.
func BenchmarkOptimizeMuxLists(b *testing.B) {
	var ops []rtl.MuxOp
	for seed := int64(1001); ops == nil && seed <= 1024; seed++ {
		g, err := gen.Generate(gen.Config{Nodes: 300, MulCycles: 2, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range aluMuxOps(b, g) {
			if flexOps(o) == 16 {
				ops = o
				break
			}
		}
	}
	if ops == nil {
		b.Fatal("no ALU with 16 commutative ops")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtl.OptimizeMuxLists(ops)
	}
}
