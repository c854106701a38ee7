package rtl

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkPackRegisters(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ivals := make([]Interval, 64)
	names := make([]string, len(ivals))
	for i := range ivals {
		names[i] = fmt.Sprintf("v%d", i)
	}
	g := inputGraph(b, names...)
	for i := range ivals {
		birth := r.Intn(20)
		ivals[i] = Interval{Signal: sig(b, g, names[i]), Birth: birth, Death: birth + 1 + r.Intn(6)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackRegisters(g, ivals)
	}
}

func BenchmarkOptimizeMuxListsExact(b *testing.B) {
	sigs := []string{"a", "b", "c", "d", "e"}
	r := rand.New(rand.NewSource(2))
	ops := make([]MuxOp, 12)
	for i := range ops {
		ops[i] = MuxOp{A: sigs[r.Intn(5)], B: sigs[r.Intn(5)], Commutative: true}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimizeMuxLists(ops)
	}
}
