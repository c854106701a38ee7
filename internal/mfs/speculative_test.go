package mfs

import (
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/pool"
)

// symbolLimits builds a resource-limit map covering every op symbol in
// the example's graph.
func symbolLimits(ex *benchmarks.Example, n int) map[string]int {
	limits := make(map[string]int)
	for _, node := range ex.Graph.Nodes() {
		limits[TypeKey(node)] = n
	}
	return limits
}

// TestSpeculativeSearchMatchesSequential is the determinism guard for
// the parallel resource-constrained mode: on every benchmark graph and
// several limit tightnesses, the speculative windowed search must return
// the same schedule — same cs and same placement of every operation —
// as the sequential cs loop.
func TestSpeculativeSearchMatchesSequential(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, n := range []int{1, 2} {
			opt := Options{Limits: symbolLimits(ex, n), ClockNs: ex.ClockNs}

			seqOpt := opt
			seqOpt.Parallelism = 1
			want, err := Schedule(ex.Graph, seqOpt)
			if err != nil {
				t.Fatalf("%s limits=%d sequential: %v", ex.Name, n, err)
			}

			for _, workers := range []int{2, 4, 16} {
				parOpt := opt
				parOpt.Parallelism = workers
				got, err := Schedule(ex.Graph, parOpt)
				if err != nil {
					t.Fatalf("%s limits=%d workers=%d: %v", ex.Name, n, workers, err)
				}
				if got.CS != want.CS {
					t.Errorf("%s limits=%d workers=%d: cs = %d, want %d",
						ex.Name, n, workers, got.CS, want.CS)
				}
				for _, node := range ex.Graph.Nodes() {
					gp, gok := got.At(node.ID)
					wp, wok := want.At(node.ID)
					if gok != wok {
						t.Fatalf("%s limits=%d workers=%d: node %d placed %v, want %v",
							ex.Name, n, workers, node.ID, gok, wok)
					}
					if gp != wp {
						t.Errorf("%s limits=%d workers=%d: node %d placed %+v, want %+v",
							ex.Name, n, workers, node.ID, gp, wp)
					}
				}
			}
		}
	}

	// The default on a graph of pool.GrainNodes nodes or more keeps the
	// speculative window: GOMAXPROCS probes at a time.
	ex := grainExample(t)
	for _, n := range []int{1, 2, 4} {
		opt := Options{Limits: symbolLimits(ex, n)}
		seqOpt := opt
		seqOpt.Parallelism = 1
		want, err := Schedule(ex.Graph, seqOpt)
		if err != nil {
			t.Fatalf("%s limits=%d sequential: %v", ex.Name, n, err)
		}
		got, err := Schedule(ex.Graph, opt)
		if err != nil {
			t.Fatalf("%s limits=%d default: %v", ex.Name, n, err)
		}
		if got.CS != want.CS {
			t.Errorf("%s limits=%d default: cs = %d, want %d", ex.Name, n, got.CS, want.CS)
		}
		for _, node := range ex.Graph.Nodes() {
			gp, gok := got.At(node.ID)
			wp, wok := want.At(node.ID)
			if gp != wp || gok != wok {
				t.Errorf("%s limits=%d default: node %d placed %+v (%v), want %+v (%v)",
					ex.Name, n, node.ID, gp, gok, wp, wok)
			}
		}
	}
}

// grainExample wraps a generated graph of at least pool.GrainNodes nodes,
// on which the default parallelism fans the search out.
func grainExample(t *testing.T) *benchmarks.Example {
	t.Helper()
	g, err := gen.Generate(gen.Config{Nodes: 80, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() < pool.GrainNodes {
		t.Fatalf("gen graph has %d nodes, below the grain of %d", g.Len(), pool.GrainNodes)
	}
	return &benchmarks.Example{Name: "gen80", Graph: g}
}

// TestSpeculativeSearchInfeasible checks the failure path matches too:
// when no cs within MaxCS is feasible, every parallelism setting reports
// the sequential loop's final error.
func TestSpeculativeSearchInfeasible(t *testing.T) {
	// Eight independent additions on one adder need eight steps; capping
	// the search at four makes every probed cs fail.
	g := dfg.New("infeasible")
	g.AddInput("a")
	g.AddInput("b")
	for i := 0; i < 8; i++ {
		if _, err := g.AddOp(fmt.Sprintf("s%d", i), op.Add, "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	opt := Options{Limits: map[string]int{"+": 1}, MaxCS: 4}
	opt.Parallelism = 1
	_, seqErr := Schedule(g, opt)
	if seqErr == nil {
		t.Fatal("sequential run unexpectedly feasible")
	}
	opt.Parallelism = 8
	_, parErr := Schedule(g, opt)
	if parErr == nil {
		t.Fatal("parallel run unexpectedly feasible")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error mismatch:\nsequential: %v\nparallel:   %v", seqErr, parErr)
	}

	// The default on a graph of pool.GrainNodes nodes or more: one unit
	// of each type cannot fit gen80 within three steps of its critical
	// path, so every window fails.
	big := grainExample(t)
	bigOpt := Options{Limits: symbolLimits(big, 1), MaxCS: big.Graph.CriticalPathCycles() + 3, Parallelism: 1}
	_, seqErr = Schedule(big.Graph, bigOpt)
	if seqErr == nil {
		t.Fatal("gen80 sequential run unexpectedly feasible")
	}
	bigOpt.Parallelism = 0
	_, defErr := Schedule(big.Graph, bigOpt)
	if defErr == nil || defErr.Error() != seqErr.Error() {
		t.Errorf("gen80 error mismatch:\nsequential: %v\ndefault:    %v", seqErr, defErr)
	}
}
