// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6), plus the ablation studies. Each benchmark
// prints its regenerated table once (so `go test -bench . -benchmem`
// reproduces the paper's rows) and then times the computation.
package hls_test

import (
	"fmt"
	"sync"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/report"
)

var printOnce sync.Map

func printTableOnce(key string, fn func() (*report.Table, error), b *testing.B) {
	if _, done := printOnce.LoadOrStore(key, true); done {
		return
	}
	t, err := fn()
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println(t.String())
}

// BenchmarkTable1 regenerates Table 1: MFS functional-unit mixes for the
// six literature examples across their time constraints.
func BenchmarkTable1(b *testing.B) {
	printTableOnce("table1", experiments.Table1, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: MFSA RTL results (ALU set, cost,
// registers, multiplexers) in both design styles.
func BenchmarkTable2(b *testing.B) {
	printTableOnce("table2", experiments.Table2, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison regenerates the §6 comparison of MFS/MFSA
// against force-directed scheduling with naive allocation.
func BenchmarkBaselineComparison(b *testing.B) {
	printTableOnce("compare", experiments.Compare, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Compare(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStyleOverhead regenerates the style-2-vs-style-1 cost
// overhead study (§6: 2–11% in the paper).
func BenchmarkStyleOverhead(b *testing.B) {
	printTableOnce("style", experiments.StyleOverhead, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StyleOverhead(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (present/next position on the
// placement table).
func BenchmarkFigure1(b *testing.B) {
	if _, done := printOnce.LoadOrStore("fig1", true); !done {
		fmt.Println(experiments.Figure1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure1()
	}
}

// BenchmarkFigure2 regenerates Figure 2 (PF/RF/FF/MF frame construction).
func BenchmarkFigure2(b *testing.B) {
	if _, done := printOnce.LoadOrStore("fig2", true); !done {
		f, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFSRuntime times MFS per example — the paper's "< 0.2 s per
// example on a SPARC SLC" claim (§6), one sub-benchmark per example.
func BenchmarkMFSRuntime(b *testing.B) {
	for _, ex := range benchmarks.All() {
		ex := ex
		b.Run(ex.Name, func(b *testing.B) {
			cs := ex.TimeConstraints[0]
			opt := mfs.Options{CS: cs, ClockNs: ex.ClockNs}
			if ex.Latency != nil {
				opt.Latency = ex.Latency(cs)
			}
			for i := 0; i < b.N; i++ {
				if _, err := mfs.Schedule(ex.Graph, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMFSARuntime times MFSA per example — the paper's "< 0.4 s"
// claim (§6).
func BenchmarkMFSARuntime(b *testing.B) {
	for _, ex := range benchmarks.All() {
		ex := ex
		b.Run(ex.Name, func(b *testing.B) {
			opt := mfsa.Options{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs}
			for i := 0; i < b.N; i++ {
				if _, err := mfsa.Synthesize(ex.Graph, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLiapunov regenerates the guiding-function ablation.
func BenchmarkAblationLiapunov(b *testing.B) {
	printTableOnce("abl-liapunov", experiments.AblationLiapunov, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLiapunov(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeights regenerates the MFSA Liapunov-term ablation.
func BenchmarkAblationWeights(b *testing.B) {
	printTableOnce("abl-weights", experiments.AblationWeights, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWeights(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRedundantFrame regenerates the RF-mechanism ablation.
func BenchmarkAblationRedundantFrame(b *testing.B) {
	printTableOnce("abl-rf", experiments.AblationRedundantFrame, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRedundantFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchRange is the diffeq cs range both sweep benchmarks cover —
// critical path through critical path + 12, the same window
// experiments.MeasurePerfCtx records in BENCH_sweep.json.
func sweepBenchRange() (*benchmarks.Example, int, int) {
	ex := benchmarks.Diffeq()
	cp := ex.Graph.CriticalPathCycles()
	return ex, cp, cp + 12
}

// BenchmarkSweep times the design-space sweep with the pool forced to a
// single worker — the sequential baseline the parallel path is compared
// against.
func BenchmarkSweep(b *testing.B) {
	ex, lo, hi := sweepBenchRange()
	for i := 0; i < b.N; i++ {
		if _, err := hls.Sweep(ex.Graph, hls.Config{Parallelism: 1}, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSweep times the same sweep with the default worker
// pool (GOMAXPROCS workers). The ratio to BenchmarkSweep is the sweep
// speedup the parallel engine delivers.
func BenchmarkParallelSweep(b *testing.B) {
	ex, lo, hi := sweepBenchRange()
	for i := 0; i < b.N; i++ {
		if _, err := hls.Sweep(ex.Graph, hls.Config{}, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhases regenerates the simultaneous-vs-sequential phase
// comparison (the paper's §1 motivation).
func BenchmarkPhases(b *testing.B) {
	printTableOnce("phases", experiments.Phases, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Phases(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterconnect regenerates the §5.7 interconnect-sharing study.
func BenchmarkInterconnect(b *testing.B) {
	printTableOnce("interconnect", experiments.Interconnect, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Interconnect(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanOutGrain times the two fan-outs inside one design, each
// pooled (Parallelism 0) and inline (Parallelism 1), on generated graphs
// either side of pool.GrainNodes: the lint-gated synthesis at cs =
// critical path + 2, and the resource-constrained MFS search with the
// same limit k on every type. Run it at -cpu 2 or more; the ratio of a
// par0 row to its par1 twin is what DESIGN.md §7 sizes the grain by.
// Below the grain the two rows take the same path.
func BenchmarkFanOutGrain(b *testing.B) {
	graph := func(b *testing.B, nodes int) *hls.Graph {
		g, err := gen.Generate(gen.Config{Nodes: nodes, MulCycles: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	run := func(b *testing.B, g *hls.Graph, cfg hls.Config, call func(*hls.Graph, hls.Config) (*hls.Design, error)) {
		for _, par := range []int{0, 1} {
			cfg.Parallelism = par
			b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := call(g, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, nodes := range []int{50, 64, 100, 400, 2000} {
		g := graph(b, nodes)
		b.Run(fmt.Sprintf("lint/gen%d", nodes), func(b *testing.B) {
			run(b, g, hls.Config{CS: g.CriticalPathCycles() + 2, Lint: true}, hls.Synthesize)
		})
	}
	for _, nodes := range []int{50, 64, 120, 250, 500} {
		g := graph(b, nodes)
		for _, k := range []int{1, 2, 4} {
			limits := map[string]int{}
			for _, n := range g.Nodes() {
				limits[n.Op.String()] = k
			}
			if _, err := hls.ScheduleGraph(g, hls.Config{Limits: limits, Parallelism: 1}); err != nil {
				continue // gen500 at k = 1: no schedule within the search bound
			}
			b.Run(fmt.Sprintf("search/gen%d/k%d", nodes, k), func(b *testing.B) {
				run(b, g, hls.Config{Limits: limits}, hls.ScheduleGraph)
			})
		}
	}
}
