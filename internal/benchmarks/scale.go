package benchmarks

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/gen"
)

// ScaleExample is one rung of the scale ladder: a large generated graph
// with the synthesis parameters the scale benchmarks run it under. These
// are not paper benchmarks — they exercise the engine's asymptotics, not
// Table 1/2 numbers — so they live beside, not inside, All().
type ScaleExample struct {
	Name  string
	Graph func() *dfg.Graph // lazy: a 100k-node graph is built only when its rung runs
	Nodes int

	// Slack is added to the critical path to form the time constraint;
	// a little slack keeps the grids narrow while leaving the scheduler
	// real choices.
	Slack int

	// ClockNs is the clock period the rung is synthesized at; > 0 turns
	// on chaining (§5.4).
	ClockNs float64
}

// Scale returns the ladder of generated graphs the scale benchmarks and
// the nightly CI job run, smallest first. Every rung is deterministic
// (fixed seed), so BENCH_scale.json numbers are comparable across runs.
func Scale() []*ScaleExample {
	mk := func(name string, nodes int, build func() (*dfg.Graph, error)) *ScaleExample {
		return &ScaleExample{
			Name:  name,
			Nodes: nodes,
			Slack: 4,
			Graph: func() *dfg.Graph {
				g, err := build()
				if err != nil {
					// Same contract as must(): the ladder is static data
					// covered by tests, so a failure is a programming error.
					panic(fmt.Sprintf("benchmarks: scale rung %s: %v", name, err))
				}
				return g
			},
		}
	}
	// chain5k is rand5k's graph chained at a 100 ns clock, so a chain
	// filter that walks the whole graph per candidate shows up as a
	// quadratic rung.
	chain5k := mk("chain5k", 5_000, func() (*dfg.Graph, error) {
		return gen.Generate(gen.Config{Nodes: 5_000, Seed: 2, MulCycles: 2})
	})
	chain5k.ClockNs = 100
	return []*ScaleExample{
		mk("rand1k", 1_000, func() (*dfg.Graph, error) {
			return gen.Generate(gen.Config{Nodes: 1_000, Seed: 1, MulCycles: 2})
		}),
		mk("fir2k", 2_047, func() (*dfg.Graph, error) {
			return gen.FIR(1024, 2)
		}),
		mk("rand5k", 5_000, func() (*dfg.Graph, error) {
			return gen.Generate(gen.Config{Nodes: 5_000, Seed: 2, MulCycles: 2})
		}),
		chain5k,
		mk("matmul20", 15_600, func() (*dfg.Graph, error) {
			return gen.MatMul(20, 2)
		}),
		mk("rand10k", 10_000, func() (*dfg.Graph, error) {
			return gen.Generate(gen.Config{Nodes: 10_000, Seed: 3, MulCycles: 2})
		}),
		mk("rand50k", 50_000, func() (*dfg.Graph, error) {
			return gen.Generate(gen.Config{Nodes: 50_000, Seed: 4, MulCycles: 2})
		}),
		mk("rand100k", 100_000, func() (*dfg.Graph, error) {
			return gen.Generate(gen.Config{Nodes: 100_000, Seed: 5, MulCycles: 2})
		}),
	}
}
