// Package gen synthesizes large data-flow graphs for scale testing:
// seeded, reproducible layered random DAGs whose size, width, fan-in and
// op-kind mix are parameters, plus unrolled real-ish kernels (FIR filter
// taps, dense matrix products). The paper's six benchmarks top out at
// ~34 operations; these generators supply the 10k–100k-node inputs the
// scale ladder (internal/experiments, cmd/hlsbench -scale) and the
// re-synthesis tests stress the engine with.
//
// Every generated graph is acyclic and weakly connected by
// construction, every primary input is consumed, and the structure is a
// pure function of the Config — the same seed always yields the same
// graph, byte for byte, so baselines pinned in BENCH_scale.json stay
// comparable across machines.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/op"
)

// Config parameterizes one synthetic graph. The zero value of every
// field except Nodes selects a sensible default; Nodes is required.
type Config struct {
	// Nodes is the operation count (required, 1..guard.DefaultMaxNodes).
	Nodes int

	// Width is the target number of operations per layer; the layer
	// count is ⌈Nodes/Width⌉, so Width controls the depth/parallelism
	// trade-off. 0 defaults to ⌈√Nodes⌉.
	Width int

	// Inputs is the number of primary input signals. 0 defaults to
	// Width; values above min(Width, Nodes) are clamped so the first
	// layer can consume every input.
	Inputs int

	// Ops is the operation-kind mix sampled uniformly per node. Only
	// binary kinds keep the connectivity guarantee; an all-unary mix can
	// make Generate fail with a connectivity error. nil defaults to
	// {Add, Sub, Mul, And, Or, Xor}.
	Ops []op.Kind

	// MulCycles sets the cycle count of generated multiplications
	// (the paper's 2-cycle multipliers); 0 keeps the 1-cycle default.
	MulCycles int

	// Locality is how many preceding layers (beyond the immediately
	// previous one) supply second operands; 0 defaults to 2. Larger
	// values produce longer value lifetimes and wider mux trees.
	Locality int

	// Seed drives the deterministic pseudo-random stream.
	Seed int64
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Width == 0 {
		w := 1
		for w*w < c.Nodes {
			w++
		}
		c.Width = w
	}
	if c.Inputs == 0 {
		c.Inputs = c.Width
	}
	if lim := min(c.Width, c.Nodes); c.Inputs > lim {
		c.Inputs = lim
	}
	if c.Ops == nil {
		c.Ops = []op.Kind{op.Add, op.Sub, op.Mul, op.And, op.Or, op.Xor}
	}
	if c.Locality == 0 {
		c.Locality = 2
	}
	return c
}

// validate rejects configs the guard limits or the dfg invariants would
// reject later, with a clearer message and before any allocation.
func (c Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("gen: Nodes %d < 1", c.Nodes)
	}
	if c.Nodes > guard.DefaultMaxNodes {
		return &guard.LimitError{What: "generated graph nodes", Got: c.Nodes, Max: guard.DefaultMaxNodes}
	}
	if c.Width < 1 {
		return fmt.Errorf("gen: Width %d < 1", c.Width)
	}
	if c.Inputs < 1 {
		return fmt.Errorf("gen: Inputs %d < 1", c.Inputs)
	}
	if c.MulCycles < 0 || c.MulCycles > guard.DefaultMaxCSteps {
		return &guard.LimitError{What: "multicycle count", Got: c.MulCycles, Max: guard.DefaultMaxCSteps}
	}
	if c.Locality < 1 {
		return fmt.Errorf("gen: Locality %d < 1", c.Locality)
	}
	for _, k := range c.Ops {
		if !k.Valid() {
			return fmt.Errorf("gen: invalid op kind %d in mix", int(k))
		}
	}
	return nil
}

// Generate builds the synthetic graph described by cfg. The result is
// validated (dfg.Validate plus weak connectivity) before it is returned.
func Generate(cfg Config) (*dfg.Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := dfg.NewSized(fmt.Sprintf("gen-n%d-s%d", cfg.Nodes, cfg.Seed), cfg.Inputs, cfg.Nodes)

	// Signals are numbered for the union-find: inputs first, then one
	// per node output, in creation order.
	names := make([]string, 0, cfg.Inputs+cfg.Nodes)
	uf := newUnionFind(cfg.Inputs + cfg.Nodes)
	for i := 0; i < cfg.Inputs; i++ {
		name := fmt.Sprintf("in%d", i)
		if err := g.AddInput(name); err != nil {
			return nil, err
		}
		names = append(names, name)
	}

	// stranded scans the signal list for the oldest signal not yet in
	// component 0 (in0's component); choosing it as a second operand
	// merges one component per binary node, which is what makes the
	// result weakly connected.
	nextStranded := 0
	stranded := func() (int, bool) {
		for nextStranded < len(names) {
			if uf.find(nextStranded) != uf.find(0) {
				return nextStranded, true
			}
			nextStranded++
		}
		return 0, false
	}

	layerStart := cfg.Inputs // signal index where the previous layer begins
	made := 0
	for made < cfg.Nodes {
		layer := min(cfg.Width, cfg.Nodes-made)
		layerBase := len(names)
		// windowLo bounds the pool of earlier signals second operands
		// draw from: the previous Locality layers (clamped to 0).
		windowLo := layerBase - cfg.Locality*cfg.Width
		if windowLo < 0 {
			windowLo = 0
		}
		for i := 0; i < layer; i++ {
			k := cfg.Ops[rng.Intn(len(cfg.Ops))]
			// First operand: round-robin over the inputs for the first
			// layer (so every input is consumed), random from the
			// previous layer otherwise (so every layer deepens the
			// critical path by exactly one op level).
			var a1 int
			if made == 0 && i < layer { // first layer
				a1 = i % cfg.Inputs
			}
			if layerBase > cfg.Inputs { // later layers
				a1 = layerStart + rng.Intn(layerBase-layerStart)
			}
			args := []string{names[a1]}
			a2 := -1
			if k.Arity() == 2 {
				if s, ok := stranded(); ok && s != a1 {
					a2 = s
				} else {
					a2 = windowLo + rng.Intn(layerBase-windowLo)
				}
				args = append(args, names[a2])
			}
			name := fmt.Sprintf("n%d", made+i)
			id, err := g.AddOp(name, k, args...)
			if err != nil {
				return nil, fmt.Errorf("gen: %w", err)
			}
			if k == op.Mul && cfg.MulCycles > 1 {
				if err := g.SetCycles(id, cfg.MulCycles); err != nil {
					return nil, fmt.Errorf("gen: %w", err)
				}
			}
			out := len(names)
			names = append(names, name)
			uf.union(out, a1)
			if a2 >= 0 {
				uf.union(out, a2)
			}
		}
		layerStart = layerBase
		made += layer
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid graph: %w", err)
	}
	if _, bad := stranded(); bad {
		return nil, fmt.Errorf("gen: graph is not connected (op mix %v has too few binary kinds)", cfg.Ops)
	}
	return g, nil
}

// unionFind is a plain union-find with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FIR returns an unrolled taps-tap FIR filter body: taps multiplications
// (x_i · c_i) reduced by a balanced adder tree — the classic large DSP
// kernel, 2·taps−1 operations. mulCycles > 1 makes the products
// multicycle (0 or 1 keeps them single-cycle).
func FIR(taps, mulCycles int) (*dfg.Graph, error) {
	if taps < 1 {
		return nil, fmt.Errorf("gen: FIR taps %d < 1", taps)
	}
	if 2*taps-1 > guard.DefaultMaxNodes {
		return nil, &guard.LimitError{What: "generated graph nodes", Got: 2*taps - 1, Max: guard.DefaultMaxNodes}
	}
	g := dfg.NewSized(fmt.Sprintf("fir%d", taps), 2*taps, 2*taps-1)
	level := make([]string, 0, taps)
	for i := 0; i < taps; i++ {
		x, c := fmt.Sprintf("x%d", i), fmt.Sprintf("c%d", i)
		if err := g.AddInput(x); err != nil {
			return nil, err
		}
		if err := g.AddInput(c); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("p%d", i)
		id, err := g.AddOp(name, op.Mul, x, c)
		if err != nil {
			return nil, err
		}
		if mulCycles > 1 {
			if err := g.SetCycles(id, mulCycles); err != nil {
				return nil, err
			}
		}
		level = append(level, name)
	}
	depth := 0
	for len(level) > 1 {
		next := make([]string, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			name := fmt.Sprintf("s%d_%d", depth, i/2)
			if _, err := g.AddOp(name, op.Add, level[i], level[i+1]); err != nil {
				return nil, err
			}
			next = append(next, name)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		depth++
	}
	return g, nil
}

// MatMul returns an unrolled n×n dense matrix product: n³
// multiplications and n²(n−1) additions in row-scan order (a straight
// unrolled triple loop, the memory-heavy array kernel shape).
func MatMul(n, mulCycles int) (*dfg.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: MatMul size %d < 1", n)
	}
	total := n*n*n + n*n*(n-1)
	if total > guard.DefaultMaxNodes {
		return nil, &guard.LimitError{What: "generated graph nodes", Got: total, Max: guard.DefaultMaxNodes}
	}
	g := dfg.NewSized(fmt.Sprintf("matmul%d", n), 2*n*n, total)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := g.AddInput(fmt.Sprintf("a%d_%d", i, j)); err != nil {
				return nil, err
			}
			if err := g.AddInput(fmt.Sprintf("b%d_%d", i, j)); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := ""
			for k := 0; k < n; k++ {
				p := fmt.Sprintf("m%d_%d_%d", i, j, k)
				id, err := g.AddOp(p, op.Mul, fmt.Sprintf("a%d_%d", i, k), fmt.Sprintf("b%d_%d", k, j))
				if err != nil {
					return nil, err
				}
				if mulCycles > 1 {
					if err := g.SetCycles(id, mulCycles); err != nil {
						return nil, err
					}
				}
				if acc == "" {
					acc = p
					continue
				}
				sum := fmt.Sprintf("c%d_%d_%d", i, j, k)
				if _, err := g.AddOp(sum, op.Add, acc, p); err != nil {
					return nil, err
				}
				acc = sum
			}
		}
	}
	return g, nil
}
