package experiments

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/op"
)

// MeasureScaleCtx measures the `hlsbench -scale` snapshot: one fresh
// time-constrained synthesis per ladder rung up to maxNodes (0 = the
// full ladder, 100k included), plus the incremental re-synthesis
// points. Each rung records its wall time with the per-node cost and
// allocation footprint that make asymptotic regressions visible: a
// healthy engine's ns/node grows slowly with N, an accidental O(n²)
// makes it grow linearly. The committed baseline stops at 10k so
// regenerating it stays fast; the nightly CI job runs everything.
// Cancellation is observed between and inside every rung (the
// synthesis engines poll the context).
//
// Fresh rungs run with Config.NoTrace: a pure batch run has no replay
// trajectory to keep, and the trace would only add allocation noise to
// the footprint columns. One untimed traced synthesis per rung, run
// after the timed ones, counts the candidates MFSA scored: an exact
// metric, so any change to the search's pruning fails the comparison.
// The incremental points keep the trace on for their fresh run — that
// recorded trajectory is exactly what the resynthesis replays, so
// trace-on fresh time is the honest comparator.
func MeasureScaleCtx(ctx context.Context, maxNodes int) (*Snapshot, error) {
	ms := []Metric{info("ladder/max_nodes", float64(maxNodes), "nodes", "")}
	// The incremental points run first: the big ladder rungs leave a
	// multi-gigabyte heap behind, and the GC tax of scanning it would
	// inflate every timing taken afterwards.
	for _, nodes := range []int{1_000, 5_000, 10_000} {
		if maxNodes > 0 && nodes > maxNodes {
			continue
		}
		p, err := measureIncremental(ctx, nodes)
		if err != nil {
			return nil, err
		}
		ms = append(ms, p...)
	}
	for _, rung := range benchmarks.Scale() {
		if maxNodes > 0 && rung.Nodes > maxNodes {
			continue
		}
		p, err := measureRung(ctx, rung)
		if err != nil {
			return nil, err
		}
		ms = append(ms, p...)
	}
	return newSnapshot("scale", ms), nil
}

// measureRung returns one ladder rung's metrics: its size, its cs
// budget, the wall time, ns/node and allocation footprint of a fresh
// synthesis, and the number of candidates it scores.
func measureRung(ctx context.Context, rung *benchmarks.ScaleExample) ([]Metric, error) {
	g := rung.Graph()
	cs := g.CriticalPathCycles() + rung.Slack
	cfg := core.Config{CS: cs, NoTrace: true}
	// Best of two runs for the small rungs; the big ones are long enough
	// that scheduler noise is negligible and a repeat would dominate the
	// whole measurement.
	reps := 2
	if rung.Nodes > 20_000 {
		reps = 1
	}
	t, err := bestOf(reps, func() error {
		_, err := core.SynthesizeCtx(ctx, g, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: scale rung %s: %w", rung.Name, err)
	}
	traced, err := core.SynthesizeCtx(ctx, g, core.Config{CS: cs})
	if err != nil {
		return nil, fmt.Errorf("experiments: scale rung %s: traced run: %w", rung.Name, err)
	}
	return []Metric{
		info(rung.Name+"/nodes", float64(rung.Nodes), "nodes", ""),
		info(rung.Name+"/cs", float64(cs), "cs", ""),
		wall(rung.Name+"/wall", t.wall),
		info(rung.Name+"/ns_per_node", float64(t.wall.Nanoseconds())/float64(rung.Nodes), "ns", "lower"),
		info(rung.Name+"/alloc", t.allocMB, "MB", "lower"),
		info(rung.Name+"/heap_peak", t.heapMB, "MB", "lower"),
		{Name: rung.Name + "/candidates", Value: float64(traced.Schedule.Trace.Scored()), Unit: "candidates", Exact: true},
	}, nil
}

// measureIncremental times the interactive-loop shape the resynthesis
// fast path exists for: a fully scheduled design, a one-node edit fed
// from primary inputs, and a replayed re-synthesis. The setup pins
// per-unit instance limits learned from an unconstrained probe run and
// uses a single-cycle graph, the two conditions under which the replay
// carries end to end (see TestResynthesizeSpeedup10k for why).
func measureIncremental(ctx context.Context, nodes int) ([]Metric, error) {
	name := fmt.Sprintf("inc%dk", nodes/1000)
	fail := func(stage string, err error) ([]Metric, error) {
		return nil, fmt.Errorf("experiments: scale incremental %s: %s: %w", name, stage, err)
	}
	g, err := gen.Generate(gen.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		return fail("generate", err)
	}
	cs := g.CriticalPathCycles() + 16
	probe, err := core.SynthesizeCtx(ctx, g, core.Config{CS: cs})
	if err != nil {
		return fail("probe", err)
	}
	used := make(map[string]int)
	for _, a := range probe.Datapath.ALUs {
		used[a.Unit.Name]++
	}
	limits := make(map[string]int)
	for _, u := range library.NCRLike().Units() {
		limits[u.Name] = 0
		if n := used[u.Name]; n > 0 {
			limits[u.Name] = n + 2
		}
	}
	cfg := core.Config{CS: cs, Limits: limits}
	d, err := core.SynthesizeCtx(ctx, g, cfg)
	if err != nil {
		return fail("fresh", err)
	}
	kind, found := op.Add, false
	counts := make(map[op.Kind]int)
	for _, n := range g.Nodes() {
		counts[n.Op]++
	}
	for _, k := range []op.Kind{op.Add, op.Sub, op.And, op.Or, op.Xor} {
		if counts[k]%cs != 0 {
			kind, found = k, true
			break
		}
	}
	if !found {
		return fail("edit", fmt.Errorf("no op kind off the instance-floor boundary"))
	}
	ins := g.Inputs()
	e := core.Edit{AddOp: &core.AddOpEdit{Name: "probe", Op: kind, Args: []string{ins[0], ins[1]}}}
	var inc, fresh *core.Design
	it, err := bestOf(1, func() (err error) {
		inc, err = core.ResynthesizeCtx(ctx, d, e)
		return err
	})
	if err != nil {
		return fail("resynthesize", err)
	}
	ft, err := bestOf(1, func() (err error) {
		fresh, err = core.SynthesizeCtx(ctx, inc.Graph, cfg)
		return err
	})
	if err != nil {
		return fail("fresh edited", err)
	}
	identical := reflect.DeepEqual(inc.Schedule.Placements, fresh.Schedule.Placements) && inc.Cost == fresh.Cost
	return []Metric{
		info(name+"/nodes", float64(nodes), "nodes", ""),
		wall(name+"/fresh", ft.wall),
		wall(name+"/incremental", it.wall),
		info(name+"/speedup", ft.wall.Seconds()/it.wall.Seconds(), "x", "higher"),
		verdict(name+"/identical_results", identical),
	}, nil
}
