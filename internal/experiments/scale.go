package experiments

import (
	"context"
	"fmt"

	"repro/internal/benchmarks"
	"repro/internal/core"
)

// MeasureScaleCtx measures the `hlsbench -scale` snapshot: one fresh
// time-constrained synthesis per ladder rung up to maxNodes (0 = the
// full ladder, 100k included). Each rung records its wall time with the
// per-node cost and allocation footprint that make asymptotic
// regressions visible: a healthy engine's ns/node grows slowly with N,
// an accidental O(n²) makes it grow linearly. The committed baseline
// stops at 10k so regenerating it stays fast; the nightly CI job runs
// everything. Cancellation is observed between and inside every rung
// (the synthesis engines poll the context).
//
// Rungs run with Config.NoTrace: the trace would only add allocation
// noise to the footprint columns. One untimed traced synthesis per rung,
// run after the timed ones, counts the candidates MFSA scored: an exact
// metric, so any change to the search's pruning fails the comparison.
func MeasureScaleCtx(ctx context.Context, maxNodes int) (*Snapshot, error) {
	ms := []Metric{info("ladder/max_nodes", float64(maxNodes), "nodes", "")}
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
	cfg := core.Config{CS: cs, ClockNs: rung.ClockNs, NoTrace: true}
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
	traced, err := core.SynthesizeCtx(ctx, g, core.Config{CS: cs, ClockNs: rung.ClockNs})
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
