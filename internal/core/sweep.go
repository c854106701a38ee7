package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/library"
	"repro/internal/pool"
	"repro/internal/rtl"
)

// guardSweepRange validates a [csLo, csHi] sweep request: malformed
// ranges are a *guard.RangeError, ranges reaching past the MaxCSteps cap
// a *guard.LimitError.
func guardSweepRange(cfg Config, csLo, csHi int) error {
	if csLo < 1 || csHi < csLo {
		return fmt.Errorf("core: %w", &guard.RangeError{Lo: csLo, Hi: csHi})
	}
	if max := effectiveLimit(cfg.MaxCSteps, guard.DefaultMaxCSteps); max > 0 && csHi > max {
		return fmt.Errorf("core: %w", &guard.LimitError{What: "sweep control steps", Got: csHi, Max: max})
	}
	return nil
}

// SweepPoint is one design point of a time-constraint sweep.
type SweepPoint struct {
	CS   int
	Cost rtl.Cost
	ALUs string

	// Pareto marks points not dominated by any other point (no other
	// point is both at most as slow and strictly cheaper, or strictly
	// faster and at most as expensive).
	Pareto bool
}

// Sweep synthesizes g with MFSA at every time constraint in [csLo, csHi]
// (skipping constraints below the critical path) and returns the
// cost/time design points with the Pareto frontier marked — the
// trade-off exploration a user of the paper's tool would run before
// committing to a constraint. Every point is an independent synthesis
// over the same read-only graph, so the points are computed concurrently
// on cfg.Parallelism workers; results come back in cs order and are
// identical at every parallelism setting.
func Sweep(g *dfg.Graph, cfg Config, csLo, csHi int) ([]SweepPoint, error) {
	return SweepCtx(context.Background(), g, cfg, csLo, csHi)
}

// SweepCtx is Sweep with cancellation, cfg.Timeout (bounding the whole
// sweep, not each point), the input-size guards, and the panic-recovery
// boundary. A cancelled sweep returns ctx.Err(), never partial points.
// It is row 0 of SweepGraphsCtx over g alone.
func SweepCtx(ctx context.Context, g *dfg.Graph, cfg Config, csLo, csHi int) ([]SweepPoint, error) {
	rows, err := SweepGraphsCtx(ctx, []*dfg.Graph{g}, cfg, csLo, csHi)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// SweepGraphs sweeps several designs over one shared worker pool: the
// whole graphs × constraints grid is flattened into independent
// synthesis jobs, so a multi-design exploration saturates the machine
// even when individual sweep ranges are short. Each graph's range is
// clamped to its own critical path, and the returned slice is indexed
// like gs with per-graph Pareto marks, so each row equals Sweep of its
// graph.
func SweepGraphs(gs []*dfg.Graph, cfg Config, csLo, csHi int) ([][]SweepPoint, error) {
	return SweepGraphsCtx(context.Background(), gs, cfg, csLo, csHi)
}

// SweepGraphsCtx is SweepGraphs with cancellation, cfg.Timeout (bounding
// the whole grid), the input-size guards, and the panic-recovery
// boundary. A cancelled sweep returns ctx.Err(), never partial points.
func SweepGraphsCtx(ctx context.Context, gs []*dfg.Graph, cfg Config, csLo, csHi int) (out [][]SweepPoint, err error) {
	defer guard.Recover("core.SweepGraphs", &err)
	if err := guardSweepRange(cfg, csLo, csHi); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	if cfg.Lib == nil {
		// Resolve the default library once for the whole sweep instead of
		// letting every design point rebuild it.
		cfg.Lib = library.NCRLike()
	}
	type job struct {
		g      *dfg.Graph
		gi, cs int
	}
	var jobs []job
	counts := make([]int, len(gs))
	for gi, g := range gs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if g == nil {
			return nil, fmt.Errorf("core: sweep: nil graph at %d", gi)
		}
		if err := guardInput(g, cfg, engineMFSA); err != nil {
			return nil, fmt.Errorf("core: sweep %s: %w", g.Name, err)
		}
		lo := csLo
		if cp := g.CriticalPathCycles(); lo < cp {
			// A graph whose critical path exceeds csHi would contribute
			// no jobs and come back as an empty row with a nil error, a
			// success-shaped failure: refuse it with a typed
			// *guard.RangeError naming the graph and its critical path.
			if cp > csHi {
				return nil, fmt.Errorf("core: sweep: %w",
					&guard.RangeError{Lo: csLo, Hi: csHi, CriticalPath: cp, Graph: g.Name})
			}
			lo = cp
		}
		// Each point checks Latency against its own cs, as Synthesize
		// would; the first point's is the tightest.
		if err := checkLatency(cfg.Latency, lo); err != nil {
			return nil, fmt.Errorf("core: sweep %s: %w", g.Name, err)
		}
		if err := checkClockSpan(g, cfg.ClockNs, csHi); err != nil {
			return nil, fmt.Errorf("core: sweep %s: %w", g.Name, err)
		}
		for cs := lo; cs <= csHi; cs++ {
			jobs = append(jobs, job{g, gi, cs})
			counts[gi]++
		}
	}
	flat, err := pool.MapCtx(ctx, pool.Size(cfg.Parallelism), len(jobs),
		func(i int) (SweepPoint, error) {
			c := cfg
			c.CS = jobs[i].cs
			d, err := synthesize(ctx, jobs[i].g, c)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("core: sweep %s at cs=%d: %w",
					jobs[i].g.Name, jobs[i].cs, err)
			}
			return SweepPoint{
				CS:   jobs[i].cs,
				Cost: d.Cost,
				ALUs: d.Datapath.ALUSummary(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	out = make([][]SweepPoint, len(gs))
	next := 0
	//hls:ctxok assembles results the pooled workers already computed; O(points) slicing after the cancellable phase is over
	for gi := range gs {
		out[gi] = flat[next : next+counts[gi] : next+counts[gi]]
		next += counts[gi]
		markPareto(out[gi])
	}
	return out, nil
}

// markPareto marks the non-dominated points in one sort plus a linear
// scan: points are visited in (CS, Total) order, and a point survives
// iff it matches the cheapest total of its own CS group and undercuts
// the cheapest total of every strictly faster group. Equivalent to the
// quadratic all-pairs check (sweep_test.go keeps that as the reference
// oracle) at O(n log n).
func markPareto(points []SweepPoint) {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := points[idx[a]], points[idx[b]]
		if pa.CS != pb.CS {
			return pa.CS < pb.CS
		}
		return pa.Cost.Total < pb.Cost.Total
	})
	bestPrev := math.Inf(1) // cheapest total over strictly faster groups
	for i := 0; i < len(idx); {
		j := i
		for ; j < len(idx) && points[idx[j]].CS == points[idx[i]].CS; j++ {
		}
		groupMin := points[idx[i]].Cost.Total // group sorted cheapest-first
		for k := i; k < j; k++ {
			p := &points[idx[k]]
			p.Pareto = p.Cost.Total <= groupMin && p.Cost.Total < bestPrev
		}
		if groupMin < bestPrev {
			bestPrev = groupMin
		}
		i = j
	}
}
