package experiments

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/report"
)

// perfSweepRange returns the sweep the snapshot measures: diffeq from
// its critical path to critical path + 12, matching BenchmarkSweep and
// BenchmarkParallelSweep in bench_test.go.
func perfSweepRange() (*benchmarks.Example, int, int) {
	ex := benchmarks.Diffeq()
	cp := ex.Graph.CriticalPathCycles()
	return ex, cp, cp + 12
}

// MeasurePerfCtx measures the `hlsbench -json` snapshot: the wall time
// of one regeneration of each evaluation table, in hlsbench's print
// order, and the sequential-vs-parallel design-space sweep on diffeq
// over its full cs range (best of three runs each). The sweep also
// records whether the parallel path returned byte-identical points and
// Pareto marks, so a determinism regression shows up in the snapshot
// itself. Cancellation is observed by every table regeneration and
// every timed sweep repetition.
func MeasurePerfCtx(ctx context.Context) (*Snapshot, error) {
	tables := []struct {
		name string
		fn   func(context.Context) (*report.Table, error)
	}{
		{"table1", Table1Ctx},
		{"table2", Table2Ctx},
		{"compare", CompareCtx},
		{"phases", PhasesCtx},
		{"interconnect", InterconnectCtx},
		{"style", StyleOverheadCtx},
		{"runtime", RuntimeCtx},
		{"ablation-liapunov", AblationLiapunovCtx},
		{"ablation-weights", AblationWeightsCtx},
		{"ablation-rf", AblationRedundantFrameCtx},
	}
	var ms []Metric
	for _, tb := range tables {
		rows := 0
		t, err := bestOf(3, func() error {
			tbl, err := tb.fn(ctx)
			if err == nil {
				rows = tbl.Len()
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: perf snapshot: %s: %w", tb.name, err)
		}
		ms = append(ms, info(tb.name+"/rows", float64(rows), "rows", ""), wall(tb.name+"/wall", t.wall))
	}

	ex, lo, hi := perfSweepRange()
	sweep := func(cfg core.Config) ([]core.SweepPoint, timing, error) {
		var points []core.SweepPoint
		t, err := bestOf(3, func() (err error) {
			points, err = core.SweepCtx(ctx, ex.Graph, cfg, lo, hi)
			return err
		})
		if err != nil {
			return nil, t, fmt.Errorf("experiments: perf snapshot sweep: %w", err)
		}
		return points, t, nil
	}
	seqPoints, seq, err := sweep(core.Config{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	parPoints, par, err := sweep(core.Config{})
	if err != nil {
		return nil, err
	}
	points := float64(len(parPoints))
	ms = append(ms,
		info(ex.Graph.Name+"/cs_lo", float64(lo), "cs", ""),
		info(ex.Graph.Name+"/cs_hi", float64(hi), "cs", ""),
		info("sweep/points", points, "points", ""),
		wall("sweep/sequential", seq.wall),
		wall("sweep/parallel", par.wall),
		info("sweep/speedup", seq.wall.Seconds()/par.wall.Seconds(), "x", "higher"),
		info("sweep/points_per_sec", points/par.wall.Seconds(), "1/s", "higher"),
		verdict("sweep/identical_results", reflect.DeepEqual(seqPoints, parPoints)),
	)
	return newSnapshot("json", ms), nil
}
