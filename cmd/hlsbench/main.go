// Command hlsbench regenerates the paper's evaluation: Tables 1 and 2,
// the comparison and style-overhead studies, CPU times, the textual
// Figures 1 and 2, and the ablation tables.
//
// Usage:
//
//	hlsbench                  # everything
//	hlsbench -table 1         # Table 1 only
//	hlsbench -table 2         # Table 2 only
//	hlsbench -table compare   # baseline comparison
//	hlsbench -table style     # style-2 overhead
//	hlsbench -table runtime   # CPU times
//	hlsbench -table ablation  # ablation studies
//	hlsbench -fig 1|2         # figures
//
// Four measuring modes instead write a performance snapshot, so later
// changes have a trajectory to regress against:
//
//	hlsbench -json    # wall time per table, sequential vs parallel sweep -> BENCH_sweep.json
//	hlsbench -scale   # the 1k-100k-node ladder -> BENCH_scale.json
//	hlsbench -serve   # in-process hlsd replay load test -> BENCH_serve.json
//	hlsbench -vet     # hlsvet suite, sequential vs parallel -> BENCH_vet.json
//
// -out overrides the output path, and -scale -maxnodes N skips ladder
// rungs larger than N nodes (the committed baseline uses 10000). Every
// mode writes the same snapshot format and prints its metric table.
// With -compare it also prints the delta table against a committed
// baseline of the same mode, pass or fail, and exits non-zero if any
// exact metric changed or any wall time exceeds -tolerance (default 3)
// times its baseline; DESIGN.md §12 states the rule:
//
//	GOMAXPROCS=1 hlsbench -scale -maxnodes 10000 -out fresh.json -compare BENCH_scale.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() { cli.Main("hlsbench", run) }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hlsbench", flag.ContinueOnError)
	table := fs.String("table", "", "which table to print (1, 2, compare, style, runtime, ablation); empty = all")
	fig := fs.Int("fig", 0, "which figure to print (1 or 2); 0 = per -table selection")
	jsonOut := fs.Bool("json", false, "measure the perf snapshot and write it as JSON to -out")
	scale := fs.Bool("scale", false, "measure the large-graph scale ladder and write it as JSON to -out")
	serveBench := fs.Bool("serve", false, "load-test the hlsd daemon in-process and write the snapshot as JSON to -out")
	vetBench := fs.Bool("vet", false, "time the hlsvet analyzer suite over the module and write the snapshot as JSON to -out")
	maxNodes := fs.Int("maxnodes", 0, "with -scale: skip ladder rungs larger than this many nodes (0 = full ladder)")
	outPath := fs.String("out", "", "output path for -json, -scale, -serve, or -vet (default BENCH_sweep.json, BENCH_scale.json, BENCH_serve.json, or BENCH_vet.json)")
	compare := fs.String("compare", "", "with -json, -scale, -serve, or -vet: print the per-metric delta table against this committed snapshot of the same mode, and fail if an exact metric changed or a fresh wall time exceeds it by more than -tolerance")
	tolerance := fs.Float64("tolerance", 3, "with -compare: allowed slowdown factor per wall time")
	timeout := cli.Timeout(fs)
	prof := cli.Profile(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	// The measuring modes, each with its default output file.
	modes := []struct {
		on      bool
		out     string
		measure func(context.Context) (*experiments.Snapshot, error)
	}{
		{*jsonOut, "BENCH_sweep.json", experiments.MeasurePerfCtx},
		{*scale, "BENCH_scale.json", func(ctx context.Context) (*experiments.Snapshot, error) {
			return experiments.MeasureScaleCtx(ctx, *maxNodes)
		}},
		{*serveBench, "BENCH_serve.json", experiments.MeasureServeCtx},
		{*vetBench, "BENCH_vet.json", func(ctx context.Context) (*experiments.Snapshot, error) {
			return experiments.MeasureVetCtx(ctx, ".")
		}},
	}
	selected := modes[:0]
	for _, m := range modes {
		if m.on {
			selected = append(selected, m)
		}
	}
	if len(selected) > 1 {
		return fmt.Errorf("-json, -scale, -serve, and -vet are mutually exclusive")
	}
	if len(selected) == 1 {
		path := *outPath
		if path == "" {
			path = selected[0].out
		}
		s, err := selected[0].measure(ctx)
		if err != nil {
			return err
		}
		return writeSnapshot(out, s, path, *compare, *tolerance)
	}
	if *compare != "" {
		return fmt.Errorf("-compare requires -json, -scale, -serve, or -vet")
	}
	if *fig != 0 {
		return printFigure(out, *fig)
	}
	sections := map[string][]func(context.Context) (*report.Table, error){
		"1":            {experiments.Table1Ctx},
		"2":            {experiments.Table2Ctx},
		"compare":      {experiments.CompareCtx},
		"phases":       {experiments.PhasesCtx},
		"interconnect": {experiments.InterconnectCtx},
		"style":        {experiments.StyleOverheadCtx},
		"runtime":      {experiments.RuntimeCtx},
		"ablation":     {experiments.AblationLiapunovCtx, experiments.AblationWeightsCtx, experiments.AblationRedundantFrameCtx},
	}
	order := []string{"1", "2", "compare", "phases", "interconnect", "style", "runtime", "ablation"}
	if *table != "" {
		fns, ok := sections[*table]
		if !ok {
			return fmt.Errorf("unknown table %q", *table)
		}
		for _, fn := range fns {
			if err := printTable(ctx, out, fn); err != nil {
				return err
			}
		}
		return nil
	}
	for _, key := range order {
		for _, fn := range sections[key] {
			if err := printTable(ctx, out, fn); err != nil {
				return err
			}
		}
	}
	if err := printFigure(out, 1); err != nil {
		return err
	}
	return printFigure(out, 2)
}

// writeSnapshot writes s to path and prints its metric table. With a
// compare path it then prints the delta table against that baseline,
// pass or fail — a passing run should still show where the time is
// drifting — and fails on any regression.
func writeSnapshot(out io.Writer, s *experiments.Snapshot, path, compare string, tolerance float64) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("hlsbench -%s (%s, gomaxprocs %d, num_cpu %d):",
		s.Mode, s.Env.GoVersion, s.Env.GOMAXPROCS, s.Env.NumCPU), "metric", "value", "unit")
	for _, m := range s.Metrics {
		t.Add(m.Name, num(m.Value), m.Unit)
	}
	fmt.Fprint(out, t)
	fmt.Fprintf(out, "wrote %s\n", path)
	if compare == "" {
		return nil
	}
	base, err := experiments.LoadSnapshot(compare, s.Mode)
	if err != nil {
		return err
	}
	t = report.New("delta vs "+compare+":", "metric", "baseline", "fresh", "unit", "factor")
	for _, d := range experiments.Deltas(base, s) {
		factor := "-"
		if d.Base != 0 {
			factor = fmt.Sprintf("%.2fx", d.Factor())
		}
		t.Add(d.Name, num(d.Base), num(d.Value), d.Unit, factor)
	}
	fmt.Fprint(out, t)
	regs, err := experiments.CompareSnapshots(base, s, tolerance)
	if err != nil {
		return fmt.Errorf("-compare %s: %w", compare, err)
	}
	if len(regs) == 0 {
		fmt.Fprintf(out, "within %gx of %s on every measurement\n", tolerance, compare)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(out, "regression:", r)
	}
	return fmt.Errorf("%d measurement(s) regressed against %s (tolerance %gx)", len(regs), compare, tolerance)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func printTable(ctx context.Context, out io.Writer, fn func(context.Context) (*report.Table, error)) error {
	t, err := fn(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, t.String())
	return nil
}

func printFigure(out io.Writer, n int) error {
	switch n {
	case 1:
		fmt.Fprintln(out, experiments.Figure1())
	case 2:
		f, err := experiments.Figure2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, f)
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}
