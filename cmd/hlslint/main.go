// Command hlslint runs the cross-layer static verification framework
// (internal/lint) over synthesized designs: every artifact — data-flow
// graph, schedule with its recorded move-frame trajectory, Liapunov
// descent, RTL datapath, FSM controller, and emitted netlist — is
// checked by its analyzer, and findings are reported with stable HL
// diagnostic codes.
//
// Usage:
//
//	hlslint -cs 4 design.hls            # synthesize with MFSA, lint all artifacts
//	hlslint -cs 4 -json design.hls      # machine-readable findings
//	hlslint -benchmarks                 # audit every paper benchmark (MFS + MFSA)
//	hlslint -run dfg,frames -cs 4 f.hls # run selected analyzers only
//	hlslint -list                       # list registered analyzers
//
// Translation validation (the equiv pass) can be driven standalone to
// produce machine-readable proof certificates, optionally after seeding
// a known corruption to demonstrate the proof's soundness:
//
//	hlslint -equiv -cs 4 design.hls               # certify one design
//	hlslint -equiv -json -cs 4 design.hls         # JSON certificate
//	hlslint -equiv -benchmarks                    # certify all six paper benchmarks
//	hlslint -equiv -mutate swap-mux -cs 4 f.hls   # corrupt, then refute
//
// The exit status is non-zero when any error-severity diagnostic is
// found (or, with -equiv, when any certificate is refuted), so the
// command gates CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
)

func main() { cli.Main("hlslint", run) }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hlslint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	runSel := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	bench := fs.Bool("benchmarks", false, "audit the six paper benchmarks instead of a source file")
	cs := fs.Int("cs", 0, "time constraint in control steps (required with a source file)")
	style := fs.Int("style", 1, "MFSA datapath style: 1 unrestricted, 2 no ALU self-loops")
	clock := fs.Float64("clock", 0, "control-step clock period in ns (enables chaining)")
	latency := fs.Int("latency", 0, "functional-pipelining initiation interval")
	optimize := fs.Bool("optimize", false, "run frontend passes before synthesis")
	equiv := fs.Bool("equiv", false, "run translation validation and emit proof certificates")
	mutate := fs.String("mutate", "", "with -equiv: apply a named artifact corruption first (soundness harness)")
	par := fs.Int("par", 0, "max parallel analyzers and synthesis jobs (0 = GOMAXPROCS on a design of 64 nodes or more, sequential below)")
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

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(out, "%-10s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	var analyzers []string
	if *runSel != "" {
		analyzers = strings.Split(*runSel, ",")
	}
	if *mutate != "" && !*equiv {
		return fmt.Errorf("-mutate requires -equiv")
	}

	if *equiv {
		return runEquiv(ctx, fs, out, equivOptions{
			json: *jsonOut, bench: *bench, mutate: *mutate,
			cs: *cs, style: *style, clock: *clock, latency: *latency,
			optimize: *optimize, par: *par,
		})
	}

	var all diag.List
	switch {
	case *bench:
		if fs.NArg() != 0 {
			return fmt.Errorf("-benchmarks takes no file arguments")
		}
		ds, err := lintBenchmarks(ctx, analyzers, *par)
		if err != nil {
			return err
		}
		all = ds
	case fs.NArg() == 1:
		if *cs <= 0 {
			return fmt.Errorf("a time constraint is required: -cs N")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		d, err := core.SynthesizeSourceCtx(ctx, string(src), core.Config{
			CS: *cs, Style: *style, ClockNs: *clock, Latency: *latency,
			Optimize: *optimize, Parallelism: *par,
		})
		if err != nil {
			return err
		}
		all, err = d.LintCtx(ctx, analyzers...)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: hlslint [flags] design.hls | hlslint -benchmarks")
	}

	all.Sort()
	if err := render(out, all, *jsonOut); err != nil {
		return err
	}
	if n := all.Count(diag.Error); n > 0 {
		return fmt.Errorf("%d error-severity diagnostic(s)", n)
	}
	return nil
}

// lintBenchmarks audits the six paper examples the way the evaluation
// drives them: MFS at every Table 1 time constraint (plus the
// structurally pipelined variant where the example has one) and MFSA in
// both datapath styles at the tightest constraint, each run linted over
// all its artifacts.
func lintBenchmarks(ctx context.Context, analyzers []string, par int) (diag.List, error) {
	var all diag.List
	audit := func(label string, d *core.Design, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		ds, err := d.LintCtx(ctx, analyzers...)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		for i := range ds {
			ds[i].Design = label
		}
		all = append(all, ds...)
		return nil
	}
	for _, ex := range benchmarks.All() {
		base := core.Config{ClockNs: ex.ClockNs, Parallelism: par}
		for _, t := range ex.TimeConstraints {
			cfg := base
			cfg.CS = t
			if ex.Latency != nil {
				cfg.Latency = ex.Latency(t)
			}
			d, err := core.ScheduleOnlyCtx(ctx, ex.Graph, cfg)
			if err := audit(fmt.Sprintf("%s/mfs/T=%d", ex.Name, t), d, err); err != nil {
				return nil, err
			}
			if len(ex.PipelinedOps) > 0 {
				cfg.PipelinedOps = ex.PipelinedOps
				d, err := core.ScheduleOnlyCtx(ctx, ex.Graph, cfg)
				if err := audit(fmt.Sprintf("%s/mfs-pipelined/T=%d", ex.Name, t), d, err); err != nil {
					return nil, err
				}
			}
		}
		for _, style := range []int{1, 2} {
			cfg := base
			cfg.CS = ex.TimeConstraints[0]
			cfg.Style = style
			d, err := core.SynthesizeCtx(ctx, ex.Graph, cfg)
			if err := audit(fmt.Sprintf("%s/mfsa/style%d", ex.Name, style), d, err); err != nil {
				return nil, err
			}
		}
	}
	return all, nil
}

// equivOptions carries the -equiv flag set.
type equivOptions struct {
	json, bench        bool
	mutate             string
	cs, style, latency int
	clock              float64
	optimize           bool
	par                int
}

// runEquiv drives translation validation: one certificate per design,
// text or JSON, non-zero exit when any certificate is refuted.
func runEquiv(ctx context.Context, fs *flag.FlagSet, out io.Writer, opt equivOptions) error {
	var certs []*lint.Certificate
	switch {
	case opt.bench:
		if fs.NArg() != 0 {
			return fmt.Errorf("-benchmarks takes no file arguments")
		}
		if opt.mutate != "" {
			return fmt.Errorf("-mutate works on a single source file, not -benchmarks")
		}
		cs, err := certifyBenchmarks(ctx, opt.par)
		if err != nil {
			return err
		}
		certs = cs
	case fs.NArg() == 1:
		if opt.cs <= 0 {
			return fmt.Errorf("a time constraint is required: -cs N")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		d, err := core.SynthesizeSourceCtx(ctx, string(src), core.Config{
			CS: opt.cs, Style: opt.style, ClockNs: opt.clock, Latency: opt.latency,
			Optimize: opt.optimize, Parallelism: opt.par,
		})
		if err != nil {
			return err
		}
		u := d.LintUnit()
		if opt.mutate != "" {
			if err := lint.ApplyMutation(u, opt.mutate); err != nil {
				return err
			}
		}
		cert, err := lint.Certify(ctx, u)
		if err != nil {
			return err
		}
		certs = []*lint.Certificate{cert}
	default:
		return fmt.Errorf("usage: hlslint -equiv [flags] design.hls | hlslint -equiv -benchmarks")
	}
	refuted := 0
	for _, c := range certs {
		if c.Status == "refuted" {
			refuted++
		}
	}
	if opt.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(certReport{Certificates: certs, Refuted: refuted}); err != nil {
			return err
		}
	} else {
		for _, c := range certs {
			fmt.Fprintf(out, "%s: %s (CS=%d)\n", c.Design, c.Status, c.CS)
			for _, p := range c.Outputs {
				fmt.Fprintf(out, "  output %-12s datapath=%s netlist=%s\n", p.Output, p.Datapath, p.Netlist)
			}
			if c.CrossCheck != "" {
				fmt.Fprintf(out, "  cross-check: %s\n", c.CrossCheck)
			}
			for _, d := range c.Diagnostics {
				fmt.Fprintf(out, "  %s\n", d.String())
				if cx := d.Counterexample; cx != nil {
					confirmed := "symbolic only"
					if cx.SimConfirmed {
						confirmed = "simulator-confirmed"
					}
					fmt.Fprintf(out, "    counterexample (%s): inputs=%v want=%d got=%d\n",
						confirmed, cx.Inputs, cx.Want, cx.Got)
					if cx.SimError != "" {
						fmt.Fprintf(out, "    simulator: %s\n", cx.SimError)
					}
				}
			}
		}
		fmt.Fprintf(out, "%d certificate(s): %d refuted\n", len(certs), refuted)
	}
	if refuted > 0 {
		return fmt.Errorf("%d refuted certificate(s)", refuted)
	}
	return nil
}

// certifyBenchmarks certifies every paper benchmark, synthesized with
// MFSA in both datapath styles at its tightest time constraint.
func certifyBenchmarks(ctx context.Context, par int) ([]*lint.Certificate, error) {
	var certs []*lint.Certificate
	for _, ex := range benchmarks.All() {
		for _, style := range []int{1, 2} {
			cfg := core.Config{
				CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs,
				Style: style, Parallelism: par,
			}
			d, err := core.SynthesizeCtx(ctx, ex.Graph, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/style%d: %w", ex.Name, style, err)
			}
			u := d.LintUnit()
			u.Design = fmt.Sprintf("%s/mfsa/style%d", ex.Name, style)
			cert, err := lint.Certify(ctx, u)
			if err != nil {
				return nil, err
			}
			certs = append(certs, cert)
		}
	}
	return certs, nil
}

// certReport is the -equiv -json output shape.
type certReport struct {
	Certificates []*lint.Certificate `json:"certificates"`
	Refuted      int                 `json:"refuted"`
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Diagnostics diag.List `json:"diagnostics"`
	Errors      int       `json:"errors"`
	Warnings    int       `json:"warnings"`
}

func render(out io.Writer, all diag.List, asJSON bool) error {
	errs := all.Count(diag.Error)
	warns := all.Count(diag.Warn) - errs
	if asJSON {
		rep := jsonReport{Diagnostics: all, Errors: errs, Warnings: warns}
		if rep.Diagnostics == nil {
			rep.Diagnostics = diag.List{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	for _, d := range all {
		fmt.Fprintln(out, d.String())
	}
	fmt.Fprintf(out, "%d diagnostic(s): %d error(s), %d warning(s)\n", len(all), errs, warns)
	return nil
}
