// Package lint is the cross-layer static verification framework of the
// synthesis flow: a registry of analyzers in the style of go/analysis,
// each inspecting one artifact layer of a synthesized design — the
// data-flow graph, the schedule and its recorded move frames, the
// Liapunov trajectory, the RTL datapath, the FSM controller, and the
// emitted netlist text — and reporting typed diag.Diagnostic findings
// with stable codes (see internal/diag's registry).
//
// Analyzers are independent and run concurrently on the shared worker
// pool (inline on the caller's goroutine for a design below
// pool.GrainNodes at the default parallelism); aggregation is
// deterministic (input order, then diag.Sort), so a lint run is
// byte-identical at every parallelism setting. The
// cmd/hlslint CLI and core.Config.Lint both drive this package.
package lint

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/pool"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// Unit bundles the artifacts of one synthesized design for a lint run.
// Only Graph is mandatory; analyzers whose artifact is absent report
// nothing, so a Unit holding just a graph and a schedule gets the DFG,
// frames and Liapunov passes and skips the rest.
type Unit struct {
	// Design is the design name used in diagnostics; empty defaults to
	// Graph.Name.
	Design string

	// Graph is the behavioral data-flow graph.
	Graph *dfg.Graph

	// Outputs lists the declared primary outputs. Empty means the graph's
	// sinks are the outputs (every node feeds an output transitively), in
	// which case the dead-node check is vacuous by construction.
	Outputs []string

	// Schedule is the MFS/MFSA result, with its recorded Trace when the
	// scheduler produced one.
	Schedule *sched.Schedule

	// Limits are the per-type FU instance limits the schedule was run
	// under, if any.
	Limits map[string]int

	// Datapath is the allocated RTL structure.
	Datapath *rtl.Datapath

	// Style2 asserts the datapath was built under the style-2 restriction
	// (no ALU executes two data-dependent operations).
	Style2 bool

	// Controller is the FSM control path.
	Controller *ctrl.Controller

	// Netlist is the emitted structural Verilog text.
	Netlist string

	// parsed is the parse of Netlist that the analyzers of one RunCtx
	// share; nil on a caller's unit.
	parsed *parsedNetlist
}

// parsedNetlist is a Netlist parsed at most once. Analyzers read it
// concurrently, so it is never written after the parse.
type parsedNetlist struct {
	once  sync.Once
	m     *netModule
	diags diag.List
}

// netlist returns the parsed Netlist and the parse's findings. Within a
// RunCtx the analyzers share one parse; a unit outside a run, such as
// one Certify is called on directly, parses for itself.
func (u *Unit) netlist() (*netModule, diag.List) {
	p := u.parsed
	if p == nil {
		p = new(parsedNetlist)
	}
	p.once.Do(func() { p.m, p.diags = parseNetlist(u.Netlist) })
	return p.m, p.diags
}

func (u *Unit) designName() string {
	if u.Design != "" {
		return u.Design
	}
	if u.Graph != nil {
		return u.Graph.Name
	}
	return ""
}

// Analyzer is one registered lint pass.
type Analyzer struct {
	// Name is the pass identifier, unique in the registry, used for
	// selection (-run) and stamped on every diagnostic the pass reports.
	Name string

	// Doc is a one-line description of what the pass checks.
	Doc string

	// Run inspects the unit and returns its findings. Run must be safe
	// for concurrent use with other analyzers over the same (read-only)
	// unit and must not mutate the unit's artifacts. A pass doing real
	// work polls ctx and returns early (with partial findings) once the
	// context is done; the driver then reports ctx.Err() instead of the
	// partial list.
	Run func(ctx context.Context, u *Unit) diag.List
}

// registry holds the built-in analyzers, ordered by name.
var registry = []*Analyzer{
	allocAnalyzer,
	ctrlAnalyzer,
	dfgAnalyzer,
	equivAnalyzer,
	framesAnalyzer,
	liapunovAnalyzer,
	netlistAnalyzer,
}

// Analyzers returns the registered passes sorted by name. The slice is
// fresh; the Analyzer values are shared.
func Analyzers() []*Analyzer {
	out := append([]*Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Options configures a lint run.
type Options struct {
	// Analyzers selects passes by name; empty runs all of them.
	Analyzers []string

	// Parallelism bounds the worker pool over the analyzers: 1 =
	// sequential, n > 1 = at most n concurrent analyzers, and 0 =
	// GOMAXPROCS for a unit whose graph has pool.GrainNodes nodes or
	// more and sequential below. Every setting produces identical output.
	Parallelism int
}

// Run executes the selected analyzers over the unit concurrently and
// returns the aggregated, deterministically sorted findings. A pass
// that panics is converted into an HL0001 error diagnostic rather than
// crashing the run. Run fails only on an unknown analyzer name.
func Run(u *Unit, opts Options) (diag.List, error) {
	return RunCtx(context.Background(), u, opts)
}

// RunCtx is Run with cancellation: no new analyzer starts once ctx is
// done, and the call returns ctx.Err() instead of partial findings.
func RunCtx(ctx context.Context, u *Unit, opts Options) (diag.List, error) {
	selected, err := selectAnalyzers(opts.Analyzers)
	if err != nil {
		return nil, err
	}
	design := u.designName()
	if u.Netlist != "" {
		// The analyzers get a copy that carries one shared parse; the
		// caller's unit is never written, so a later edit of its Netlist
		// is linted afresh.
		shared := *u
		shared.parsed = new(parsedNetlist)
		u = &shared
	}
	nodes := 0
	if u.Graph != nil {
		nodes = u.Graph.Len()
	}
	results, err := pool.MapCtx(ctx, pool.SizeFor(opts.Parallelism, nodes), len(selected),
		func(i int) (diag.List, error) {
			return runOne(ctx, selected[i], u), nil
		})
	if err != nil {
		// Analyzers never return errors (panics become diagnostics), so
		// the only possible error here is the context's.
		return nil, err
	}
	var all diag.List
	//hls:ctxok stitches analyzer names onto findings the pooled analyzers already produced; nothing here blocks
	for i, ds := range results {
		for _, d := range ds {
			if d.Analyzer == "" {
				d.Analyzer = selected[i].Name
			}
			if d.Design == "" {
				d.Design = design
			}
			all = append(all, d)
		}
	}
	all.Sort()
	return all, nil
}

// runOne executes a single pass, converting panics into diagnostics so
// one broken analyzer cannot take down the whole run.
func runOne(ctx context.Context, a *Analyzer, u *Unit) (out diag.List) {
	defer func() {
		if r := recover(); r != nil {
			out = diag.List{{
				Code:     diag.CodeAnalyzerCrash,
				Severity: diag.Error,
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer %s panicked: %v", a.Name, r),
			}}
		}
	}()
	return a.Run(ctx, u)
}

func selectAnalyzers(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, a)
	}
	return out, nil
}
