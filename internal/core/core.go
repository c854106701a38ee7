// Package core ties the paper's contribution together into the
// end-to-end synthesis flow a SYNTEST-style tool would run (§6):
// behavioral description → data-flow graph → MFS scheduling or MFSA mixed
// scheduling-allocation → FSM controller → structural netlist, with
// simulation-based verification against the behavioral reference at the
// end. The exported entry points here back the public hls façade at the
// repository root and the cmd/ tools.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/behav"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/emit"
	"repro/internal/guard"
	"repro/internal/library"
	"repro/internal/lint"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config selects and parameterizes a synthesis run. The zero value is
// invalid: set either CS (time-constrained) or Limits (resource-
// constrained scheduling; MFSA always needs CS).
type Config struct {
	// CS is the time constraint in control steps. A negative CS, or a
	// zero one where the run needs a time constraint (MFSA always; MFS
	// without Limits), is a *guard.ConfigError. Sweeps set their own.
	CS int

	// Limits caps functional units: op symbols for scheduling, library
	// unit names for allocation. A negative value, or a key that names no
	// FU type of the entry point's engine, is a *guard.ConfigError.
	Limits map[string]int

	// ClockNs enables operation chaining (§5.4). A negative, NaN or
	// infinite period, or one so long that the schedule's span in ns
	// overflows a float64, is a *guard.ConfigError.
	ClockNs float64

	// Latency enables functional pipelining with the given initiation
	// interval (§5.5.2).
	Latency int

	// PipelinedOps lists op symbols realized by structurally pipelined
	// units (§5.5.1); scheduling treats their grids as pipelined, and
	// allocation admits matching pipelined library cells.
	PipelinedOps []string

	// Lib is the allocation cell library; nil = library.NCRLike().
	Lib *library.Library

	// Style is the MFSA datapath style (1 or 2); 0 = style 1. Any other
	// value, like a negative ClockNs or Latency, a Latency above a set
	// CS, or a PipelinedOps entry that names no operation, is a
	// *guard.ConfigError.
	Style int

	// Weights reweight MFSA's Liapunov terms (time, ALU, mux, register);
	// zeros mean the balanced optimizer. A negative weight is valid: it
	// rewards its term. A NaN or infinite one is a *guard.ConfigError.
	Weights [4]float64

	// RegisterInputs allocates registers for primary inputs too.
	RegisterInputs bool

	// Optimize runs the frontend passes (constant folding, common
	// subexpression elimination, dead-code elimination against the
	// declared outputs) before scheduling.
	Optimize bool

	// Parallelism bounds the worker pool used by the parallel hot paths
	// (Sweep, SweepGraphs, the resource-constrained MFS search, and the
	// lint analyzers): 1 = sequential, n > 1 = at most n workers on every
	// path, and 0 = GOMAXPROCS, except that a fan-out inside one design
	// (the MFS search's cs window, the lint analyzers) runs sequentially
	// on a graph below pool.GrainNodes (64) nodes, where a second core
	// costs more than it saves. A negative value is a
	// *guard.ConfigError. Every setting produces identical results — the
	// knob only trades wall-clock time for CPU share (see DESIGN.md,
	// "Concurrency model").
	Parallelism int

	// Lint runs the internal/lint static verification passes over every
	// produced artifact after synthesis and fails the run on any
	// error-severity diagnostic (warnings and notes are kept on the
	// Design for inspection via Design.Lint).
	Lint bool

	// NoTrace skips recording the move trajectory (Schedule.Trace) and
	// the per-step candidate sets. The schedule and datapath are
	// bit-identical either way; the run just drops the audit metadata,
	// so lint's trace-replay analyzers have nothing to check. The trace
	// costs 96 bytes per placement plus, for MFSA, 24 bytes per scored
	// candidate (see mfsa.Options.NoTrace), so batch runs on very large
	// graphs, which never audit it, may drop it.
	NoTrace bool

	// Timeout bounds the wall-clock time of one entry-point call
	// (Synthesize, ScheduleOnly, Sweep, ...). Zero means no timeout. An
	// expired timeout surfaces as context.DeadlineExceeded, exactly as
	// if the caller had passed an already-expired context.
	Timeout time.Duration

	// MaxNodes caps the number of graph nodes accepted by an entry
	// point: 0 selects guard.DefaultMaxNodes, a negative value disables
	// the check. Oversized inputs fail fast with a *guard.LimitError
	// instead of grinding through an enormous schedule.
	MaxNodes int

	// MaxCSteps caps the time constraint (Config.CS): 0 selects
	// guard.DefaultMaxCSteps, a negative value disables the check.
	// Degenerate constraints fail fast with a *guard.LimitError instead
	// of allocating per-step state for millions of control steps.
	MaxCSteps int
}

// effectiveLimit resolves a limit knob: 0 = the default, negative =
// unlimited (returned as 0, meaning "no check").
func effectiveLimit(knob, def int) int {
	switch {
	case knob == 0:
		return def
	case knob < 0:
		return 0
	default:
		return knob
	}
}

// engine is the scheduler an entry point runs, which fixes the key space
// of Config.Limits.
type engine int

const (
	engineMFS  engine = iota // MFS: limits by operation symbol
	engineMFSA               // MFSA: limits by unit of the library in use
)

// guardInput is the gate every entry point runs before any real work:
// inputs beyond the configured size caps are rejected with a typed
// *guard.LimitError, and a config value no run of eng can honor with a
// *guard.ConfigError.
func guardInput(g *dfg.Graph, cfg Config, eng engine) error {
	if max := effectiveLimit(cfg.MaxNodes, guard.DefaultMaxNodes); max > 0 && g != nil && g.Len() > max {
		return &guard.LimitError{What: "graph nodes", Got: g.Len(), Max: max}
	}
	if max := effectiveLimit(cfg.MaxCSteps, guard.DefaultMaxCSteps); max > 0 && cfg.CS > max {
		return &guard.LimitError{What: "control steps", Got: cfg.CS, Max: max}
	}
	return checkConfig(g, cfg, eng)
}

// checkConfig rejects the config values no run can honor. Of several bad
// limits, the first by name is reported, a negative one before one on an
// unknown key.
func checkConfig(g *dfg.Graph, cfg Config, eng engine) error {
	keys := make([]string, 0, len(cfg.Limits))
	for k := range cfg.Limits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := cfg.Limits[k]; v < 0 {
			return &guard.ConfigError{Field: "Limits", Key: k, Value: v, Why: "an instance limit cannot be negative"}
		}
	}
	lib := cfg.Lib
	if lib == nil && eng == engineMFSA && len(keys) > 0 {
		lib = library.NCRLike()
	}
	for _, k := range keys {
		if !limitKey(g, lib, eng, k) {
			return &guard.ConfigError{Field: "Limits", Key: k, Value: cfg.Limits[k],
				Why: "no such FU type; valid keys are " + limitKeyList(lib, eng)}
		}
	}
	switch {
	case cfg.CS < 0:
		return &guard.ConfigError{Field: "CS", Value: cfg.CS, Why: "a time constraint cannot be negative"}
	case cfg.Style < 0 || cfg.Style > 2:
		return &guard.ConfigError{Field: "Style", Value: cfg.Style, Why: "the datapath style is 1 or 2, or 0 for style 1"}
	case math.IsNaN(cfg.ClockNs) || math.IsInf(cfg.ClockNs, 0):
		return &guard.ConfigError{Field: "ClockNs", Value: cfg.ClockNs, Why: "a clock period must be a finite number"}
	case cfg.ClockNs < 0:
		return &guard.ConfigError{Field: "ClockNs", Value: cfg.ClockNs, Why: "a clock period cannot be negative"}
	case cfg.Latency < 0:
		return &guard.ConfigError{Field: "Latency", Value: cfg.Latency, Why: "an initiation interval cannot be negative"}
	case cfg.Parallelism < 0:
		return &guard.ConfigError{Field: "Parallelism", Value: cfg.Parallelism, Why: "a worker count cannot be negative; 0 selects the default"}
	}
	if err := checkLatency(cfg.Latency, cfg.CS); err != nil {
		return err
	}
	if err := checkClockSpan(g, cfg.ClockNs, cfg.CS); err != nil {
		return err
	}
	for i, sym := range cfg.PipelinedOps {
		if _, err := op.Parse(sym); err != nil {
			return &guard.ConfigError{Field: "PipelinedOps", Key: strconv.Itoa(i), Value: sym,
				Why: "no such operation; valid ones are " + opSymbols()}
		}
	}
	for i, w := range cfg.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return &guard.ConfigError{Field: "Weights", Key: strconv.Itoa(i), Value: w, Why: "a weight must be a finite number"}
		}
	}
	return nil
}

// checkClockSpan rejects a clock period so long that chaining, which
// times a schedule of cs steps (at least g's critical path) in ns,
// overflows a float64.
func checkClockSpan(g *dfg.Graph, clockNs float64, cs int) error {
	if clockNs <= 0 || g == nil {
		return nil
	}
	if steps := max(cs, g.CriticalPathCycles()) + 1; math.IsInf(float64(steps)*clockNs, 1) {
		return &guard.ConfigError{Field: "ClockNs", Value: clockNs,
			Why: fmt.Sprintf("%d steps of this period overflow the schedule's time in ns", steps)}
	}
	return nil
}

// checkTimeConstraint rejects a run of eng without a time constraint:
// MFSA always needs one, MFS unless Limits bound it by resources
// instead, and functional pipelining (Latency) in either engine. A sweep
// sets its own, so only the single-run entry points call this.
func checkTimeConstraint(cfg Config, eng engine) error {
	switch {
	case cfg.CS > 0:
		return nil
	case eng == engineMFSA:
		return &guard.ConfigError{Field: "CS", Value: cfg.CS, Why: "MFSA needs a time constraint of at least 1 step"}
	case len(cfg.Limits) == 0:
		return &guard.ConfigError{Field: "CS", Value: cfg.CS,
			Why: "MFS needs a time constraint of at least 1 step, or Limits for resource-constrained scheduling"}
	case cfg.Latency > 0:
		return &guard.ConfigError{Field: "Latency", Value: cfg.Latency,
			Why: "functional pipelining needs a time constraint; resource-constrained scheduling searches for one"}
	}
	return nil
}

// checkLatency rejects a Latency above a time constraint of cs steps (0:
// none set).
func checkLatency(latency, cs int) error {
	if cs > 0 && latency > cs {
		return &guard.ConfigError{Field: "Latency", Value: latency,
			Why: fmt.Sprintf("the initiation interval exceeds the time constraint of %d steps", cs)}
	}
	return nil
}

// limitKey reports whether k names an FU type of eng: a unit of lib for
// MFSA; an operation symbol, or the type key of one of g's folded loops,
// for MFS.
func limitKey(g *dfg.Graph, lib *library.Library, eng engine, k string) bool {
	if eng == engineMFSA {
		_, ok := lib.Lookup(k)
		return ok
	}
	if _, err := op.Parse(k); err == nil {
		return true
	}
	name, ok := strings.CutPrefix(k, "loop:")
	if !ok || g == nil {
		return false
	}
	n, ok := g.Lookup(name)
	return ok && n.IsLoop()
}

// limitKeyList lists the valid Limits keys of eng for an error message.
func limitKeyList(lib *library.Library, eng engine) string {
	if eng == engineMFS {
		return opSymbols() + " and loop:<name> for a folded loop"
	}
	names := make([]string, len(lib.Units()))
	for i, u := range lib.Units() {
		names[i] = u.Name
	}
	return strings.Join(names, " ")
}

// opSymbols lists every operation symbol.
func opSymbols() string {
	var b strings.Builder
	for i, k := range op.Kinds() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k.String())
	}
	return b.String()
}

// withTimeout applies cfg.Timeout to ctx. The returned cancel must be
// called; it is a no-op when no timeout is configured.
func withTimeout(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.Timeout > 0 {
		return context.WithTimeout(ctx, cfg.Timeout)
	}
	return ctx, func() {}
}

// Design is a complete synthesis result. Datapath, Controller and Cost
// are populated by Synthesize (MFSA) and Allocate; Schedule alone by
// ScheduleOnly (MFS).
type Design struct {
	Graph      *dfg.Graph
	Consts     map[string]int64 // literal constants from the behavioral source
	Schedule   *sched.Schedule
	Datapath   *rtl.Datapath
	Controller *ctrl.Controller
	Cost       rtl.Cost

	// cfg is the configuration the design was produced under: Lint
	// audits the result under its Limits, Style and Parallelism, and
	// Resynthesize re-runs it after a graph edit.
	cfg Config
	// resumable marks a design from an MFS or MFSA entry point, which
	// Resynthesize can re-run on an edited graph under cfg. Allocate
	// results bind a frozen external schedule and cannot be
	// resynthesized.
	resumable bool
}

// ScheduleOnly runs MFS on a graph.
func ScheduleOnly(g *dfg.Graph, cfg Config) (*Design, error) {
	return ScheduleOnlyCtx(context.Background(), g, cfg)
}

// ScheduleOnlyCtx is ScheduleOnly with cancellation, cfg.Timeout, the
// input-size guards, and the panic-recovery boundary: an internal panic
// surfaces as a *guard.InternalError instead of crashing the caller.
func ScheduleOnlyCtx(ctx context.Context, g *dfg.Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("core.ScheduleOnly", &err)
	if err := guardInput(g, cfg, engineMFS); err != nil {
		return nil, err
	}
	if err := checkTimeConstraint(cfg, engineMFS); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	return scheduleOnly(ctx, g, cfg)
}

// scheduleOnly is the shared MFS body; guards and timeout are already
// applied by the caller.
func scheduleOnly(ctx context.Context, g *dfg.Graph, cfg Config) (*Design, error) {
	s, err := mfs.ScheduleCtx(ctx, g, mfsOptions(cfg))
	if err != nil {
		return nil, err
	}
	d := &Design{Graph: g, Schedule: s, cfg: cfg, resumable: true}
	if err := d.lintGate(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// Synthesize runs MFSA on a graph and builds the controller.
func Synthesize(g *dfg.Graph, cfg Config) (*Design, error) {
	return SynthesizeCtx(context.Background(), g, cfg)
}

// SynthesizeCtx is Synthesize with cancellation, cfg.Timeout, the
// input-size guards, and the panic-recovery boundary.
func SynthesizeCtx(ctx context.Context, g *dfg.Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("core.Synthesize", &err)
	if err := guardInput(g, cfg, engineMFSA); err != nil {
		return nil, err
	}
	if err := checkTimeConstraint(cfg, engineMFSA); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	return synthesize(ctx, g, cfg)
}

// synthesize is the shared MFSA + controller body; guards and timeout
// are already applied by the caller.
func synthesize(ctx context.Context, g *dfg.Graph, cfg Config) (*Design, error) {
	res, err := mfsa.SynthesizeCtx(ctx, g, mfsaOptions(cfg))
	if err != nil {
		return nil, err
	}
	d, err := allocated(g, res, cfg)
	if err != nil {
		return nil, err
	}
	d.resumable = true
	if err := d.lintGate(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// Allocate binds an externally produced schedule (MFS, force-directed,
// list-scheduled, ...) to a datapath with MFSA's cost machinery, the
// operations' control steps frozen (mfsa.Allocate), and builds the
// controller.
func Allocate(s *sched.Schedule, cfg Config) (*Design, error) {
	return AllocateCtx(context.Background(), s, cfg)
}

// AllocateCtx is Allocate with cancellation, cfg.Timeout, the input-size
// guards (the schedule's CS stands in for cfg.CS), the lint gate, and
// the panic-recovery boundary.
func AllocateCtx(ctx context.Context, s *sched.Schedule, cfg Config) (d *Design, err error) {
	defer guard.Recover("core.Allocate", &err)
	cfg.CS = s.CS
	if err := guardInput(s.Graph, cfg, engineMFSA); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	res, err := mfsa.AllocateCtx(ctx, s, mfsaOptions(cfg))
	if err != nil {
		return nil, err
	}
	d, err = allocated(s.Graph, res, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.lintGate(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// allocated builds the controller of an MFSA result and wraps both into
// a design produced under cfg.
func allocated(g *dfg.Graph, res *mfsa.Result, cfg Config) (*Design, error) {
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		return nil, err
	}
	return &Design{
		Graph:      g,
		Schedule:   res.Schedule,
		Datapath:   res.Datapath,
		Controller: c,
		Cost:       res.Cost,
		cfg:        cfg,
	}, nil
}

// lintGate enforces Config.Lint: any error-severity diagnostic fails the
// run that produced the design.
func (d *Design) lintGate(ctx context.Context) error {
	if !d.cfg.Lint {
		return nil
	}
	ds, err := d.LintCtx(ctx)
	if err != nil {
		return err
	}
	var errs diag.List
	for _, x := range ds {
		if x.Severity >= diag.Error {
			errs = append(errs, x)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("core: lint found %d error(s): %w", len(errs), errs.ErrOrNil())
	}
	return nil
}

// Lint runs the static verification analyzers (internal/lint) over
// every artifact the design has — graph, schedule with its recorded
// trajectory, datapath, controller, and the emitted netlist when the
// design is fully allocated — and returns the aggregated diagnostics.
// Passing analyzer names restricts the run to those passes.
func (d *Design) Lint(analyzers ...string) (diag.List, error) {
	return d.LintCtx(context.Background(), analyzers...)
}

// LintCtx is Lint with cancellation.
func (d *Design) LintCtx(ctx context.Context, analyzers ...string) (diag.List, error) {
	return lint.RunCtx(ctx, d.LintUnit(), lint.Options{Analyzers: analyzers, Parallelism: d.cfg.Parallelism})
}

// LintUnit bundles the design's artifacts — graph, schedule, datapath,
// controller, and the freshly emitted netlist when the design is fully
// allocated — the way the lint and translation-validation passes
// consume them.
func (d *Design) LintUnit() *lint.Unit {
	u := &lint.Unit{
		Graph:      d.Graph,
		Schedule:   d.Schedule,
		Limits:     d.cfg.Limits,
		Datapath:   d.Datapath,
		Style2:     d.cfg.Style == 2,
		Controller: d.Controller,
	}
	if d.Datapath != nil && d.Controller != nil {
		u.Netlist = emit.Verilog(d.Graph, d.Schedule, d.Datapath, d.Controller)
	}
	return u
}

// Certify runs the translation-validation pass alone: symbolic
// equivalence of the DFG reference, the scheduled datapath, and the
// emitted netlist (see internal/lint's equiv analyzer). The returned
// certificate carries one proof per design output plus any refuting
// diagnostics with their counterexamples.
func (d *Design) Certify() (*lint.Certificate, error) {
	return d.CertifyCtx(context.Background())
}

// CertifyCtx is Certify with cancellation.
func (d *Design) CertifyCtx(ctx context.Context) (*lint.Certificate, error) {
	return lint.Certify(ctx, d.LintUnit())
}

// SynthesizeSource parses a behavioral description and synthesizes it,
// running the frontend optimization passes first when cfg.Optimize is
// set.
func SynthesizeSource(src string, cfg Config) (*Design, error) {
	return SynthesizeSourceCtx(context.Background(), src, cfg)
}

// SynthesizeSourceCtx is SynthesizeSource with cancellation, cfg.Timeout,
// the input-size guards, and the panic-recovery boundary.
func SynthesizeSourceCtx(ctx context.Context, src string, cfg Config) (d *Design, err error) {
	defer guard.Recover("core.SynthesizeSource", &err)
	g, consts, err := frontend(src, cfg)
	if err != nil {
		return nil, err
	}
	if err := guardInput(g, cfg, engineMFSA); err != nil {
		return nil, err
	}
	if err := checkTimeConstraint(cfg, engineMFSA); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	d, err = synthesize(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	d.Consts = consts
	return d, nil
}

// frontend parses a source and optionally optimizes the graph.
func frontend(src string, cfg Config) (*dfg.Graph, map[string]int64, error) {
	g, consts, outputs, err := behav.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.Optimize {
		return g, consts, nil
	}
	res, err := opt.Pipeline(g, consts, outputs)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Consts, nil
}

// ScheduleSource parses a behavioral description and schedules it with
// MFS (loops are folded per §5.2).
func ScheduleSource(src string, cfg Config) (*Design, *mfs.LoopDesign, error) {
	return ScheduleSourceCtx(context.Background(), src, cfg)
}

// ScheduleSourceCtx is ScheduleSource with cancellation, cfg.Timeout,
// the input-size guards, and the panic-recovery boundary.
func ScheduleSourceCtx(ctx context.Context, src string, cfg Config) (d *Design, ld *mfs.LoopDesign, err error) {
	defer guard.Recover("core.ScheduleSource", &err)
	g, consts, err := frontend(src, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := guardInput(g, cfg, engineMFS); err != nil {
		return nil, nil, err
	}
	if err := checkTimeConstraint(cfg, engineMFS); err != nil {
		return nil, nil, err
	}
	ctx, cancel := withTimeout(ctx, cfg)
	defer cancel()
	ld, err = mfs.ScheduleLoopsCtx(ctx, g, mfsOptions(cfg))
	if err != nil {
		return nil, nil, err
	}
	d = &Design{Graph: g, Consts: consts, Schedule: ld.Schedule, cfg: cfg, resumable: true}
	if err := d.lintGate(ctx); err != nil {
		return nil, nil, err
	}
	return d, ld, nil
}

func mfsOptions(cfg Config) mfs.Options {
	piped := make(map[string]bool, len(cfg.PipelinedOps))
	for _, sym := range cfg.PipelinedOps {
		piped[sym] = true
	}
	return mfs.Options{
		CS:             cfg.CS,
		Limits:         cfg.Limits,
		ClockNs:        cfg.ClockNs,
		Latency:        cfg.Latency,
		PipelinedTypes: piped,
		Parallelism:    cfg.Parallelism,
		NoTrace:        cfg.NoTrace,
	}
}

func mfsaOptions(cfg Config) mfsa.Options {
	return mfsa.Options{
		CS:      cfg.CS,
		Lib:     cfg.Lib,
		Style:   mfsa.Style(cfg.Style),
		ClockNs: cfg.ClockNs,
		Latency: cfg.Latency,
		Weights: mfsa.Weights{
			Time: cfg.Weights[0], ALU: cfg.Weights[1],
			Mux: cfg.Weights[2], Reg: cfg.Weights[3],
		},
		UsePipelinedUnits: len(cfg.PipelinedOps) > 0,
		Limits:            cfg.Limits,
		RegisterInputs:    cfg.RegisterInputs,
		NoTrace:           cfg.NoTrace,
	}
}

// Netlist renders the design's structural netlist; it requires a full
// Synthesize result.
func (d *Design) Netlist() (string, error) {
	if d.Datapath == nil || d.Controller == nil {
		return "", fmt.Errorf("core: netlist needs an allocated design (run Synthesize)")
	}
	return emit.Verilog(d.Graph, d.Schedule, d.Datapath, d.Controller), nil
}

// Simulate runs the design cycle-accurately on the given inputs (merged
// with any literal constants from the source) and returns every signal.
func (d *Design) Simulate(inputs map[string]int64) (map[string]int64, error) {
	return d.SimulateCtx(context.Background(), inputs)
}

// SimulateCtx is Simulate with cancellation and the simulator's step
// budget (see internal/sim).
func (d *Design) SimulateCtx(ctx context.Context, inputs map[string]int64) (map[string]int64, error) {
	all := make(map[string]int64, len(inputs)+len(d.Consts))
	for k, v := range d.Consts {
		all[k] = v
	}
	for k, v := range inputs {
		all[k] = v
	}
	if d.Datapath != nil {
		return sim.RunRTLCtx(ctx, d.Schedule, d.Datapath, all)
	}
	return sim.RunCtx(ctx, d.Schedule, all)
}

// SelfCheck cross-checks the synthesized design against the behavioral
// reference on n reproducible random input vectors (n <= 0 selects
// sim.DefaultCrossCheckSeeds), holding literal constants at their
// declared values.
func (d *Design) SelfCheck(n int) error {
	if err := sim.CrossCheckSeedsCtx(context.Background(), d.Schedule, d.Datapath, n, d.Consts); err != nil {
		return fmt.Errorf("core: self-check %w", err)
	}
	return nil
}
