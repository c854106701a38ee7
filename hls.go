// Package hls is a high-level synthesis library implementing Move Frame
// Scheduling (MFS) and Move Frame Scheduling-Allocation (MFSA) from
// Nourani and Papachristou, "Move Frame Scheduling and Mixed
// Scheduling-Allocation for the Automated Synthesis of Digital Systems"
// (DAC 1992), together with the substrates a real synthesis flow needs:
// a behavioral input language, ASAP/ALAP analysis, a cell-library cost
// model, RTL datapath construction with multiplexer and register
// optimization, FSM controller generation, structural netlist emission,
// a cycle-accurate verifying simulator, and baseline schedulers (list
// scheduling and force-directed scheduling) for comparison.
//
// # Quick start
//
//	design := `
//	design quick
//	input a, b, c
//	s = a + b
//	p = s * c
//	`
//	d, err := hls.SynthesizeSource(design, hls.Config{CS: 3})
//	if err != nil { ... }
//	fmt.Println(d.Cost.Total)          // datapath area in µm²
//	netlist, _ := d.Netlist()          // structural Verilog-style text
//	vals, _ := d.Simulate(map[string]int64{"a": 1, "b": 2, "c": 3})
//
// Graphs can also be built programmatically with NewGraph/AddOp, then
// scheduled with Schedule (time- or resource-constrained MFS) or
// synthesized with Synthesize (MFSA, producing a full RTL datapath).
// All scheduling extensions of the paper's §5 are available through
// Config: conditional mutual exclusion, folded loops, multicycle
// operations, chaining, and structural and functional pipelining.
package hls

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/behav"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/guard"
	"repro/internal/library"
	"repro/internal/lint"
	"repro/internal/op"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Typed failure modes of the hardened entry points. Every synthesis
// entry returns ordinary errors for user mistakes; the types below cover
// the boundary cases:
//
//   - *InternalError: an internal panic was recovered at the facade and
//     converted into an error carrying the panic value and stack. Seeing
//     one always indicates a bug in this library, never in caller code.
//   - *LimitError: an input exceeded a resource guard (Config.MaxNodes,
//     Config.MaxCSteps, or the simulator's step budget).
//   - *RangeError: a malformed [lo, hi] control-step range was passed to
//     Sweep or SweepGraphs, or a well-formed range lies entirely below a
//     graph's critical path (the error names the path length), so the
//     sweep has no feasible point.
//   - *ConfigError: a Config value no run can honor: a negative Limits
//     entry or one whose key names no FU type of the engine (op symbols
//     for ScheduleGraph, library unit names for Synthesize, Allocate and
//     Sweep), a Style outside 0–2, a negative ClockNs or Latency, a
//     Latency above a set CS, or a PipelinedOps entry that names no
//     operation. The error names the field, the key and the value.
//   - *NoPositionError: an operation found no free position within the
//     time constraint once its unit types reached their instance bounds
//     (Config.Limits); it names the operation, its window and the units.
//   - *LoopError: a folded loop node was given to MFSA, which synthesizes
//     flat graphs only.
//
// Cancelled or timed-out runs return ctx.Err() — context.Canceled or
// context.DeadlineExceeded — unwrapped, so errors.Is works as usual.
type (
	// InternalError is a recovered internal panic; Op names the entry
	// point, Value holds the panic value, Stack the goroutine stack.
	InternalError = guard.InternalError
	// LimitError reports an input that exceeds a configured resource cap.
	LimitError = guard.LimitError
	// RangeError reports a malformed control-step range, or one lying
	// entirely below a graph's critical path.
	RangeError = guard.RangeError
	// ConfigError reports a Config value no run can honor.
	ConfigError = guard.ConfigError
	// NoPositionError reports an operation no free position admits under
	// the instance limits.
	NoPositionError = sched.NoPositionError
	// LoopError reports a folded loop node given to MFSA.
	LoopError = sched.LoopError
)

// Resource-guard defaults, applied when the corresponding Config knob is
// zero. Set the knob negative to disable a guard.
const (
	// DefaultMaxNodes is the graph-size cap (Config.MaxNodes).
	DefaultMaxNodes = guard.DefaultMaxNodes
	// DefaultMaxCSteps is the time-constraint cap (Config.MaxCSteps).
	DefaultMaxCSteps = guard.DefaultMaxCSteps
)

// Core data-flow-graph types. A Graph is a DAG of operations over named
// signals; see NewGraph.
type (
	// Graph is a behavioral data-flow graph.
	Graph = dfg.Graph
	// Node is one operation in a Graph.
	Node = dfg.Node
	// NodeID identifies a node within its Graph.
	NodeID = dfg.NodeID
	// SignalID identifies a signal (a primary input or a node's output)
	// within its Graph; Graph.SignalName gives its name.
	SignalID = dfg.SignalID
	// CondTag marks membership in one branch of a conditional; nodes
	// tagged with the same Cond but different Branch are mutually
	// exclusive and may share hardware.
	CondTag = dfg.CondTag
)

// OpKind identifies an operation type (Add, Mul, Lt, ...).
type OpKind = op.Kind

// Re-exported operation kinds.
const (
	Add = op.Add
	Sub = op.Sub
	Mul = op.Mul
	Div = op.Div
	And = op.And
	Or  = op.Or
	Xor = op.Xor
	Not = op.Not
	Lt  = op.Lt
	Gt  = op.Gt
	Le  = op.Le
	Ge  = op.Ge
	Eq  = op.Eq
	Ne  = op.Ne
	Shl = op.Shl
	Shr = op.Shr
	Neg = op.Neg
	Mov = op.Mov
)

// NewGraph returns an empty data-flow graph with the given name. Build
// it with AddInput and AddOp (arguments must already exist), annotate
// multicycle operations with SetCycles and conditionals with Tag, then
// pass it to Schedule or Synthesize.
func NewGraph(name string) *Graph { return dfg.New(name) }

// Cell-library types for allocation (MFSA).
type (
	// Library is a set of functional-unit cells plus register and
	// multiplexer cost models.
	Library = library.Library
	// Unit is one functional-unit cell.
	Unit = library.Unit
)

// NCRLibrary returns the synthetic stand-in for the NCR ASIC data book
// the paper costs designs against (see DESIGN.md §3).
func NCRLibrary() *Library { return library.NCRLike() }

// ComposeALU builds a multi-function ALU cell covering the given kinds
// with a synthetic area (dearest member plus 30% of the rest).
func ComposeALU(kinds ...OpKind) *Unit { return library.Compose(kinds...) }

// Result types.
type (
	// Config parameterizes a synthesis run; see the field docs.
	Config = core.Config
	// Design is a completed synthesis result.
	Design = core.Design
	// Schedule maps operations to control steps and FU instances. It
	// keeps one placement per NodeID with a presence bit: At(id) reads
	// a node's placement and whether it is placed, Place and Unplace
	// write one.
	Schedule = sched.Schedule
	// Placement is one operation's slot in a Schedule: its start step,
	// its FU type (an op symbol for MFS, a library unit name for MFSA)
	// and its instance index.
	Placement = sched.Placement
	// Datapath is the bound RTL structure MFSA produces. Its ALUs' port
	// lists (L1, L2, in multiplexer-select order) and its register
	// intervals name signals by SignalID, and a Controller's actions name
	// their ALU by position in ALUs: Graph.SignalName and ALUs[i].Name
	// give the names.
	Datapath = rtl.Datapath
	// Cost is a datapath's Table 2-style cost breakdown.
	Cost = rtl.Cost
)

// Schedule runs Move Frame Scheduling on a graph: time-constrained when
// cfg.CS > 0, resource-constrained (minimizing control steps under
// cfg.Limits) when cfg.CS == 0.
func ScheduleGraph(g *Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.ScheduleGraph", &err)
	return core.ScheduleOnly(g, cfg)
}

// ScheduleGraphCtx is ScheduleGraph with cancellation: a cancelled or
// timed-out run (via ctx or cfg.Timeout) returns ctx.Err() promptly.
func ScheduleGraphCtx(ctx context.Context, g *Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.ScheduleGraph", &err)
	return core.ScheduleOnlyCtx(ctx, g, cfg)
}

// Synthesize runs Move Frame Scheduling-Allocation on a graph, producing
// a schedule, a bound RTL datapath, a controller and a cost breakdown.
func Synthesize(g *Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.Synthesize", &err)
	return core.Synthesize(g, cfg)
}

// SynthesizeCtx is Synthesize with cancellation: a cancelled or
// timed-out run (via ctx or cfg.Timeout) returns ctx.Err() within one
// placement's worth of work, never a partial design.
func SynthesizeCtx(ctx context.Context, g *Graph, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.Synthesize", &err)
	return core.SynthesizeCtx(ctx, g, cfg)
}

// SynthesizeSource parses a behavioral description (see ParseBehavior
// for the language) and synthesizes it with MFSA.
func SynthesizeSource(src string, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.SynthesizeSource", &err)
	return core.SynthesizeSource(src, cfg)
}

// SynthesizeSourceCtx is SynthesizeSource with cancellation.
func SynthesizeSourceCtx(ctx context.Context, src string, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.SynthesizeSource", &err)
	return core.SynthesizeSourceCtx(ctx, src, cfg)
}

// ScheduleSource parses a behavioral description and schedules it with
// MFS, folding nested loops per the paper's §5.2.
func ScheduleSource(src string, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.ScheduleSource", &err)
	d, _, err = core.ScheduleSource(src, cfg)
	return d, err
}

// ScheduleSourceCtx is ScheduleSource with cancellation.
func ScheduleSourceCtx(ctx context.Context, src string, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.ScheduleSource", &err)
	d, _, err = core.ScheduleSourceCtx(ctx, src, cfg)
	return d, err
}

// Allocate binds an externally produced schedule (from ScheduleGraph,
// ForceDirected, ListSchedule, ...) to an RTL datapath using MFSA's cost
// machinery with the operations' control steps frozen — the sequential
// two-phase flow the paper's introduction contrasts with MFSA. cfg
// applies as in Synthesize (library, style, weights, limits,
// RegisterInputs, NoTrace, the input guards, Timeout and Lint), except
// that the schedule fixes CS, ClockNs and Latency. The result cannot be
// resynthesized.
func Allocate(s *Schedule, cfg Config) (*Design, error) {
	return AllocateCtx(context.Background(), s, cfg)
}

// AllocateCtx is Allocate with cancellation and the facade's
// panic-recovery boundary.
func AllocateCtx(ctx context.Context, s *Schedule, cfg Config) (d *Design, err error) {
	defer guard.Recover("hls.Allocate", &err)
	return core.AllocateCtx(ctx, s, cfg)
}

// Re-synthesis: apply a local graph edit to a finished design and run
// its engine again on the edited graph.

type (
	// Edit is one local change to a design's graph; exactly one of its
	// fields must be set.
	Edit = core.Edit
	// AddOpEdit appends an operation (Edit.AddOp).
	AddOpEdit = core.AddOpEdit
	// RetimeEdit changes an operation's cycle count (Edit.Retime).
	RetimeEdit = core.RetimeEdit
)

// Resynthesize re-derives a design after a local graph edit: it applies
// the edit and runs the design's engine fresh under the design's
// original Config — Synthesize's MFSA for a design with a datapath,
// ScheduleGraph's MFS otherwise — so the result, trace included, is
// exactly that entry point's result for the edited graph. The design
// must come from Synthesize, ScheduleGraph, the Source variants, or a
// previous Resynthesize (Allocate results carry no Config to re-run
// under and are rejected).
//
//hls:sharedok the edit is applied to Edit.apply's private Clone of d.Graph; the input design is only read
func Resynthesize(d *Design, e Edit) (out *Design, err error) {
	defer guard.Recover("hls.Resynthesize", &err)
	return core.Resynthesize(d, e)
}

// ResynthesizeCtx is Resynthesize with cancellation, the original
// Config's Timeout and input guards, and the facade's panic-recovery
// boundary.
//
//hls:sharedok the edit is applied to Edit.apply's private Clone of d.Graph; the input design is only read
func ResynthesizeCtx(ctx context.Context, d *Design, e Edit) (out *Design, err error) {
	defer guard.Recover("hls.Resynthesize", &err)
	return core.ResynthesizeCtx(ctx, d, e)
}

// SweepPoint is one design point of a time-constraint sweep.
type SweepPoint = core.SweepPoint

// Sweep synthesizes g with MFSA at every time constraint in [csLo,
// csHi] (clamped to the critical path) and returns the cost/time design
// points with the Pareto frontier marked. Points are synthesized
// concurrently on cfg.Parallelism workers (0 = GOMAXPROCS); results are
// identical at every parallelism setting.
func Sweep(g *Graph, cfg Config, csLo, csHi int) (pts []SweepPoint, err error) {
	defer guard.Recover("hls.Sweep", &err)
	return core.Sweep(g, cfg, csLo, csHi)
}

// SweepCtx is Sweep with cancellation: cfg.Timeout bounds the whole
// sweep, and a cancelled run returns ctx.Err(), never partial points.
func SweepCtx(ctx context.Context, g *Graph, cfg Config, csLo, csHi int) (pts []SweepPoint, err error) {
	defer guard.Recover("hls.Sweep", &err)
	return core.SweepCtx(ctx, g, cfg, csLo, csHi)
}

// SweepGraphs sweeps several designs at once over one shared worker
// pool, flattening the graphs × constraints grid into independent
// synthesis jobs. The result is indexed like gs; each row carries its
// own Pareto marks and equals the corresponding Sweep call exactly.
func SweepGraphs(gs []*Graph, cfg Config, csLo, csHi int) (pts [][]SweepPoint, err error) {
	defer guard.Recover("hls.SweepGraphs", &err)
	return core.SweepGraphs(gs, cfg, csLo, csHi)
}

// SweepGraphsCtx is SweepGraphs with cancellation; see SweepCtx.
func SweepGraphsCtx(ctx context.Context, gs []*Graph, cfg Config, csLo, csHi int) (pts [][]SweepPoint, err error) {
	defer guard.Recover("hls.SweepGraphs", &err)
	return core.SweepGraphsCtx(ctx, gs, cfg, csLo, csHi)
}

// ParseBehavior lowers a behavioral description to a graph plus the
// values of its literal constants. The language supports `design`,
// `input`/`output` declarations, `const NAME = <int>`, assignments over
// the usual operators with precedence and parentheses, `@k` multicycle
// annotations, `if/else` blocks (mutual exclusion), and nested
// `loop ... cycles k binds ... yields ...` blocks (folded loops).
func ParseBehavior(src string) (g *Graph, consts map[string]int64, err error) {
	defer guard.Recover("hls.ParseBehavior", &err)
	return behav.BuildSource(src)
}

// RandomInputs generates reproducible input vectors for simulation:
// every value lies in [-100, 100] and follows from the seed and the
// input's position among the graph's sorted input names alone, so a
// seed names the same vector in every process. The values changed when
// the generator became a stateless mixer (see sim.RandomInputs).
func RandomInputs(g *Graph, seed int64) map[string]int64 {
	return sim.RandomInputs(g, seed)
}

// Baseline schedulers, for comparison studies.

// ForceDirected runs HAL-style force-directed scheduling under a time
// constraint.
func ForceDirected(g *Graph, cs int) (s *Schedule, err error) {
	defer guard.Recover("hls.ForceDirected", &err)
	return baseline.ForceDirected(g, cs)
}

// ListSchedule runs priority list scheduling under resource limits
// (op-symbol keyed).
func ListSchedule(g *Graph, limits map[string]int) (s *Schedule, err error) {
	defer guard.Recover("hls.ListSchedule", &err)
	return baseline.List(g, limits)
}

// ASAPSchedule returns the as-soon-as-possible schedule.
func ASAPSchedule(g *Graph) (s *Schedule, err error) {
	defer guard.Recover("hls.ASAPSchedule", &err)
	return baseline.ASAP(g)
}

// Static verification (hlslint).

type (
	// Diagnostic is one typed lint finding with a stable HL code.
	Diagnostic = diag.Diagnostic
	// Diagnostics is a sortable list of findings that also satisfies
	// error.
	Diagnostics = diag.List
	// LintUnit bundles the artifacts of one design for a lint run.
	LintUnit = lint.Unit
	// LintAnalyzer is one registered lint pass.
	LintAnalyzer = lint.Analyzer
	// LintOptions selects analyzers and bounds lint parallelism.
	LintOptions = lint.Options
)

// Severity levels of a Diagnostic.
const (
	SeverityInfo  = diag.Info
	SeverityWarn  = diag.Warn
	SeverityError = diag.Error
)

// Lint runs the static verification analyzers over a unit; see
// Design.Lint for the common case of auditing a synthesis result.
func Lint(u *LintUnit, opts LintOptions) (ds Diagnostics, err error) {
	defer guard.Recover("hls.Lint", &err)
	return lint.Run(u, opts)
}

// LintCtx is Lint with cancellation.
func LintCtx(ctx context.Context, u *LintUnit, opts LintOptions) (ds Diagnostics, err error) {
	defer guard.Recover("hls.Lint", &err)
	return lint.RunCtx(ctx, u, opts)
}

// LintAnalyzers returns the registered lint passes sorted by name.
func LintAnalyzers() []*LintAnalyzer { return lint.Analyzers() }

// Translation validation (the equiv pass).

type (
	// Certificate is the machine-readable result of one translation
	// validation: per-output symbolic proofs that the DFG reference,
	// the scheduled datapath, and the emitted netlist compute the same
	// function, plus any refuting diagnostics.
	Certificate = lint.Certificate
	// OutputProof is one design output's per-layer equivalence verdict.
	OutputProof = lint.OutputProof
	// Counterexample is a concrete input vector witnessing an
	// equivalence failure, attached to a refuting Diagnostic.
	Counterexample = diag.Counterexample
	// Mutation is one seeded artifact corruption of the soundness
	// harness; see Mutations.
	Mutation = lint.Mutation
)

// Certify runs the translation-validation pass over a unit: symbolic
// equivalence of the DFG reference, the scheduled datapath, and the
// emitted netlist, with counterexamples confirmed against the
// simulator. See Design.Certify for the common case of certifying a
// synthesis result.
func Certify(u *LintUnit) (c *Certificate, err error) {
	defer guard.Recover("hls.Certify", &err)
	return lint.Certify(context.Background(), u)
}

// CertifyCtx is Certify with cancellation; a cancelled run returns
// ctx.Err() plus the partial certificate gathered so far.
func CertifyCtx(ctx context.Context, u *LintUnit) (c *Certificate, err error) {
	defer guard.Recover("hls.Certify", &err)
	return lint.Certify(ctx, u)
}

// Mutations lists the seeded artifact corruptions the soundness
// harness can inject (see ApplyMutation and hlslint -mutate); each
// models a realistic synthesis bug the equiv pass must refuse to
// certify.
func Mutations() []Mutation { return lint.Mutations() }

// ApplyMutation corrupts a unit in place with the named mutation.
func ApplyMutation(u *LintUnit, name string) (err error) {
	defer guard.Recover("hls.ApplyMutation", &err)
	return lint.ApplyMutation(u, name)
}
