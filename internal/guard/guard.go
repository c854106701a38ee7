// Package guard centralizes the hardening primitives the synthesis
// engine needs to run as a long-lived service: the panic-to-error
// recovery boundary (Recover, used by the core entry points and the
// worker pool so no internal bug can crash a host process), typed
// resource-limit and range errors, and the default resource budgets
// shared by the behavioral frontend, the schedulers and the simulator.
//
// The budgets exist to reject degenerate inputs — a parser-accepted
// `@ 1000000000` multicycle annotation, a graph with millions of nodes —
// with a typed error before they exhaust memory, not to constrain
// legitimate designs: every paper benchmark sits orders of magnitude
// below them.
package guard

import (
	"fmt"
	"runtime/debug"
)

// Default resource budgets. Callers treat a zero-valued knob
// (core.Config.MaxNodes, core.Config.MaxCSteps) as selecting these.
const (
	// DefaultMaxNodes caps the number of operations in a graph accepted
	// by the synthesis entry points.
	DefaultMaxNodes = 100_000

	// DefaultMaxCSteps caps control-step counts wherever one is accepted:
	// time constraints, multicycle annotations, loop time constraints,
	// and the resource-constrained search bound. Placement grids and
	// frame tables are O(cs) per FU column, so this bounds scheduler
	// memory.
	DefaultMaxCSteps = 1 << 16

	// DefaultSimBudget caps the node-cycles one simulation run may
	// execute before it is aborted with a LimitError.
	DefaultSimBudget = 50_000_000
)

// InternalError is a recovered internal panic, carrying the panic value
// and the stack captured at the recovery point. Seeing one means a bug
// inside the engine (or data violating a documented API invariant)
// crossed the recovery boundary instead of crashing the host process.
type InternalError struct {
	// Op is the entry point that recovered, e.g. "core.Synthesize".
	Op string

	// Value is the recovered panic value.
	Value any

	// Stack is the goroutine stack at recovery time (runtime/debug.Stack).
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("%s: internal error (recovered panic): %v", e.Op, e.Value)
}

// NewInternalError captures the current stack around a recovered panic
// value.
func NewInternalError(op string, value any) *InternalError {
	return &InternalError{Op: op, Value: value, Stack: debug.Stack()}
}

// Recover converts an in-flight panic into an *InternalError stored in
// *err. Use it as the single deferred recovery boundary of an entry
// point:
//
//	func Synthesize(...) (d *Design, err error) {
//		defer guard.Recover("core.Synthesize", &err)
//		...
//	}
//
// A panic value that already is an *InternalError (re-panicked across a
// layer) is kept as-is so the original stack survives. When no panic is
// in flight, Recover does nothing.
func Recover(op string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if ie, ok := r.(*InternalError); ok {
		*err = ie
		return
	}
	*err = NewInternalError(op, r)
}

// LimitError reports an input exceeding a resource budget. It is
// returned before the offending input is allowed to allocate memory or
// compute proportional to the out-of-range value.
type LimitError struct {
	// What names the bounded quantity, e.g. "graph nodes",
	// "multicycle count", "time constraint".
	What string

	// Got is the offending value; Max the budget it exceeded.
	Got, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s %d exceeds the limit of %d", e.What, e.Got, e.Max)
}

// ConfigError reports a configuration value no run can honor, such as a
// negative instance limit or a limit on a unit the library lacks. Field
// names the configuration field, Key the entry of a map- or list-valued
// field (empty for a scalar field), and Value the offending value.
type ConfigError struct {
	Field string
	Key   string
	Value any
	Why   string
}

func (e *ConfigError) Error() string {
	field := e.Field
	if e.Key != "" {
		field += fmt.Sprintf("[%q]", e.Key)
	}
	return fmt.Sprintf("config %s = %v: %s", field, e.Value, e.Why)
}

// RangeError reports a control-step constraint range a design-space
// sweep cannot satisfy: either the range itself is malformed (Lo < 1 or
// Lo > Hi), or it is well-formed but lies entirely below the graph's
// critical path, so no constraint in it admits a schedule. The second
// form carries the critical path (and, in multi-graph sweeps, the
// offending graph's name) so a caller can retry with a feasible range.
type RangeError struct {
	Lo, Hi int

	// CriticalPath, when positive, is the critical-path cycle count that
	// exceeds Hi: every cs in [Lo, Hi] is infeasible for the graph.
	CriticalPath int

	// Graph names the offending graph in multi-graph sweeps; empty for
	// single-graph sweeps and malformed ranges.
	Graph string
}

func (e *RangeError) Error() string {
	if e.CriticalPath > 0 {
		of := ""
		if e.Graph != "" {
			of = fmt.Sprintf(" of graph %q", e.Graph)
		}
		return fmt.Sprintf("control-step range [%d, %d] lies below the critical path%s (%d cycles): no feasible constraint",
			e.Lo, e.Hi, of, e.CriticalPath)
	}
	return fmt.Sprintf("invalid control-step range [%d, %d]: need 1 <= lo <= hi", e.Lo, e.Hi)
}
