package core

import (
	"context"
	"fmt"

	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/op"
)

// Edit describes one local change to a synthesized design's graph.
// Exactly one field must be set. The supported edits are the ones an
// interactive design loop makes between synthesis runs: adding a primary
// input, appending an operation, deleting a sink, and changing an
// operation's cycle count.
type Edit struct {
	// AddInput adds a primary input with the given name.
	AddInput string

	// AddOp appends a new operation; see AddOpEdit.
	AddOp *AddOpEdit

	// RemoveSink deletes the named node, which must have no consumers
	// (a sink). Its producers stay; ones left without consumers become
	// outputs.
	RemoveSink string

	// Retime changes an operation's cycle count; see RetimeEdit.
	Retime *RetimeEdit
}

// AddOpEdit appends one operation to the graph. Args must name existing
// inputs or nodes. Cycles < 1 defaults to 1; DelayNs <= 0 leaves the
// chaining delay at the op kind's default.
type AddOpEdit struct {
	Name    string
	Op      op.Kind
	Args    []string
	Cycles  int
	DelayNs float64
}

// RetimeEdit sets the named operation's Cycles — the multicycle
// annotation of §5.3 — without touching the graph structure.
type RetimeEdit struct {
	Node   string
	Cycles int
}

// apply derives the post-edit graph. The input graph is never mutated.
func (e Edit) apply(g *dfg.Graph) (*dfg.Graph, error) {
	set := 0
	if e.AddInput != "" {
		set++
	}
	if e.AddOp != nil {
		set++
	}
	if e.RemoveSink != "" {
		set++
	}
	if e.Retime != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("core: edit must set exactly one of AddInput, AddOp, RemoveSink, Retime (got %d)", set)
	}
	switch {
	case e.AddInput != "":
		c := g.Clone()
		if err := c.AddInput(e.AddInput); err != nil {
			return nil, err
		}
		return c, nil
	case e.AddOp != nil:
		c := g.Clone()
		id, err := c.AddOp(e.AddOp.Name, e.AddOp.Op, e.AddOp.Args...)
		if err != nil {
			return nil, err
		}
		if e.AddOp.Cycles >= 1 {
			if err := c.SetCycles(id, e.AddOp.Cycles); err != nil {
				return nil, err
			}
		}
		if e.AddOp.DelayNs > 0 {
			if err := c.SetDelayNs(id, e.AddOp.DelayNs); err != nil {
				return nil, err
			}
		}
		return c, nil
	case e.RemoveSink != "":
		return removeSink(g, e.RemoveSink)
	default:
		c := g.Clone()
		n, ok := c.Lookup(e.Retime.Node)
		if !ok {
			return nil, fmt.Errorf("core: retime: no node %q in %s", e.Retime.Node, g.Name)
		}
		if err := c.SetCycles(n.ID, e.Retime.Cycles); err != nil {
			return nil, err
		}
		return c, nil
	}
}

// removeSink rebuilds g without the named sink. Node IDs are dense and
// append-only, so deletion means reconstruction; everything else — names,
// args, cycle counts, delays, conditional tags, folded loops — carries
// over verbatim, and IDs past the sink shift down by one.
func removeSink(g *dfg.Graph, name string) (*dfg.Graph, error) {
	target, ok := g.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: remove: no node %q in %s", name, g.Name)
	}
	if len(target.Succs()) > 0 {
		return nil, fmt.Errorf("core: remove: node %q has %d consumer(s); only sinks can be removed",
			name, len(target.Succs()))
	}
	c := dfg.New(g.Name)
	for _, in := range g.Inputs() {
		if err := c.AddInput(in); err != nil {
			return nil, err
		}
	}
	for _, n := range g.Nodes() {
		if n.ID == target.ID {
			continue
		}
		var id dfg.NodeID
		var err error
		if n.IsLoop() {
			binds := make(map[string]string, len(n.SubIns))
			for i, in := range n.SubIns {
				binds[in] = n.Args[i]
			}
			id, err = c.AddLoop(n.Name, n.Sub.Clone(), n.SubOut, binds)
		} else {
			id, err = c.AddOp(n.Name, n.Op, n.Args...)
		}
		if err != nil {
			return nil, err
		}
		if n.Cycles != 1 {
			if err := c.SetCycles(id, n.Cycles); err != nil {
				return nil, err
			}
		}
		if n.DelayNs != 0 {
			if err := c.SetDelayNs(id, n.DelayNs); err != nil {
				return nil, err
			}
		}
		if len(n.Excl) > 0 {
			if err := c.Tag(id, n.Excl...); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Resynthesize re-derives a design after a local graph edit: it applies
// the edit and runs the engine the design came from — MFSA for a design
// with a datapath, MFS otherwise — under the design's original Config.
// The result, trace included, is exactly what that entry point returns
// for the edited graph.
//
// The design must come from Synthesize/ScheduleOnly (or a previous
// Resynthesize): those capture the Config the edited graph re-runs
// under. Designs assembled by other means (Allocate) are rejected.
//
//hls:sharedok Edit.apply mutates only its own Clone of d.Graph (loop bodies are re-cloned before reuse); d is read-only here
func Resynthesize(d *Design, e Edit) (*Design, error) {
	return ResynthesizeCtx(context.Background(), d, e)
}

// ResynthesizeCtx is Resynthesize with cancellation, the original
// Config's Timeout, input-size guards, and the panic-recovery boundary.
//
//hls:sharedok Edit.apply mutates only its own Clone of d.Graph (loop bodies are re-cloned before reuse); d is read-only here
func ResynthesizeCtx(ctx context.Context, d *Design, e Edit) (out *Design, err error) {
	defer guard.Recover("core.Resynthesize", &err)
	if d == nil || d.Graph == nil || d.Schedule == nil {
		return nil, fmt.Errorf("core: resynthesize needs a completed design (run Synthesize or ScheduleOnly first)")
	}
	if !d.resumable {
		return nil, fmt.Errorf("core: resynthesize needs a design produced by Synthesize, ScheduleOnly or Resynthesize; this one carries no synthesis configuration")
	}
	newG, err := e.apply(d.Graph)
	if err != nil {
		return nil, err
	}
	run, eng := scheduleOnly, engineMFS
	if d.Datapath != nil {
		run, eng = synthesize, engineMFSA
	}
	if err := guardInput(newG, d.cfg, eng); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, d.cfg)
	defer cancel()
	if out, err = run(ctx, newG, d.cfg); err != nil {
		return nil, err
	}
	out.Consts = d.Consts
	return out, nil
}
