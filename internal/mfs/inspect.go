package mfs

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/sched"
)

// Inspection is a snapshot of the scheduler state at the moment one
// operation is about to be placed: the frames it sees and its type's
// placement table with every earlier operation already committed. It is
// what the paper's Figure 2 draws.
type Inspection struct {
	Node   *dfg.Node
	Frames grid.Frames
	Table  *grid.Table
	Chosen grid.Pos // the position MFS then selects
}

// FramesFor runs MFS until operation target is about to be placed and
// returns the frame snapshot, then lets the run complete so the chosen
// position is also reported. It fails if the run fails before reaching
// the target.
func FramesFor(g *dfg.Graph, opt Options, target dfg.NodeID) (*Inspection, error) {
	if opt.CS == 0 {
		return nil, fmt.Errorf("mfs: FramesFor needs a time constraint")
	}
	frames, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
	if err != nil {
		return nil, fmt.Errorf("mfs: %w", err)
	}
	s, err := newScheduler(g, opt.CS, opt, false, frames)
	if err != nil {
		return nil, err
	}

	for _, id := range sched.PriorityOrder(g, frames) {
		var snap *Inspection
		if id == target {
			snap = &Inspection{Node: g.Node(id), Frames: s.frameSet(id), Table: s.tables[TypeKey(g.Node(id))]}
		}
		if err := s.placeOne(id); err != nil {
			return nil, err
		}
		if id == target {
			// Stop here so the snapshot shows exactly the state the
			// target was placed against.
			p := s.Placements()[id]
			snap.Chosen = grid.Pos{Step: p.Step, Index: p.Index}
			return snap, nil
		}
	}
	return nil, fmt.Errorf("mfs: target node %d not found", target)
}

// Render draws the inspection as ASCII art in the style of Figure 2: the
// placed operations as X, the frames as P/R/F/M glyphs, and the chosen
// position highlighted.
func (in *Inspection) Render() string {
	labels := map[grid.Pos]string{in.Chosen: "r*"}
	return fmt.Sprintf("operation %q (frames at its placement)\n%s",
		in.Node.Name, grid.Render(in.Table, &in.Frames, labels))
}
