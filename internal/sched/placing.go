package sched

import "repro/internal/dfg"

// Placing is a schedule under construction in priority order, the
// placement core MFS and MFSA share: the placements committed so far,
// and the move window and chaining budget they leave each later node.
// Priority order is topological (PriorityOrder), so when a node is
// placed every predecessor is and no successor is; Window and ChainFits
// rely on that.
type Placing struct {
	g       *dfg.Graph
	frames  Frames
	clockNs float64

	// placed[id] is node id's placement, Step 0 while unplaced (steps
	// are 1-based).
	placed []Placement
	// steps repeats each placed Step and chainAcc[id] holds the
	// combinational delay at id's output within its step: the tables
	// ChainAccAt reads, kept under chaining only.
	steps    []int
	chainAcc []float64
}

// NewPlacing returns an empty placing of g's nodes within frames, with
// chaining at clockNs (0: none). Frames may be nil when Window is never
// asked.
func NewPlacing(g *dfg.Graph, frames Frames, clockNs float64) Placing {
	p := Placing{g: g, frames: frames, clockNs: clockNs, placed: make([]Placement, g.Len())}
	if clockNs > 0 {
		p.steps, p.chainAcc = make([]int, g.Len()), make([]float64, g.Len())
	}
	return p
}

// Window returns node id's move window against the committed
// placements: the start steps [lo..hi] and ffTop, the last step a placed
// predecessor forbids (the paper's FF extent; 0 for none). A placed
// predecessor pushes lo past its last step, or only to its own step
// when the two may chain, ChainFits then checking the delay budget. No
// successor is placed yet, so hi stays the ALAP bound; and lo > ffTop
// always holds, since a predecessor that sets ffTop to its last step
// also pushes lo past it.
func (pl *Placing) Window(id dfg.NodeID) (lo, hi, ffTop int) {
	n := pl.g.Node(id)
	lo, hi = pl.frames[id].ASAP, pl.frames[id].ALAP
	for _, pid := range n.Preds() {
		pp := pl.placed[pid]
		if pp.Step == 0 {
			continue
		}
		pred := pl.g.Node(pid)
		bound := pp.Step + pred.Cycles
		if pl.clockNs > 0 && chains(pred) && chains(n) {
			bound = pp.Step
		}
		lo = max(lo, bound)
		if end := pp.Step + pred.Cycles - 1; end > ffTop && bound > pp.Step {
			ffTop = end
		}
	}
	return lo, hi, ffTop
}

// chains reports whether n may share a control step with a data
// neighbour: multicycle and loop operations are boundary-aligned.
func chains(n *dfg.Node) bool { return n.Cycles == 1 && !n.IsLoop() }

// ChainFits reports whether starting node id at step keeps the
// combinational chain ending at it within the clock; without chaining
// every step fits. The incremental form is exact under priority order
// (see ChainAccAt), and TestChainAccAtMatchesChainFits pins it against
// the whole-graph ChainFits walk.
func (pl *Placing) ChainFits(id dfg.NodeID, step int) bool {
	return pl.clockNs <= 0 || ChainAccAt(pl.g, pl.steps, pl.chainAcc, id, step) <= pl.clockNs+1e-9
}

// Commit records node id at p, whose Step is nonzero.
func (pl *Placing) Commit(id dfg.NodeID, p Placement) {
	pl.placed[id] = p
	if pl.clockNs > 0 {
		pl.steps[id] = p.Step
		pl.chainAcc[id] = ChainAccAt(pl.g, pl.steps, pl.chainAcc, id, p.Step)
	}
}

// Placements returns the placements by NodeID, Step 0 for an unplaced
// node: the placing's own slice, which Schedule.Adopt takes over.
func (pl *Placing) Placements() []Placement { return pl.placed }
