package sched

import (
	"fmt"
	"math"

	"repro/internal/dfg"
)

// Frame is one operation's time frame: the earliest (ASAP) and latest
// (ALAP) start control steps within the time constraint. Mobility is their
// difference (MFS step 2).
type Frame struct {
	ASAP, ALAP int
}

// Mobility returns ALAP − ASAP.
func (f Frame) Mobility() int { return f.ALAP - f.ASAP }

// Frames holds the time frame of every node, indexed by dfg.NodeID
// (node IDs are dense, starting at 0, so a slice is the natural map).
type Frames []Frame

// Shifted returns a copy of f with every ALAP raised by k steps — the
// frames of the same graph under a time constraint k steps looser.
// Earliest starts do not depend on the constraint, and relaxing the
// deadline by k whole control steps moves every latest start by exactly
// k (with or without chaining: the chained deadline shifts by k·clockNs,
// which shifts every backward boundary computation by exactly k steps),
// so Shifted(k) equals ComputeFrames at cs+k without redoing the graph
// passes. The resource-constrained MFS search leans on this to probe
// many cs values from one frame computation — one flat copy per probe,
// no hashing; frames_prop_test.go checks the equivalence on every
// benchmark graph.
func (f Frames) Shifted(k int) Frames {
	out := make(Frames, len(f))
	for id, fr := range f {
		out[id] = Frame{ASAP: fr.ASAP, ALAP: fr.ALAP + k}
	}
	return out
}

// InfeasibleError reports a time constraint below the critical path.
type InfeasibleError struct {
	Graph string
	CS    int
	Need  int // critical path length in control steps
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("sched: %s: %d control steps infeasible, critical path needs %d",
		e.Graph, e.CS, e.Need)
}

// NoPositionError reports an operation whose move frame has no free
// position once every unit type it may use has reached its instance
// bound. Lo and Hi are the operation's window of start steps; Units
// names the types it may use and Max their instance bounds.
type NoPositionError struct {
	Engine string // "mfs" or "mfsa"
	Graph  string
	Node   string
	Lo, Hi int
	CS     int
	Units  []string
	Max    []int
}

func (e *NoPositionError) Error() string {
	if e.Engine == "mfs" && len(e.Units) == 1 {
		return fmt.Sprintf("mfs: %s: no position for %q within %d %s units and %d steps",
			e.Graph, e.Node, e.Max[0], e.Units[0], e.CS)
	}
	return fmt.Sprintf("%s: %s: no position for %q within %d steps", e.Engine, e.Graph, e.Node, e.CS)
}

// LoopError reports a folded loop node given to an engine that
// schedules flat graphs only.
type LoopError struct {
	Engine string
	Node   string
}

func (e *LoopError) Error() string {
	return fmt.Sprintf("%s: fold loops with mfs.ScheduleLoops and synthesize bodies separately (node %q)", e.Engine, e.Node)
}

// ComputeFrames derives ASAP/ALAP start steps for every node of g within
// cs control steps. clockNs > 0 enables the chaining extension (§5.4):
// data-dependent single-cycle operations share a step while their summed
// combinational delay fits in the clock period; multicycle operations
// always start and end on step boundaries. With clockNs == 0 every
// dependency costs a full step (the classic integer formulation).
func ComputeFrames(g *dfg.Graph, cs int, clockNs float64) (Frames, error) {
	if cs < 1 {
		return nil, fmt.Errorf("sched: %s: cs %d < 1", g.Name, cs)
	}
	if clockNs > 0 {
		if err := checkDelaysFit(g, clockNs); err != nil {
			return nil, err
		}
	}
	asap := asapFinish(g, clockNs)
	need := 0
	for i := range asap {
		if s := asap[i].step; s > need {
			need = s
		}
	}
	if need > cs {
		return nil, &InfeasibleError{Graph: g.Name, CS: cs, Need: need}
	}
	alap := alapStart(g, cs, clockNs)
	frames := make(Frames, g.Len())
	for _, n := range g.Nodes() {
		fr := Frame{ASAP: asap[n.ID].startStep, ALAP: alap[n.ID]}
		if fr.ALAP < fr.ASAP {
			// Cannot happen when cs >= need, but guard against model drift.
			return nil, &InfeasibleError{Graph: g.Name, CS: cs, Need: need}
		}
		frames[n.ID] = fr
	}
	return frames, nil
}

// ClockError reports a single-cycle node whose combinational delay
// exceeds the chaining clock period, so no control step can hold it.
type ClockError struct {
	Graph   string
	Node    string
	DelayNs float64
	ClockNs float64
}

func (e *ClockError) Error() string {
	return fmt.Sprintf("sched: %s: node %q delay %.1fns exceeds clock %.1fns; mark it multicycle",
		e.Graph, e.Node, e.DelayNs, e.ClockNs)
}

func checkDelaysFit(g *dfg.Graph, clockNs float64) error {
	for _, n := range g.Nodes() {
		if n.Cycles == 1 && !n.IsLoop() && n.DelayNs > clockNs {
			return &ClockError{Graph: g.Name, Node: n.Name, DelayNs: n.DelayNs, ClockNs: clockNs}
		}
	}
	return nil
}

type timing struct {
	startStep int     // control step where the op starts
	step      int     // control step where the op finishes
	finish    float64 // absolute finish time in ns (chaining only)
}

// asapFinish computes the earliest start/finish of every node. Under
// chaining, time is continuous with step boundaries at multiples of
// clockNs; otherwise each op's delay is treated as one full step.
func asapFinish(g *dfg.Graph, clockNs float64) []timing {
	out := make([]timing, g.Len())
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		if clockNs <= 0 {
			start := 1
			for _, p := range n.Preds() {
				if s := out[p].step + 1; s > start {
					start = s
				}
			}
			out[id] = timing{startStep: start, step: start + n.Cycles - 1}
			continue
		}
		// Chained: earliest absolute time all inputs are ready.
		ready := 0.0
		for _, p := range n.Preds() {
			if f := out[p].finish; f > ready {
				ready = f
			}
		}
		var start, finish float64
		if n.Cycles > 1 || n.IsLoop() {
			// Multicycle ops start on a step boundary.
			start = math.Ceil(ready/clockNs-1e-9) * clockNs
			finish = start + float64(n.Cycles)*clockNs
		} else {
			start = ready
			offset := start - math.Floor(start/clockNs+1e-9)*clockNs
			if offset+n.DelayNs > clockNs+1e-9 {
				start = math.Ceil(start/clockNs-1e-9) * clockNs // next boundary
			}
			finish = start + n.DelayNs
		}
		out[id] = timing{
			startStep: int(math.Floor(start/clockNs+1e-9)) + 1,
			step:      int(math.Ceil(finish/clockNs - 1e-9)),
			finish:    finish,
		}
	}
	return out
}

// alapStart computes the latest start step of every node given cs steps,
// mirroring asapFinish backwards.
func alapStart(g *dfg.Graph, cs int, clockNs float64) []int {
	order := g.TopoOrder()
	if clockNs <= 0 {
		late := make([]int, g.Len())
		for i := len(order) - 1; i >= 0; i-- {
			n := g.Node(order[i])
			start := cs - n.Cycles + 1
			for _, s := range n.Succs() {
				if v := late[s] - n.Cycles; v < start {
					start = v
				}
			}
			late[n.ID] = start
		}
		return late
	}
	// Chained: work in continuous time backwards from cs·clockNs.
	end := float64(cs) * clockNs
	lateStart := make([]float64, g.Len())
	out := make([]int, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		n := g.Node(order[i])
		due := end
		for _, s := range n.Succs() {
			if v := lateStart[s]; v < due {
				due = v
			}
		}
		var start float64
		if n.Cycles > 1 || n.IsLoop() {
			start = math.Floor(due/clockNs+1e-9)*clockNs - float64(n.Cycles)*clockNs
		} else {
			start = due - n.DelayNs
			offset := start - math.Floor(start/clockNs+1e-9)*clockNs
			if offset+n.DelayNs > clockNs+1e-9 {
				// Does not fit at the end of its step: pull back to finish
				// exactly at the last boundary before the deadline.
				start = math.Floor(due/clockNs+1e-9)*clockNs - n.DelayNs
			}
		}
		lateStart[n.ID] = start
		out[n.ID] = int(math.Floor(start/clockNs+1e-9)) + 1
	}
	return out
}
