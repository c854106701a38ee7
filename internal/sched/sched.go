// Package sched provides the scheduling substrate shared by MFS, MFSA and
// the baseline schedulers: ASAP/ALAP time frames (with the multicycle and
// chaining extensions of §5.3–5.4), operation mobilities and priority
// ordering (MFS step 2), the Schedule result type, and an independent
// legality verifier used throughout the test suite.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
)

// Placement records where one operation landed: its start control step and
// the functional-unit instance executing it. For MFS the Type is the
// operation symbol (single-function units); for MFSA it is the library
// unit name. Steps and indices are 1-based, matching the paper's grid.
type Placement struct {
	Step  int    // start control step, 1..CS
	Type  string // FU type key (grid identifier)
	Index int    // FU instance within the type, 1..max_j
}

// Schedule is the result of a scheduling (or scheduling-allocation) run.
type Schedule struct {
	Graph *dfg.Graph
	CS    int // total control steps

	// placements[id] is node id's placement while placed[id] is set. The
	// presence bit keeps a placement at step 0, which Verify reports as
	// out of range, apart from no placement at all. Read them with At.
	placements []Placement
	placed     []bool

	// ClockNs is the control-step clock period when chaining is enabled
	// (§5.4); 0 means one operation level per step.
	ClockNs float64

	// Latency is the functional-pipelining initiation interval L (§5.5.2);
	// 0 means no functional pipelining. Operations in steps t and t+k·L
	// execute concurrently.
	Latency int

	// PipelinedTypes marks FU types implemented by structurally pipelined
	// units (§5.5.1): instances accept a new operation every step, so two
	// operations on one instance conflict only when they start together.
	PipelinedTypes map[string]bool

	// Trace, when non-nil, is the recorded move trajectory of the run
	// that produced the schedule (see Trace). The schedulers record it
	// so the Liapunov audit can replay every placement decision; it is
	// advisory metadata and plays no part in legality.
	Trace *Trace
}

// NewSchedule returns an empty schedule over g with cs control steps.
func NewSchedule(g *dfg.Graph, cs int) *Schedule {
	return &Schedule{
		Graph:          g,
		CS:             cs,
		PipelinedTypes: make(map[string]bool),
	}
}

// At returns node id's placement and whether the node is placed.
func (s *Schedule) At(id dfg.NodeID) (Placement, bool) {
	if id < 0 || int(id) >= len(s.placed) || !s.placed[id] {
		return Placement{}, false
	}
	return s.placements[id], true
}

// Place records node id at p.
func (s *Schedule) Place(id dfg.NodeID, p Placement) {
	if n := int(id) + 1; n > len(s.placed) {
		n = max(n, s.Graph.Len())
		s.placements = append(s.placements, make([]Placement, n-len(s.placements))...)
		s.placed = append(s.placed, make([]bool, n-len(s.placed))...)
	}
	s.placements[id], s.placed[id] = p, true
}

// Unplace removes node id's placement.
func (s *Schedule) Unplace(id dfg.NodeID) {
	if int(id) < len(s.placed) {
		s.placements[id], s.placed[id] = Placement{}, false
	}
}

// SamePlacements reports whether s and o place the same nodes at the
// same steps, types and indexes. Like Trace.Equal, it backs the engine
// invariance cross-checks.
func (s *Schedule) SamePlacements(o *Schedule) bool {
	for id := range max(len(s.placed), len(o.placed)) {
		p, ok := s.At(dfg.NodeID(id))
		q, qok := o.At(dfg.NodeID(id))
		if ok != qok || p != q {
			return false
		}
	}
	return true
}

// Adopt makes placed, indexed by NodeID, the schedule's placements and
// takes the slice over. A node is placed when its entry has a nonzero
// Step: the engines fill such a slice as they commit, with 1-based
// steps, so handing it over copies no placement.
func (s *Schedule) Adopt(placed []Placement) {
	s.placements, s.placed = placed, make([]bool, len(placed))
	for id, p := range placed {
		s.placed[id] = p.Step != 0
	}
}

// StepsOf returns the control-step rows node id occupies, honoring
// multicycle duration, structural pipelining (a pipelined instance holds
// an op only at its start row for conflict purposes), and functional
// pipelining (rows fold modulo Latency). The rows are the conflict
// footprint on the instance, not the externally visible latency.
func (s *Schedule) StepsOf(id dfg.NodeID) []int {
	p, ok := s.At(id)
	if !ok {
		return nil
	}
	n := s.Graph.Node(id)
	cycles := n.Cycles
	if s.PipelinedTypes[p.Type] {
		cycles = 1 // the instance frees its first stage the next step
	}
	rows := make([]int, 0, cycles)
	for i := 0; i < cycles; i++ {
		r := p.Step + i
		if s.Latency > 0 {
			r = ((r - 1) % s.Latency) + 1
		}
		rows = append(rows, r)
	}
	return rows
}

// InstancesPerType counts the distinct FU instances the schedule uses per
// type — Table 1's result columns.
func (s *Schedule) InstancesPerType() map[string]int {
	max := make(map[string]int)
	for id, ok := range s.placed {
		if p := s.placements[id]; ok && p.Index > max[p.Type] {
			max[p.Type] = p.Index
		}
	}
	return max
}

// TypeNames returns the used FU type keys in sorted order.
func (s *Schedule) TypeNames() []string {
	seen := make(map[string]bool)
	names := []string{}
	for id, ok := range s.placed {
		if typ := s.placements[id].Type; ok && !seen[typ] {
			seen[typ] = true
			names = append(names, typ)
		}
	}
	sort.Strings(names)
	return names
}

// String renders a compact per-step listing for debugging.
func (s *Schedule) String() string {
	byStep := make(map[int][]string)
	for id, ok := range s.placed {
		if !ok {
			continue
		}
		p, n := s.placements[id], s.Graph.Node(dfg.NodeID(id))
		byStep[p.Step] = append(byStep[p.Step],
			fmt.Sprintf("%s@%s%d", n.Name, p.Type, p.Index))
	}
	out := fmt.Sprintf("schedule %s cs=%d\n", s.Graph.Name, s.CS)
	for t := 1; t <= s.CS; t++ {
		names := byStep[t]
		sort.Strings(names)
		out += fmt.Sprintf("  t%-3d %v\n", t, names)
	}
	return out
}
