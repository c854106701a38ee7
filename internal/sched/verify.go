package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dfg"
	"repro/internal/diag"
)

// The verifier is organized as independent passes — shape, data
// dependencies, functional-unit conflicts, instance limits — each
// reporting every violation it finds as a typed diag.Diagnostic with a
// stable code. Verify keeps the historical first-error contract on top
// of the passes (same strings, same order), so legacy callers are
// unaffected; VerifyAll exposes the full list and is what the lint
// framework (internal/lint) builds on.

// VerifyAll checks a schedule's legality independently of the scheduler
// that produced it and returns every violation found: completeness,
// bounds, data dependencies (with chaining delays when ClockNs > 0),
// functional-unit conflicts (honoring mutual exclusion, multicycle
// footprints, structural pipelining and functional pipelining), and
// optional per-type instance limits. An empty list means a legal
// schedule.
func (s *Schedule) VerifyAll(limits map[string]int) diag.List {
	var out diag.List
	report := func(d diag.Diagnostic) {
		d.Artifact = "schedule"
		d.Design = s.Graph.Name
		d.Severity = diag.Error
		out = append(out, d)
	}
	if s.CS < 1 {
		report(diag.Diagnostic{
			Code:    diag.CodeSchedStepRange,
			Message: fmt.Sprintf("verify %s: cs %d", s.Graph.Name, s.CS),
		})
		return out
	}
	s.verifyShape(report)
	s.verifyDeps(report)
	s.verifyConflicts(report)
	s.verifyLimits(limits, report)
	return out
}

// Verify is the first-error shim over VerifyAll: it returns the first
// violation found (in the same pass order, with the same message
// strings, as the historical single-error verifier), or nil for a
// legal schedule.
func (s *Schedule) Verify(limits map[string]int) error {
	if all := s.VerifyAll(limits); len(all) > 0 {
		return all[:1].ErrOrNil()
	}
	return nil
}

// verifyShape checks per-node completeness and bounds.
func (s *Schedule) verifyShape(report func(diag.Diagnostic)) {
	g := s.Graph
	for _, n := range g.Nodes() {
		p, ok := s.Placements[n.ID]
		if !ok {
			report(diag.Diagnostic{
				Code: diag.CodeSchedUnplaced, Loc: n.Name,
				Message: fmt.Sprintf("verify %s: node %q unplaced", g.Name, n.Name),
			})
			continue
		}
		if p.Step < 1 || p.Step+n.Cycles-1 > s.CS {
			report(diag.Diagnostic{
				Code: diag.CodeSchedStepRange, Loc: n.Name,
				Message: fmt.Sprintf("verify %s: node %q at step %d (cycles %d) outside 1..%d",
					g.Name, n.Name, p.Step, n.Cycles, s.CS),
			})
		}
		if p.Index < 1 {
			report(diag.Diagnostic{
				Code: diag.CodeSchedBadSlot, Loc: n.Name,
				Message: fmt.Sprintf("verify %s: node %q: FU index %d", g.Name, n.Name, p.Index),
			})
		}
		if p.Type == "" {
			report(diag.Diagnostic{
				Code: diag.CodeSchedBadSlot, Loc: n.Name,
				Message: fmt.Sprintf("verify %s: node %q: empty FU type", g.Name, n.Name),
			})
		}
		if s.Latency > 0 && n.Cycles > s.Latency && !s.PipelinedTypes[p.Type] {
			report(diag.Diagnostic{
				Code: diag.CodeSchedPipeline, Loc: n.Name,
				Message: fmt.Sprintf("verify %s: node %q: %d cycles exceed pipeline latency %d",
					g.Name, n.Name, n.Cycles, s.Latency),
			})
		}
	}
}

// verifyDeps checks data-dependency order and chaining delay budgets.
func (s *Schedule) verifyDeps(report func(diag.Diagnostic)) {
	g := s.Graph
	// acc[n] is the accumulated combinational delay at n's output within
	// its control step (chaining only).
	acc := make([]float64, g.Len())
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		pn, ok := s.Placements[id]
		if !ok {
			continue // reported by verifyShape
		}
		chain := 0.0
		for _, pid := range n.Preds() {
			pred := g.Node(pid)
			pp, pok := s.Placements[pid]
			if !pok {
				continue
			}
			predEnd := pp.Step + pred.Cycles - 1
			switch {
			case pn.Step > predEnd:
				// Normal: strictly after the predecessor completes.
			case s.ClockNs > 0 && pn.Step == pp.Step && pred.Cycles == 1 && n.Cycles == 1:
				// Chained within one step; delay accounted below.
				if acc[pid] > chain {
					chain = acc[pid]
				}
			default:
				report(diag.Diagnostic{
					Code: diag.CodeSchedDepOrder, Loc: n.Name,
					Message: fmt.Sprintf("verify %s: %q (step %d) starts before %q completes (step %d)",
						g.Name, n.Name, pn.Step, pred.Name, predEnd),
				})
			}
		}
		if s.ClockNs > 0 && n.Cycles == 1 {
			acc[id] = chain + n.DelayNs
			if acc[id] > s.ClockNs+1e-9 {
				report(diag.Diagnostic{
					Code: diag.CodeSchedChain, Loc: n.Name,
					Message: fmt.Sprintf("verify %s: chain through %q needs %.1fns, clock is %.1fns",
						g.Name, n.Name, acc[id], s.ClockNs),
				})
			}
		}
	}
}

// verifyConflicts checks functional-unit occupancy collisions. Every
// placed node contributes one occupant per row it holds (folded by the
// functional-pipelining latency); sorting the occupants by cell, row and
// node brings each cell's collisions together, so a legal schedule costs
// one sort and one pass. Collisions report per cell in (type, index)
// order and, within a cell, in (a, b) node order.
func (s *Schedule) verifyConflicts(report func(diag.Diagnostic)) {
	g := s.Graph
	// An occupant names its type by position in types, so the sort
	// compares integers only; a schedule uses few types.
	type occupant struct {
		typ, index, row int
		id              dfg.NodeID
	}
	var types []string
	var pipelined []bool
	occ := make([]occupant, 0, len(s.Placements))
	t := -1
	//hls:orderok the occupants are sorted below before any pair is examined, so report order is map-order free
	for id, p := range s.Placements {
		if t < 0 || types[t] != p.Type {
			if t = slices.Index(types, p.Type); t < 0 {
				t = len(types)
				types = append(types, p.Type)
				pipelined = append(pipelined, s.PipelinedTypes[p.Type])
			}
		}
		cycles := g.Node(id).Cycles
		if pipelined[t] {
			cycles = 1 // the instance frees its first stage the next step
		}
		for i := 0; i < cycles; i++ {
			r := p.Step + i
			if s.Latency > 0 {
				r = ((r - 1) % s.Latency) + 1
			}
			occ = append(occ, occupant{t, p.Index, r, id})
		}
	}
	// Renumber the types in name order.
	byName := make([]int, len(types))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(types[a], types[b]) })
	rank := make([]int, len(types))
	for r, i := range byName {
		rank[i] = r
	}
	for i := range occ {
		occ[i].typ = rank[occ[i].typ]
	}
	slices.SortFunc(occ, func(x, y occupant) int {
		switch {
		case x.typ != y.typ:
			return x.typ - y.typ
		case x.index != y.index:
			return cmp.Compare(x.index, y.index)
		case x.row != y.row:
			return cmp.Compare(x.row, y.row)
		}
		return cmp.Compare(x.id, y.id)
	})
	type pair struct{ a, b dfg.NodeID }
	var conflicts []pair
	for lo := 0; lo < len(occ); {
		cell := occ[lo]
		hi := lo
		conflicts = conflicts[:0]
		for hi < len(occ) && occ[hi].typ == cell.typ && occ[hi].index == cell.index {
			// A run of one row: every two distinct nodes in it collide
			// unless they are mutually exclusive.
			end := hi + 1
			for end < len(occ) && occ[end].typ == cell.typ && occ[end].index == cell.index && occ[end].row == occ[hi].row {
				end++
			}
			for i := hi; i < end; i++ {
				for j := i + 1; j < end; j++ {
					if a, b := occ[i].id, occ[j].id; a != b {
						conflicts = append(conflicts, pair{a, b})
					}
				}
			}
			hi = end
		}
		lo = hi
		// A pair that shares several rows is one collision.
		slices.SortFunc(conflicts, func(x, y pair) int {
			return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
		})
		conflicts = slices.Compact(conflicts)
		typ := types[byName[cell.typ]]
		for _, p := range conflicts {
			if g.MutuallyExclusive(p.a, p.b) {
				continue
			}
			report(diag.Diagnostic{
				Code: diag.CodeSchedFUConflict,
				Loc:  fmt.Sprintf("%s%d", typ, cell.index),
				Message: fmt.Sprintf("verify %s: %q and %q collide on %s%d",
					g.Name, g.Node(p.a).Name, g.Node(p.b).Name, typ, cell.index),
			})
		}
	}
}

// verifyLimits checks per-type instance counts against user limits.
func (s *Schedule) verifyLimits(limits map[string]int, report func(diag.Diagnostic)) {
	if limits == nil {
		return
	}
	used := s.InstancesPerType()
	types := make([]string, 0, len(used))
	for typ := range used {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		if lim, ok := limits[typ]; ok && used[typ] > lim {
			report(diag.Diagnostic{
				Code: diag.CodeSchedLimit, Loc: typ,
				Message: fmt.Sprintf("verify %s: type %s uses %d instances, limit %d",
					s.Graph.Name, typ, used[typ], lim),
			})
		}
	}
}
