package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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
		p, ok := s.At(n.ID)
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
		pn, ok := s.At(id)
		if !ok {
			continue // reported by verifyShape
		}
		chain := 0.0
		for _, pid := range n.Preds() {
			pred := g.Node(pid)
			pp, pok := s.At(pid)
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
// functional-pipelining latency); sorting the occupants by cell and row
// brings each cell's collisions together, so a legal schedule costs one
// sort and one pass. Collisions report per cell in (type, index) order
// and, within a cell, in (a, b) node order.
func (s *Schedule) verifyConflicts(report func(diag.Diagnostic)) {
	g := s.Graph
	// First pass: the types in name order, the ranges of the indexes and
	// rows, and the occupant count.
	var types []string
	n := 0
	minIdx, maxIdx, minRow, maxRow := math.MaxInt, math.MinInt, math.MaxInt, math.MinInt
	for id, ok := range s.placed {
		if !ok {
			continue
		}
		p := s.placements[id]
		if !slices.Contains(types, p.Type) {
			types = append(types, p.Type)
		}
		minIdx, maxIdx = min(minIdx, p.Index), max(maxIdx, p.Index)
		for i := range s.footprint(dfg.NodeID(id), p) {
			r := s.row(p, i)
			minRow, maxRow = min(minRow, r), max(maxRow, r)
			n++
		}
	}
	slices.Sort(types)
	// An occupant packs (type, index) into hi and (row, node) into lo, 32
	// bits each, so the sort compares two integers. Indexes and rows are
	// offset by their minima; a range wider than 32 bits, far outside any
	// schedule an engine makes, is ranked instead.
	type occupant struct{ hi, lo uint64 }
	idxKey, rowKey := offsetKey(minIdx, maxIdx), offsetKey(minRow, maxRow)
	if idxKey == nil || rowKey == nil {
		var idxs, rs []int
		for id, ok := range s.placed {
			if !ok {
				continue
			}
			p := s.placements[id]
			idxs = append(idxs, p.Index)
			for i := range s.footprint(dfg.NodeID(id), p) {
				rs = append(rs, s.row(p, i))
			}
		}
		if idxKey == nil {
			idxKey = rankKey(idxs)
		}
		if rowKey == nil {
			rowKey = rankKey(rs)
		}
	}
	occ := make([]occupant, 0, n)
	for id, ok := range s.placed {
		if !ok {
			continue
		}
		p := s.placements[id]
		t, _ := slices.BinarySearch(types, p.Type)
		hi := uint64(t)<<32 | idxKey(p.Index)
		for i := range s.footprint(dfg.NodeID(id), p) {
			occ = append(occ, occupant{hi, rowKey(s.row(p, i))<<32 | uint64(id)})
		}
	}
	slices.SortFunc(occ, func(x, y occupant) int {
		return cmp.Or(cmp.Compare(x.hi, y.hi), cmp.Compare(x.lo, y.lo))
	})
	type pair struct{ a, b dfg.NodeID }
	var conflicts []pair
	for lo := 0; lo < len(occ); {
		cell := occ[lo].hi
		hi := lo
		conflicts = conflicts[:0]
		for hi < len(occ) && occ[hi].hi == cell {
			// A run of one row: every two distinct nodes in it collide
			// unless they are mutually exclusive. The run is in node order.
			end := hi + 1
			for end < len(occ) && occ[end].hi == cell && occ[end].lo>>32 == occ[hi].lo>>32 {
				end++
			}
			for i := hi; i < end; i++ {
				for j := i + 1; j < end; j++ {
					if a, b := nodeOf(occ[i].lo), nodeOf(occ[j].lo); a != b {
						conflicts = append(conflicts, pair{a, b})
					}
				}
			}
			hi = end
		}
		// A pair that shares several rows is one collision.
		slices.SortFunc(conflicts, func(x, y pair) int {
			return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
		})
		conflicts = slices.Compact(conflicts)
		for _, p := range conflicts {
			if g.MutuallyExclusive(p.a, p.b) {
				continue
			}
			// Every occupant of the cell shares its type and index.
			q := s.placements[p.a]
			report(diag.Diagnostic{
				Code: diag.CodeSchedFUConflict,
				Loc:  fmt.Sprintf("%s%d", q.Type, q.Index),
				Message: fmt.Sprintf("verify %s: %q and %q collide on %s%d",
					g.Name, g.Node(p.a).Name, g.Node(p.b).Name, q.Type, q.Index),
			})
		}
		lo = hi
	}
}

// footprint is how many rows node id holds under placement p: one per
// cycle, or one on a pipelined type, whose instance frees its first
// stage the next step.
func (s *Schedule) footprint(id dfg.NodeID, p Placement) int {
	if s.PipelinedTypes[p.Type] {
		return 1
	}
	return s.Graph.Node(id).Cycles
}

// row is the i-th row a placement holds, folded by the functional-
// pipelining latency.
func (s *Schedule) row(p Placement, i int) int {
	r := p.Step + i
	if s.Latency > 0 {
		r = ((r - 1) % s.Latency) + 1
	}
	return r
}

// nodeOf is the node of an occupant's low word.
func nodeOf(lo uint64) dfg.NodeID { return dfg.NodeID(uint32(lo)) }

// offsetKey maps the values in [lo, hi] onto 32 bits in order by their
// offset from lo, or is nil when the range is wider than that.
func offsetKey(lo, hi int) func(int) uint64 {
	if hi >= lo && uint64(hi)-uint64(lo) > math.MaxUint32 {
		return nil
	}
	return func(v int) uint64 { return uint64(v) - uint64(lo) }
}

// rankKey maps each of vals onto its rank among their distinct values.
func rankKey(vals []int) func(int) uint64 {
	slices.Sort(vals)
	vals = slices.Compact(vals)
	return func(v int) uint64 {
		i, _ := slices.BinarySearch(vals, v)
		return uint64(i)
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
