package mfs

import (
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/sched"
)

// cellWalk is the walk the occupancy index replaced: one CanPlace per
// window cell, in the given order.
func cellWalk(s *scheduler, table *grid.Table, ord grid.Order, id dfg.NodeID, cycles, lo, hi, cur int) []grid.Pos {
	var out []grid.Pos
	visit := func(step, idx int) {
		if p := (grid.Pos{Step: step, Index: idx}); table.CanPlace(s.g, id, p, cycles) {
			out = append(out, p)
		}
	}
	if ord == grid.RowMajor {
		for step := lo; step <= hi; step++ {
			for idx := 1; idx <= cur; idx++ {
				visit(step, idx)
			}
		}
		return out
	}
	for idx := 1; idx <= cur; idx++ {
		for step := lo; step <= hi; step++ {
			visit(step, idx)
		}
	}
	return out
}

// TestIndexedWalkMatchesDisabledIndex pins the occupancy index on the
// tables MFS builds — latency-folded, pipelined, exclusion-shared,
// row- and column-major — at every state a run of every equivCase
// visits: for every current_j local rescheduling may reach,
// grid.Table.ScanPlaceable must yield exactly cellWalk's positions in
// cellWalk's order.
func TestIndexedWalkMatchesDisabledIndex(t *testing.T) {
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkReplay(t, tc, func(s *scheduler, id dfg.NodeID) {
				n := s.g.Node(id)
				typ := TypeKey(n)
				table, ord := s.tables[typ], s.orders[typ]
				lo, hi, _ := s.Window(id)
				for cur := s.current[typ]; cur <= s.maxj[typ]; cur++ {
					var got []grid.Pos
					table.ScanPlaceable(s.g, id, s.excl, ord, lo, hi, cur, n.Cycles, func(p grid.Pos) bool {
						got = append(got, p)
						return true
					})
					if want := cellWalk(s, table, ord, id, n.Cycles, lo, hi, cur); !reflect.DeepEqual(got, want) {
						t.Fatalf("%q in [%d..%d] x [1..%d]: index walk %v, per-cell walk %v",
							n.Name, lo, hi, cur, got, want)
					}
				}
			})
		})
	}
}

func compareTraces(t *testing.T, name string, a, b *sched.Trace) {
	t.Helper()
	if a.Equal(b) {
		return
	}
	if a == nil || b == nil || len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: traces differ in length", name)
	}
	for i := range a.Steps {
		if !a.Steps[i].Equal(&b.Steps[i]) {
			t.Fatalf("%s: trace step %d diverges: (%d %s %v %g) vs (%d %s %v %g)",
				name, i,
				a.Steps[i].Node, a.Steps[i].Type, a.Steps[i].Pos, a.Steps[i].Energy,
				b.Steps[i].Node, b.Steps[i].Type, b.Steps[i].Pos, b.Steps[i].Energy)
		}
	}
	t.Fatalf("%s: traces differ", name)
}
