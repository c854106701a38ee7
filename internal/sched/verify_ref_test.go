package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/op"
)

// refVerifyConflicts is verifyConflicts before it dropped its per-call
// maps: the oracle of TestVerifyConflictsMatchesReference.
func (s *Schedule) refVerifyConflicts(report func(diag.Diagnostic)) {
	g := s.Graph
	type cell struct {
		typ   string
		index int
	}
	byCell := make(map[cell][]dfg.NodeID)
	for id, ok := range s.placed {
		if !ok {
			continue
		}
		p := s.placements[id]
		c := cell{p.Type, p.Index}
		byCell[c] = append(byCell[c], dfg.NodeID(id))
	}
	// Deterministic report order.
	cells := make([]cell, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].typ != cells[j].typ {
			return cells[i].typ < cells[j].typ
		}
		return cells[i].index < cells[j].index
	})
	// Bucketing occupants by folded control-step row turns the historical
	// all-pairs scan (quadratic in a cell's population — ruinous when a
	// 100k-node schedule funnels thousands of ops through one instance)
	// into a per-row pass: only ops sharing a row can collide, and a
	// legal schedule has at most one non-exclusive op per row. The pair
	// set and its (a, b) sort reproduce the all-pairs report order and
	// messages exactly.
	type pair struct{ a, b dfg.NodeID }
	byRow := make(map[int][]dfg.NodeID)
	for _, c := range cells {
		ids := byCell[c]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for r := range byRow {
			delete(byRow, r)
		}
		for _, id := range ids {
			for _, r := range s.StepsOf(id) {
				byRow[r] = append(byRow[r], id)
			}
		}
		seen := make(map[pair]bool)
		var conflicts []pair
		for _, row := range byRow {
			for i := 0; i < len(row); i++ {
				for j := i + 1; j < len(row); j++ {
					a, b := row[i], row[j]
					if a > b {
						a, b = b, a
					}
					if a == b || seen[pair{a, b}] {
						continue
					}
					seen[pair{a, b}] = true
					if g.MutuallyExclusive(a, b) {
						continue
					}
					conflicts = append(conflicts, pair{a, b})
				}
			}
		}
		sort.Slice(conflicts, func(i, j int) bool {
			if conflicts[i].a != conflicts[j].a {
				return conflicts[i].a < conflicts[j].a
			}
			return conflicts[i].b < conflicts[j].b
		})
		for _, p := range conflicts {
			report(diag.Diagnostic{
				Code: diag.CodeSchedFUConflict,
				Loc:  fmt.Sprintf("%s%d", c.typ, c.index),
				Message: fmt.Sprintf("verify %s: %q and %q collide on %s%d",
					g.Name, g.Node(p.a).Name, g.Node(p.b).Name, c.typ, c.index),
			})
		}
	}
}

// TestVerifyConflictsMatchesReference compares verifyConflicts with the
// map-based oracle above on random schedules that crowd few cells:
// collisions, exclusive sharing, multicycle footprints on plain and
// pipelined types, latency folding, and placements outside 1..cs.
func TestVerifyConflictsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []string{"+", "*", "alu_add_sub"}
	reported := 0
	for trial := 0; trial < 400; trial++ {
		g := dfg.New(fmt.Sprintf("r%d", trial))
		if err := g.AddInput("in"); err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(24)
		cs := 1 + rng.Intn(8)
		s := NewSchedule(g, cs)
		if rng.Intn(3) == 0 {
			s.Latency = 1 + rng.Intn(cs)
		}
		if rng.Intn(2) == 0 {
			s.PipelinedTypes["*"] = true
		}
		for i := 0; i < n; i++ {
			id, err := g.AddOp(fmt.Sprintf("n%d", i), op.Add, "in", "in")
			if err != nil {
				t.Fatal(err)
			}
			g.SetCycles(id, 1+rng.Intn(3))
			for k := rng.Intn(3); k > 0; k-- {
				g.Tag(id, dfg.CondTag{Cond: rng.Intn(2), Branch: rng.Intn(2)})
			}
			s.Place(id, Placement{Step: rng.Intn(cs+2) - 1, Type: types[rng.Intn(len(types))], Index: 1 + rng.Intn(2)})
		}
		var got, want diag.List
		s.verifyConflicts(func(d diag.Diagnostic) { got = append(got, d) })
		s.refVerifyConflicts(func(d diag.Diagnostic) { want = append(want, d) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: verifyConflicts reports\n%v\nthe oracle reports\n%v", trial, got, want)
		}
		reported += len(want)
	}
	if reported == 0 {
		t.Fatal("no trial produced a collision")
	}
}

// TestVerifyConflictsRanksWideFields covers the ranked keys: indexes and
// steps whose ranges do not fit 32 bits still report what the oracle
// reports, in its order.
func TestVerifyConflictsRanksWideFields(t *testing.T) {
	g := dfg.New("wide")
	if err := g.AddInput("in"); err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(g, 4)
	for i, p := range []Placement{
		{Step: 1, Type: "+", Index: 1 << 40}, {Step: 1, Type: "+", Index: 1 << 40},
		{Step: -1 << 40, Type: "+", Index: 1}, {Step: -1 << 40, Type: "+", Index: 1},
		{Step: 1 << 40, Type: "*", Index: -3}, {Step: 1 << 40, Type: "*", Index: -3},
		{Step: 2, Type: "+", Index: 1}, {Step: 2, Type: "+", Index: 1},
	} {
		id, err := g.AddOp(fmt.Sprintf("n%d", i), op.Add, "in", "in")
		if err != nil {
			t.Fatal(err)
		}
		s.Place(id, p)
	}
	var got, want diag.List
	s.verifyConflicts(func(d diag.Diagnostic) { got = append(got, d) })
	s.refVerifyConflicts(func(d diag.Diagnostic) { want = append(want, d) })
	if len(want) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("verifyConflicts reports\n%v\nthe oracle reports\n%v", got, want)
	}
}
