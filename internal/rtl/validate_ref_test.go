package rtl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/library"
	"repro/internal/op"
)

// refValidateAll is ValidateAll before it dropped its per-call maps:
// the oracle of TestValidateAllMatchesReference. It keys mux inputs and
// register occupants by the names g gives them.
func (d *Datapath) refValidateAll(g *dfg.Graph) diag.List {
	var out diag.List
	report := func(code, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: diag.Error,
			Artifact: "datapath", Loc: loc, Message: msg,
		})
	}
	seen := make(map[dfg.NodeID]string)
	for _, a := range d.ALUs {
		if a.Unit == nil {
			report(diag.CodeALUNoUnit, a.Name,
				fmt.Sprintf("rtl: ALU %s has no unit", a.Name))
		}
		for _, b := range a.Ops {
			if b.Step < 1 {
				report(diag.CodeALUBadStep, a.Name,
					fmt.Sprintf("rtl: ALU %s: node %d at step %d", a.Name, b.Node, b.Step))
			}
			if prev, dup := seen[b.Node]; dup {
				report(diag.CodeALUDupBind, a.Name,
					fmt.Sprintf("rtl: node %d bound to both %s and %s", b.Node, prev, a.Name))
				continue
			}
			seen[b.Node] = a.Name
		}
		for _, ids := range [][]dfg.SignalID{a.L1, a.L2} {
			names := make(map[string]bool)
			for _, id := range ids {
				s := g.SignalLabel(id)
				if names[s] {
					report(diag.CodeMuxDupInput, a.Name,
						fmt.Sprintf("rtl: ALU %s: duplicate mux input %q", a.Name, s))
					continue
				}
				names[s] = true
			}
		}
	}
	for r, grp := range d.Registers {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				if grp[i].overlaps(grp[j]) {
					report(diag.CodeRegOverlap, fmt.Sprintf("R%d", r),
						fmt.Sprintf("rtl: register %d: %q overlaps %q", r, g.SignalLabel(grp[i].Signal), g.SignalLabel(grp[j].Signal)))
				}
			}
		}
	}
	return out
}

// TestValidateAllMatchesReference compares ValidateAll with the
// map-based oracle on random datapaths with nodes bound twice or more,
// repeated mux inputs, bad steps, missing units and overlapping
// register intervals. Half the bound nodes and two of the signals lie
// outside the graph.
func TestValidateAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := inputGraph(t, "a", "b", "c", "d", "e")
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		if _, err := g.AddOp(name, op.Add, "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	signals := []dfg.SignalID{sig(t, g, "a"), sig(t, g, "b"), sig(t, g, "c"), sig(t, g, "d"), sig(t, g, "e"),
		dfg.SignalID(g.NumSignals()), dfg.NoSignal}
	unit := library.NCRLike().Units()[0]
	reported := 0
	for trial := 0; trial < 300; trial++ {
		d := NewDatapath(nil)
		for k := rng.Intn(5); k >= 0; k-- {
			a := &ALU{Name: fmt.Sprintf("alu%d", len(d.ALUs)), Unit: unit}
			if rng.Intn(6) == 0 {
				a.Unit = nil
			}
			for i := rng.Intn(5); i > 0; i-- {
				a.Ops = append(a.Ops, Binding{Node: dfg.NodeID(rng.Intn(8)), Step: rng.Intn(4)})
			}
			for i := rng.Intn(6); i > 0; i-- {
				a.L1 = append(a.L1, signals[rng.Intn(len(signals))])
			}
			for i := rng.Intn(4); i > 0; i-- {
				a.L2 = append(a.L2, signals[rng.Intn(len(signals))])
			}
			d.ALUs = append(d.ALUs, a)
		}
		for r := rng.Intn(3); r > 0; r-- {
			var grp []Interval
			for i := rng.Intn(4); i > 0; i-- {
				b := rng.Intn(6)
				grp = append(grp, Interval{Signal: signals[rng.Intn(len(signals))], Birth: b, Death: b + rng.Intn(3)})
			}
			d.Registers = append(d.Registers, grp)
		}
		got, want := d.ValidateAll(g), d.refValidateAll(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ValidateAll reports\n%v\nthe oracle reports\n%v", trial, got, want)
		}
		reported += len(want)
	}
	if reported == 0 {
		t.Fatal("no trial produced a finding")
	}
}
