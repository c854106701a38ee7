package hls_test

import (
	"fmt"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/canon"
	"repro/internal/dfg"
	"repro/internal/dfgio"
	"repro/internal/gen"
)

// redeclare rebuilds g node for node, so every NodeID is kept. With late
// false every input is declared first; with late true each input is
// declared just before its first reader (unread inputs last), which
// numbers the signals differently.
func redeclare(t *testing.T, g *dfg.Graph, late bool) *dfg.Graph {
	t.Helper()
	out := dfg.New(g.Name)
	declare := func(in string) {
		if err := out.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if !late {
		for _, in := range g.Inputs() {
			declare(in)
		}
	}
	for _, n := range g.Nodes() {
		for _, a := range n.Args {
			if _, ok := g.Lookup(a); !ok {
				declare(a) // a second declaration is a no-op
			}
		}
		id, err := out.AddOp(n.Name, n.Op, n.Args...)
		if err != nil {
			t.Fatal(err)
		}
		if id != n.ID {
			t.Fatalf("%s: node %q got ID %d, want %d", g.Name, n.Name, id, n.ID)
		}
		if err := out.SetCycles(id, n.Cycles); err != nil {
			t.Fatal(err)
		}
		if err := out.SetDelayNs(id, n.DelayNs); err != nil {
			t.Fatal(err)
		}
		if err := out.Tag(id, n.Excl...); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range g.Inputs() {
		declare(in)
	}
	return out
}

// TestSignalIDOrderIsInvisible builds each paper benchmark and a 2k-node
// generated graph with inputs declared first, with each input declared
// just before its first reader, and through a dfgio round trip of the
// latter. The builds share NodeIDs but not SignalIDs, and every result —
// netlist, cost, schedule, trace and request fingerprint — must be the
// same.
func TestSignalIDOrderIsInvisible(t *testing.T) {
	type design struct {
		g       *dfg.Graph
		cs      int
		clockNs float64
	}
	var ds []design
	for _, ex := range benchmarks.All() {
		ds = append(ds, design{ex.Graph, ex.Graph.CriticalPathCycles() + 1, ex.ClockNs})
	}
	g, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds = append(ds, design{g, g.CriticalPathCycles() + 4, 0})
	for _, d := range ds {
		early, late := redeclare(t, d.g, false), redeclare(t, d.g, true)
		data, err := dfgio.EncodeGraph(late)
		if err != nil {
			t.Fatal(err)
		}
		trip, err := dfgio.DecodeGraph(data)
		if err != nil {
			t.Fatal(err)
		}
		differ := false
		for _, n := range early.Nodes() {
			if n.OutID() != late.Node(n.ID).OutID() {
				differ = true
			}
		}
		if !differ {
			t.Fatalf("%s: declaring inputs late left every SignalID unchanged", d.g.Name)
		}
		for style := 1; style <= 2; style++ {
			cfg := hls.Config{CS: d.cs, Style: style, ClockNs: d.clockNs}
			key := fmt.Sprintf("%s/style%d", d.g.Name, style)
			want := synthesize(t, key, early, cfg)
			for _, v := range []struct {
				what string
				g    *dfg.Graph
			}{{"late", late}, {"late, then round-tripped", trip}} {
				got := synthesize(t, key, v.g, cfg)
				switch {
				case got.netlist != want.netlist:
					t.Errorf("%s, inputs declared %s: netlists differ", key, v.what)
				case got.cost != want.cost:
					t.Errorf("%s, inputs declared %s: cost %+v, want %+v", key, v.what, got.cost, want.cost)
				case !got.schedule.SamePlacements(want.schedule):
					t.Errorf("%s, inputs declared %s: schedules differ", key, v.what)
				case !got.schedule.Trace.Equal(want.schedule.Trace):
					t.Errorf("%s, inputs declared %s: traces differ", key, v.what)
				case got.fingerprint != want.fingerprint:
					t.Errorf("%s, inputs declared %s: fingerprints differ", key, v.what)
				}
			}
		}
	}
}

// synthesized is what TestSignalIDOrderIsInvisible compares.
type synthesized struct {
	netlist     string
	cost        hls.Cost
	schedule    *hls.Schedule
	fingerprint canon.Hash
}

func synthesize(t *testing.T, key string, g *dfg.Graph, cfg hls.Config) synthesized {
	t.Helper()
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	s := synthesized{cost: d.Cost, schedule: d.Schedule}
	if s.netlist, err = d.Netlist(); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if s.fingerprint, err = canon.Fingerprint(g, nil, cfg); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return s
}
