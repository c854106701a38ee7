package mfs_test

import (
	"fmt"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/gen"
)

// The TestResume* names date from when hls.Resynthesize replayed the
// previous run's trace through this package. It now applies the edit
// and runs MFS fresh, so each test checks that hls.Resynthesize of its
// edit equals ScheduleGraph of the edited graph, trace included.

// resynthMatchesFresh resynthesizes d under e and checks the result
// against a fresh ScheduleGraph of the edited graph under cfg: the same
// placements and the same trace. It returns the resynthesized design.
func resynthMatchesFresh(t *testing.T, label string, d *hls.Design, e hls.Edit, cfg hls.Config) *hls.Design {
	t.Helper()
	inc, err := hls.Resynthesize(d, e)
	if err != nil {
		t.Fatalf("%s: resynthesize: %v", label, err)
	}
	fresh, err := hls.ScheduleGraph(inc.Graph, cfg)
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	if inc.Schedule.CS != fresh.Schedule.CS ||
		!inc.Schedule.SamePlacements(fresh.Schedule) {
		t.Fatalf("%s: resynthesized placements differ from a fresh run", label)
	}
	if !inc.Schedule.Trace.Equal(fresh.Schedule.Trace) {
		t.Fatalf("%s: resynthesized trace differs from a fresh run's", label)
	}
	return inc
}

// schedule runs ScheduleGraph on g under cfg.
func schedule(t *testing.T, g *hls.Graph, cfg hls.Config) *hls.Design {
	t.Helper()
	d, err := hls.ScheduleGraph(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return d
}

// resumeGraphs returns the graphs the suite edits.
func resumeGraphs(t *testing.T) []*hls.Graph {
	t.Helper()
	var out []*hls.Graph
	for _, ex := range benchmarks.All() {
		out = append(out, ex.Graph)
	}
	for seed := int64(0); seed < 3; seed++ {
		g, err := gen.Generate(gen.Config{Nodes: 250, Seed: seed, MulCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestResumeAddSinkMatchesFresh appends a sink op to each graph.
func TestResumeAddSinkMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		cfg := hls.Config{CS: g.CriticalPathCycles() + 3}
		d := schedule(t, g, cfg)
		outs := g.Outputs()
		for k := 0; k+1 < len(outs) && k < 4; k++ {
			e := hls.Edit{AddOp: &hls.AddOpEdit{Name: fmt.Sprintf("resume_sink%d", k), Op: hls.Add, Args: []string{outs[k], outs[k+1]}}}
			resynthMatchesFresh(t, fmt.Sprintf("%s+sink%d", g.Name, k), d, e, cfg)
		}
	}
}

// TestResumeRetimeMatchesFresh retimes single nodes.
func TestResumeRetimeMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		cfg := hls.Config{CS: g.CriticalPathCycles() + 4}
		d := schedule(t, g, cfg)
		for id := 0; id < g.Len(); id += 1 + g.Len()/5 {
			n := g.Node(hls.NodeID(id))
			if n.IsLoop() {
				continue
			}
			e := hls.Edit{Retime: &hls.RetimeEdit{Node: n.Name, Cycles: n.Cycles%2 + 1}}
			resynthMatchesFresh(t, fmt.Sprintf("%s~retime%d", g.Name, id), d, e, cfg)
		}
	}
}

// TestResumeChainedMatchesFresh edits a chained design, whose chain
// accumulator the fresh run rebuilds.
func TestResumeChainedMatchesFresh(t *testing.T) {
	ex := benchmarks.Chained()
	g := ex.Graph
	cfg := hls.Config{CS: 4, ClockNs: ex.ClockNs}
	outs := g.Outputs()
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "chain_sink", Op: hls.Add, Args: []string{outs[0], outs[len(outs)-1]}, DelayNs: 10}}
	resynthMatchesFresh(t, "chained+sink", schedule(t, g, cfg), e, cfg)
}

// TestResumeFallbacks resynthesizes a NoTrace design: the re-run keeps
// NoTrace and records no trace either.
func TestResumeFallbacks(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 3, NoTrace: true}
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra", Op: hls.Neg, Args: []string{g.Outputs()[0]}}}
	if inc := resynthMatchesFresh(t, "noTrace", schedule(t, g, cfg), e, cfg); inc.Schedule.Trace != nil {
		t.Fatal("NoTrace design recorded a trace")
	}
}

// TestResumeResumedTrace resynthesizes a resynthesized design.
func TestResumeResumedTrace(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 200, Seed: 5, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 3}
	outs := g.Outputs()
	e1 := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra1", Op: hls.Add, Args: []string{outs[0], outs[1]}}}
	mid := resynthMatchesFresh(t, "first", schedule(t, g, cfg), e1, cfg)
	e2 := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra2", Op: hls.Sub, Args: []string{"extra1", outs[2]}}}
	resynthMatchesFresh(t, "second", mid, e2, cfg)
}
