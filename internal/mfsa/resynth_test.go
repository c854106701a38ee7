package mfsa_test

import (
	"fmt"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/mfsa"
)

// The TestResume* names date from when hls.Resynthesize replayed the
// previous run's trace through this package. It now applies the edit
// and runs MFSA fresh, so each test checks that hls.Resynthesize of its
// edit equals Synthesize of the edited graph, trace included.

// resynthMatchesFresh resynthesizes d under e and checks the result
// against a fresh Synthesize of the edited graph under cfg: the same
// placements, netlist, cost and trace. It returns the resynthesized
// design.
func resynthMatchesFresh(t *testing.T, label string, d *hls.Design, e hls.Edit, cfg hls.Config) *hls.Design {
	t.Helper()
	inc, err := hls.Resynthesize(d, e)
	if err != nil {
		t.Fatalf("%s: resynthesize: %v", label, err)
	}
	fresh, err := hls.Synthesize(inc.Graph, cfg)
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	if inc.Schedule.CS != fresh.Schedule.CS ||
		!inc.Schedule.SamePlacements(fresh.Schedule) {
		t.Fatalf("%s: resynthesized placements differ from a fresh run", label)
	}
	gn, err := inc.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	wn, err := fresh.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if gn != wn || inc.Cost != fresh.Cost {
		t.Fatalf("%s: resynthesized netlist or cost differs from a fresh run", label)
	}
	if !inc.Schedule.Trace.Equal(fresh.Schedule.Trace) {
		t.Fatalf("%s: resynthesized trace differs from a fresh run's", label)
	}
	return inc
}

// synthesize runs Synthesize on g under cfg.
func synthesize(t *testing.T, g *hls.Graph, cfg hls.Config) *hls.Design {
	t.Helper()
	d, err := hls.Synthesize(g, cfg)
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
		g, err := gen.Generate(gen.Config{Nodes: 150, Seed: seed, MulCycles: 2})
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
		d := synthesize(t, g, cfg)
		outs := g.Outputs()
		for k := 0; k+1 < len(outs) && k < 3; k++ {
			e := hls.Edit{AddOp: &hls.AddOpEdit{Name: fmt.Sprintf("resume_sink%d", k), Op: hls.Add, Args: []string{outs[k], outs[k+1]}}}
			resynthMatchesFresh(t, fmt.Sprintf("%s+sink%d", g.Name, k), d, e, cfg)
		}
	}
}

// TestResumeRetimeMatchesFresh retimes single nodes.
func TestResumeRetimeMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		cfg := hls.Config{CS: g.CriticalPathCycles() + 4}
		d := synthesize(t, g, cfg)
		for id := 0; id < g.Len(); id += 1 + g.Len()/4 {
			n := g.Node(hls.NodeID(id))
			e := hls.Edit{Retime: &hls.RetimeEdit{Node: n.Name, Cycles: n.Cycles%2 + 1}}
			resynthMatchesFresh(t, fmt.Sprintf("%s~retime%d", g.Name, id), d, e, cfg)
		}
	}
}

// TestResumeStyle2AndLimits edits a design under the style-2
// restriction and user instance limits, which both shape the candidate
// space.
func TestResumeStyle2AndLimits(t *testing.T) {
	g := benchmarks.EWF().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 4, Style: 2, Limits: map[string]int{"fu_mul": 3}}
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "s2_sink", Op: hls.Add,
		Args: []string{g.Outputs()[0], g.Node(hls.NodeID(g.Len() / 2)).Name}}}
	inc := resynthMatchesFresh(t, "style2+limits", synthesize(t, g, cfg), e, cfg)
	if err := mfsa.VerifyStyle2(inc.Graph, inc.Datapath); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallbacks resynthesizes a NoTrace design: the re-run keeps
// NoTrace and records no trace either.
func TestResumeFallbacks(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 100, Seed: 2, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 3, NoTrace: true}
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra", Op: hls.Neg, Args: []string{g.Outputs()[0]}}}
	if inc := resynthMatchesFresh(t, "noTrace", synthesize(t, g, cfg), e, cfg); inc.Schedule.Trace != nil {
		t.Fatal("NoTrace design recorded a trace")
	}
}

// TestResumeResumedTrace resynthesizes a resynthesized design.
func TestResumeResumedTrace(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 150, Seed: 4, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 3}
	outs := g.Outputs()
	e1 := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra1", Op: hls.Add, Args: []string{outs[0], outs[1]}}}
	mid := resynthMatchesFresh(t, "first", synthesize(t, g, cfg), e1, cfg)
	e2 := hls.Edit{AddOp: &hls.AddOpEdit{Name: "extra2", Op: hls.Sub, Args: []string{"extra1", outs[2]}}}
	resynthMatchesFresh(t, "second", mid, e2, cfg)
}
