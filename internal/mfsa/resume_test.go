package mfsa

import (
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/op"
)

// sameResult asserts two synthesis results are bit-identical: every
// placement, every ALU binding and mux list, every register interval,
// and the cost breakdown.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gs, ws := got.Schedule, want.Schedule
	if gs.CS != ws.CS || len(gs.Placements) != len(ws.Placements) {
		t.Fatalf("%s: schedule shape differs", label)
	}
	for id, wp := range ws.Placements {
		if gp := gs.Placements[id]; gp != wp {
			t.Fatalf("%s: node %d placed %+v, fresh run places %+v", label, id, gp, wp)
		}
	}
	gd, wd := got.Datapath, want.Datapath
	if len(gd.ALUs) != len(wd.ALUs) {
		t.Fatalf("%s: %d ALUs != %d", label, len(gd.ALUs), len(wd.ALUs))
	}
	for i := range wd.ALUs {
		ga, wa := gd.ALUs[i], wd.ALUs[i]
		if ga.Name != wa.Name || ga.Unit.Name != wa.Unit.Name ||
			fmt.Sprint(ga.Ops) != fmt.Sprint(wa.Ops) ||
			fmt.Sprint(ga.L1) != fmt.Sprint(wa.L1) || fmt.Sprint(ga.L2) != fmt.Sprint(wa.L2) {
			t.Fatalf("%s: ALU %d differs:\n%+v\nfresh:\n%+v", label, i, ga, wa)
		}
	}
	if fmt.Sprint(gd.Registers) != fmt.Sprint(wd.Registers) {
		t.Fatalf("%s: register packing differs", label)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %+v != fresh %+v", label, got.Cost, want.Cost)
	}
}

// resumeGraphs returns the graphs the resume equivalence suite edits.
func resumeGraphs(t *testing.T) []*dfg.Graph {
	t.Helper()
	var out []*dfg.Graph
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

// TestResumeAddSinkMatchesFresh appends a sink op to each graph and
// checks ResumeCtx over the old trajectory equals a from-scratch
// synthesis bit for bit — schedule, datapath and cost.
func TestResumeAddSinkMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		opt := Options{CS: g.CriticalPathCycles() + 3}
		prev, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		outs := g.Outputs()
		for k := 0; k+1 < len(outs) && k < 3; k++ {
			c := g.Clone()
			if _, err := c.AddOp(fmt.Sprintf("resume_sink%d", k), op.Add, outs[k], outs[k+1]); err != nil {
				t.Fatal(err)
			}
			got, err := Resume(c, opt, prev)
			if err != nil {
				t.Fatalf("%s: resume: %v", g.Name, err)
			}
			want, err := Synthesize(c, opt)
			if err != nil {
				t.Fatalf("%s: fresh: %v", g.Name, err)
			}
			sameResult(t, fmt.Sprintf("%s+sink%d", g.Name, k), got, want)
			if got.Schedule.Trace == nil || got.Schedule.Frames == nil {
				t.Fatalf("%s: resumed result lost its metadata", g.Name)
			}
		}
	}
}

// TestResumeRetimeMatchesFresh retimes single nodes and checks resume
// equals from-scratch synthesis.
func TestResumeRetimeMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		opt := Options{CS: g.CriticalPathCycles() + 4}
		prev, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for id := 0; id < g.Len(); id += 1 + g.Len()/4 {
			c := g.Clone()
			nid := dfg.NodeID(id)
			if err := c.SetCycles(nid, c.Node(nid).Cycles%2+1); err != nil {
				t.Fatal(err)
			}
			got, err := Resume(c, opt, prev)
			if err != nil {
				t.Fatalf("%s retime %d: resume: %v", g.Name, id, err)
			}
			want, err := Synthesize(c, opt)
			if err != nil {
				t.Fatalf("%s retime %d: fresh: %v", g.Name, id, err)
			}
			sameResult(t, fmt.Sprintf("%s~retime%d", g.Name, id), got, want)
		}
	}
}

// TestResumeStyle2AndLimits checks replay under the style-2 restriction
// and user instance limits, both of which shape the candidate space.
func TestResumeStyle2AndLimits(t *testing.T) {
	ex := benchmarks.EWF()
	g := ex.Graph
	opt := Options{
		CS:     g.CriticalPathCycles() + 4,
		Style:  Style2,
		Limits: map[string]int{"fu_mul": 3},
	}
	prev, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if _, err := c.AddOp("s2_sink", op.Add, g.Outputs()[0], c.Node(dfg.NodeID(g.Len()/2)).Name); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(c, opt, prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Synthesize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "style2+limits", got, want)
	if err := VerifyStyle2(c, got.Datapath); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallbacks checks the degenerate entries still return the
// correct (fresh-run-identical) result: a NoTrace previous run and a nil
// previous result.
func TestResumeFallbacks(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 100, Seed: 2, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{CS: g.CriticalPathCycles() + 3}
	prevNoTrace, err := Synthesize(g, Options{CS: opt.CS, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if prevNoTrace.Schedule.Trace != nil {
		t.Fatal("NoTrace run recorded a trace")
	}
	c := g.Clone()
	if _, err := c.AddOp("extra", op.Neg, g.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(c, opt, prevNoTrace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Synthesize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "noTrace-fallback", got, want)

	if _, err := Resume(c, opt, nil); err != nil {
		t.Fatalf("nil prev: %v", err)
	}
}

// TestResumeResumedTrace checks a resumed result's lightweight trace is
// itself a valid resume source.
func TestResumeResumedTrace(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 150, Seed: 4, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{CS: g.CriticalPathCycles() + 3}
	prev, err := Synthesize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Outputs()
	c1 := g.Clone()
	if _, err := c1.AddOp("extra1", op.Add, outs[0], outs[1]); err != nil {
		t.Fatal(err)
	}
	mid, err := Resume(c1, opt, prev)
	if err != nil {
		t.Fatal(err)
	}
	c2 := c1.Clone()
	if _, err := c2.AddOp("extra2", op.Sub, "extra1", outs[2]); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(c2, opt, mid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Synthesize(c2, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "second-resume", got, want)
}

// TestNoTraceSameResult checks NoTrace changes only the metadata, never
// the synthesis outcome.
func TestNoTraceSameResult(t *testing.T) {
	for _, ex := range benchmarks.All() {
		g := ex.Graph
		opt := Options{CS: g.CriticalPathCycles() + 3}
		with, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		opt.NoTrace = true
		without, err := Synthesize(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if without.Schedule.Trace != nil {
			t.Fatalf("%s: NoTrace run recorded a trace", g.Name)
		}
		sameResult(t, ex.Name+"/notrace", without, with)
	}
}
