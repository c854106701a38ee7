package mfs

import (
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/op"
	"repro/internal/sched"
)

// samePlacements asserts two schedules place every node identically.
func samePlacements(t *testing.T, label string, got, want *sched.Schedule) {
	t.Helper()
	if got.CS != want.CS {
		t.Fatalf("%s: cs %d != %d", label, got.CS, want.CS)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements != %d", label, len(got.Placements), len(want.Placements))
	}
	for id, wp := range want.Placements {
		if gp := got.Placements[id]; gp != wp {
			t.Fatalf("%s: node %d placed %+v, fresh run places %+v", label, id, gp, wp)
		}
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
		g, err := gen.Generate(gen.Config{Nodes: 250, Seed: seed, MulCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestResumeAddSinkMatchesFresh appends a sink op to each graph and
// checks ResumeCtx over the old trajectory equals a from-scratch run
// bit for bit.
func TestResumeAddSinkMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		opt := Options{CS: g.CriticalPathCycles() + 3}
		prev, err := Schedule(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		outs := g.Outputs()
		for k := 0; k+1 < len(outs) && k < 4; k++ {
			c := g.Clone()
			a, b := outs[k], outs[k+1]
			if _, err := c.AddOp(fmt.Sprintf("resume_sink%d", k), op.Add, a, b); err != nil {
				t.Fatal(err)
			}
			got, err := Resume(c, opt, prev)
			if err != nil {
				t.Fatalf("%s: resume: %v", g.Name, err)
			}
			want, err := Schedule(c, opt)
			if err != nil {
				t.Fatalf("%s: fresh: %v", g.Name, err)
			}
			samePlacements(t, fmt.Sprintf("%s+sink%d", g.Name, k), got, want)
			if got.Trace == nil || got.Frames == nil {
				t.Fatalf("%s: resumed schedule lost its metadata", g.Name)
			}
		}
	}
}

// TestResumeRetimeMatchesFresh retimes single nodes and checks resume
// equals from-scratch.
func TestResumeRetimeMatchesFresh(t *testing.T) {
	for _, g := range resumeGraphs(t) {
		opt := Options{CS: g.CriticalPathCycles() + 4}
		prev, err := Schedule(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for id := 0; id < g.Len(); id += 1 + g.Len()/5 {
			if g.Node(dfg.NodeID(id)).IsLoop() {
				continue
			}
			c := g.Clone()
			nid := dfg.NodeID(id)
			if err := c.SetCycles(nid, c.Node(nid).Cycles%2+1); err != nil {
				t.Fatal(err)
			}
			got, err := Resume(c, opt, prev)
			if err != nil {
				t.Fatalf("%s retime %d: resume: %v", g.Name, id, err)
			}
			want, err := Schedule(c, opt)
			if err != nil {
				t.Fatalf("%s retime %d: fresh: %v", g.Name, id, err)
			}
			samePlacements(t, fmt.Sprintf("%s~retime%d", g.Name, id), got, want)
		}
	}
}

// TestResumeChainedMatchesFresh exercises replay under chaining, where
// the chain accumulator must survive the replayed prefix.
func TestResumeChainedMatchesFresh(t *testing.T) {
	ex := benchmarks.Chained()
	g := ex.Graph
	opt := Options{CS: 4, ClockNs: ex.ClockNs}
	prev, err := Schedule(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Outputs()
	c := g.Clone()
	nid, err := c.AddOp("chain_sink", op.Add, outs[0], outs[len(outs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDelayNs(nid, 10); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(c, opt, prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Schedule(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	samePlacements(t, "chained+sink", got, want)
}

// TestResumeFallbacks checks the degenerate entries still return the
// correct (fresh-run-identical) schedule: a NoTrace previous run, and a
// trace-free schedule literal.
func TestResumeFallbacks(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{CS: g.CriticalPathCycles() + 3}
	prevNoTrace, err := Schedule(g, Options{CS: opt.CS, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if prevNoTrace.Trace != nil {
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
	want, err := Schedule(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	samePlacements(t, "noTrace-fallback", got, want)

	if _, err := Resume(c, opt, nil); err != nil {
		t.Fatalf("nil prev: %v", err)
	}
}

// TestResumeResumedTrace checks a resumed schedule's lightweight trace
// is itself a valid resume source.
func TestResumeResumedTrace(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 200, Seed: 5, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{CS: g.CriticalPathCycles() + 3}
	prev, err := Schedule(g, opt)
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
	want, err := Schedule(c2, opt)
	if err != nil {
		t.Fatal(err)
	}
	samePlacements(t, "second-resume", got, want)
}
