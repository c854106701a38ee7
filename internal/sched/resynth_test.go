package sched_test

import (
	"errors"
	"fmt"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/sched"
)

// The TestUpdateFrames* names date from the incremental frame patcher,
// and later from trace replay, behind hls.Resynthesize. It now applies
// the edit and runs MFS fresh on frames from ComputeFrames, so each test
// checks that hls.Resynthesize of its edit equals ScheduleGraph of the
// edited graph, trace included.

// resynthMatchesFresh resynthesizes d under e and checks the result
// against a fresh ScheduleGraph of the edited graph under cfg: the same
// placements and the same trace.
func resynthMatchesFresh(t *testing.T, label string, d *hls.Design, e hls.Edit, cfg hls.Config) {
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
}

// generated returns a scheduled gen graph and the config it ran under.
func generated(t *testing.T, gc gen.Config, slack int) (*hls.Design, hls.Config) {
	t.Helper()
	g, err := gen.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + slack}
	d, err := hls.ScheduleGraph(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg
}

// TestUpdateFramesRetime retimes single nodes of generated graphs.
func TestUpdateFramesRetime(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d, cfg := generated(t, gen.Config{Nodes: 400, Seed: seed, MulCycles: 2}, 6)
		for id := 0; id < d.Graph.Len(); id += 37 {
			n := d.Graph.Node(hls.NodeID(id))
			cycles := n.Cycles%3 + 1
			e := hls.Edit{Retime: &hls.RetimeEdit{Node: n.Name, Cycles: cycles}}
			resynthMatchesFresh(t, fmt.Sprintf("seed %d retime node %d to %d cycles", seed, id, cycles), d, e, cfg)
		}
	}
}

// TestUpdateFramesAddNode appends a sink node consuming two existing
// values.
func TestUpdateFramesAddNode(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d, cfg := generated(t, gen.Config{Nodes: 300, Seed: seed}, 6)
		g := d.Graph
		for i := 0; i < g.Len(); i += 29 {
			a := g.Node(hls.NodeID(i)).Name
			b := g.Node(hls.NodeID((i * 7) % g.Len())).Name
			add := &hls.AddOpEdit{Name: "extra", Op: hls.Add, Args: []string{a, b}}
			if a == b {
				add = &hls.AddOpEdit{Name: "extra", Op: hls.Neg, Args: []string{a}}
			}
			resynthMatchesFresh(t, fmt.Sprintf("seed %d add consuming %q,%q", seed, a, b), d, hls.Edit{AddOp: add}, cfg)
		}
	}
}

// TestUpdateFramesInfeasible checks that an edit pushing the critical
// path past cs fails with ComputeFrames' exact InfeasibleError.
func TestUpdateFramesInfeasible(t *testing.T) {
	d, cfg := generated(t, gen.Config{Nodes: 100, Seed: 1}, 1)
	n := d.Graph.Node(0)
	_, err := hls.Resynthesize(d, hls.Edit{Retime: &hls.RetimeEdit{Node: n.Name, Cycles: cfg.CS}})
	var ie *sched.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	c := d.Graph.Clone()
	if err := c.SetCycles(n.ID, cfg.CS); err != nil {
		t.Fatal(err)
	}
	_, werr := sched.ComputeFrames(c, cfg.CS, 0)
	if werr == nil || ie.Error() != werr.Error() {
		t.Fatalf("resynthesized error %q != ComputeFrames error %q", ie, werr)
	}
}

// TestUpdateFramesChainedFallsBack edits a chained design, whose frames
// couple steps through continuous time.
func TestUpdateFramesChainedFallsBack(t *testing.T) {
	ex := benchmarks.Chained()
	g := ex.Graph
	cfg := hls.Config{CS: 4, ClockNs: ex.ClockNs}
	d, err := hls.ScheduleGraph(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Outputs()
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "chain_sink", Op: hls.Add, Args: []string{outs[0], outs[len(outs)-1]}, DelayNs: 10}}
	resynthMatchesFresh(t, "chained+sink", d, e, cfg)
}
