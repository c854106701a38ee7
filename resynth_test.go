// Re-synthesis through the public facade: Resynthesize must be
// bit-identical to a from-scratch run of the edited graph under the
// original Config — on both the MFS (ScheduleGraph) and MFSA
// (Synthesize) paths, across every edit kind, trace included.
package hls_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/sched"
)

// sameDesign requires bit-identical synthesis results: the schedule's
// placements, the emitted netlist (which covers ALU composition, mux
// lists, register packing and the controller), and the cost breakdown.
func sameDesign(t *testing.T, got, want *hls.Design) {
	t.Helper()
	if !got.Schedule.SamePlacements(want.Schedule) {
		t.Fatalf("placements differ:\n got: %v\nwant: %v", got.Schedule, want.Schedule)
	}
	if got.Schedule.CS != want.Schedule.CS {
		t.Fatalf("CS = %d, want %d", got.Schedule.CS, want.Schedule.CS)
	}
	if got.Datapath == nil != (want.Datapath == nil) {
		t.Fatalf("datapath presence differs")
	}
	if got.Datapath != nil {
		gn, err := got.Netlist()
		if err != nil {
			t.Fatal(err)
		}
		wn, err := want.Netlist()
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("netlists differ:\n--- resynthesized\n%s\n--- fresh\n%s", gn, wn)
		}
		if got.Cost != want.Cost {
			t.Fatalf("cost = %+v, want %+v", got.Cost, want.Cost)
		}
	}
}

// edits builds one edit of every kind against g, skipping kinds the
// graph cannot express (no sink with a removable shape, ...).
func editsFor(g *hls.Graph) []hls.Edit {
	outs := g.Outputs()
	es := []hls.Edit{
		{AddInput: "rsx_in"},
		{AddOp: &hls.AddOpEdit{Name: "rsx_sum", Op: hls.Add, Args: []string{outs[0], outs[len(outs)-1]}}},
		{AddOp: &hls.AddOpEdit{Name: "rsx_prod", Op: hls.Mul, Args: []string{outs[0], outs[0]}, Cycles: 2}},
		{RemoveSink: outs[0]},
	}
	// Retime an interior multicycle-capable node: the first multiply, or
	// failing that the first op node.
	for _, n := range g.Nodes() {
		if n.Op == hls.Mul {
			es = append(es, hls.Edit{Retime: &hls.RetimeEdit{Node: n.Name, Cycles: n.Cycles%2 + 1}})
			break
		}
	}
	return es
}

type resynthCase struct {
	g   *hls.Graph
	cfg hls.Config
}

// resynthCases lists the designs the matches-fresh tests edit: the six
// paper benchmarks and a generated graph at cs = critical path + 2, and
// the chained benchmark under its clock.
func resynthCases(t *testing.T, seed int64) []resynthCase {
	t.Helper()
	gsmall, err := gen.Generate(gen.Config{Nodes: 120, Seed: seed, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out []resynthCase
	for _, g := range append(benchGraphs(), gsmall) {
		out = append(out, resynthCase{g, hls.Config{CS: g.CriticalPathCycles() + 2}})
	}
	ch := benchmarks.Chained()
	return append(out, resynthCase{ch.Graph, hls.Config{CS: ch.Graph.CriticalPathCycles() + 2, ClockNs: ch.ClockNs}})
}

func TestResynthesizeMatchesFreshMFSA(t *testing.T) {
	for _, c := range resynthCases(t, 7) {
		g, cfg := c.g, c.cfg
		d, err := hls.Synthesize(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for i, e := range editsFor(g) {
			inc, err := hls.Resynthesize(d, e)
			if err != nil {
				t.Fatalf("%s edit %d: resynthesize: %v", g.Name, i, err)
			}
			fresh, err := hls.Synthesize(inc.Graph, cfg)
			if err != nil {
				t.Fatalf("%s edit %d: fresh: %v", g.Name, i, err)
			}
			sameDesign(t, inc, fresh)
		}
	}
}

func TestResynthesizeMatchesFreshMFS(t *testing.T) {
	for _, c := range resynthCases(t, 11) {
		g, cfg := c.g, c.cfg
		d, err := hls.ScheduleGraph(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for i, e := range editsFor(g) {
			inc, err := hls.Resynthesize(d, e)
			if err != nil {
				t.Fatalf("%s edit %d: resynthesize: %v", g.Name, i, err)
			}
			fresh, err := hls.ScheduleGraph(inc.Graph, cfg)
			if err != nil {
				t.Fatalf("%s edit %d: fresh: %v", g.Name, i, err)
			}
			sameDesign(t, inc, fresh)
		}
	}
}

// TestResynthesizeChained applies a sequence of edits, resynthesizing
// each on top of the last — the interactive-loop shape the API exists
// for — and checks the final design against a single from-scratch run.
func TestResynthesizeChained(t *testing.T) {
	g := benchmarks.EWF().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 3}
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Outputs()[0]
	for i, e := range []hls.Edit{
		{AddInput: "chain_in"},
		{AddOp: &hls.AddOpEdit{Name: "chain_a", Op: hls.Add, Args: []string{out, "chain_in"}}},
		{AddOp: &hls.AddOpEdit{Name: "chain_b", Op: hls.Mul, Args: []string{"chain_a", "chain_a"}, Cycles: 2}},
		{RemoveSink: "chain_b"},
	} {
		if d, err = hls.Resynthesize(d, e); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	fresh, err := hls.Synthesize(d.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, d, fresh)
}

func TestResynthesizeRejectsBadInputs(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 2}
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hls.Resynthesize(d, hls.Edit{}); err == nil ||
		!strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("empty edit: err = %v, want 'exactly one'", err)
	}
	if _, err := hls.Resynthesize(d, hls.Edit{
		AddInput:   "x",
		RemoveSink: g.Outputs()[0],
	}); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("double edit: err = %v, want 'exactly one'", err)
	}
	if _, err := hls.Resynthesize(d, hls.Edit{RemoveSink: "nope"}); err == nil {
		t.Fatal("removing a missing node succeeded")
	}
	if _, err := hls.Resynthesize(d, hls.Edit{Retime: &hls.RetimeEdit{Node: "nope", Cycles: 2}}); err == nil {
		t.Fatal("retiming a missing node succeeded")
	}
	if _, err := hls.Resynthesize(nil, hls.Edit{AddInput: "x"}); err == nil {
		t.Fatal("nil design succeeded")
	}
	// Removing a non-sink must be refused.
	interior := ""
	for _, n := range g.Nodes() {
		if len(n.Succs()) > 0 {
			interior = n.Name
			break
		}
	}
	if _, err := hls.Resynthesize(d, hls.Edit{RemoveSink: interior}); err == nil ||
		!strings.Contains(err.Error(), "consumer") {
		t.Fatalf("removing interior node: err = %v, want consumer error", err)
	}
}

// TestResynthesizeInfeasibleMatchesFresh retimes a node past the time
// constraint: Resynthesize must fail exactly as a fresh run of the
// edited graph does, with the frame computation's *sched.InfeasibleError.
func TestResynthesizeInfeasibleMatchesFresh(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 1}
	var mul *hls.Node
	for _, n := range g.Nodes() {
		if n.Op == hls.Mul {
			mul = n
			break
		}
	}
	edited := g.Clone()
	if err := edited.SetCycles(mul.ID, cfg.CS); err != nil {
		t.Fatal(err)
	}
	e := hls.Edit{Retime: &hls.RetimeEdit{Node: mul.Name, Cycles: cfg.CS}}
	for _, run := range []func(*hls.Graph, hls.Config) (*hls.Design, error){hls.Synthesize, hls.ScheduleGraph} {
		d, err := run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = hls.Resynthesize(d, e)
		_, want := run(edited, cfg)
		var ie *sched.InfeasibleError
		if !errors.As(err, &ie) || want == nil || err.Error() != want.Error() {
			t.Fatalf("resynthesize err = %v, want the fresh run's *sched.InfeasibleError %v", err, want)
		}
	}
}

// TestResynthesizeRejectsAllocatedDesign pins the contract that designs
// assembled outside the capturing entry points cannot be resynthesized:
// hls.Allocate never records a Config, so there is nothing to re-run
// under.
func TestResynthesizeRejectsAllocatedDesign(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	sd, err := hls.ScheduleGraph(g, hls.Config{CS: g.CriticalPathCycles() + 2})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := hls.Allocate(sd.Schedule, hls.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hls.Resynthesize(ad, hls.Edit{AddInput: "x"}); err == nil ||
		!strings.Contains(err.Error(), "configuration") {
		t.Fatalf("err = %v, want missing-configuration error", err)
	}
}

// TestResynthesizeNoTraceFallback: a NoTrace design re-runs under
// NoTrace and still matches the from-scratch result exactly.
func TestResynthesizeNoTraceFallback(t *testing.T) {
	g := benchmarks.EWF().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 2, NoTrace: true}
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schedule.Trace != nil {
		t.Fatal("NoTrace design still carries a trace")
	}
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "nt", Op: hls.Add,
		Args: []string{g.Outputs()[0], g.Outputs()[0]}}}
	inc, err := hls.Resynthesize(d, e)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := hls.Synthesize(inc.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, inc, fresh)
}

// TestResynthesizeSpeedup10k resynthesizes a 10k-node design after a
// one-node edit, under per-unit instance limits learned from an
// unconstrained probe run, and checks the result and its trace against a
// fresh run of the edited graph. The name dates from when Resynthesize
// replayed the previous trace; it now runs MFSA fresh.
func TestResynthesizeSpeedup10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run")
	}
	g, err := gen.Generate(gen.Config{Nodes: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := g.CriticalPathCycles() + 16
	probe, err := hls.Synthesize(g, hls.Config{CS: cs})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]int)
	for _, a := range probe.Datapath.ALUs {
		used[a.Unit.Name]++
	}
	limits := make(map[string]int)
	for _, u := range hls.NCRLibrary().Units() {
		if n := used[u.Name]; n > 0 {
			limits[u.Name] = n + 2
		} else {
			limits[u.Name] = 0
		}
	}
	cfg := hls.Config{CS: cs, Limits: limits}
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The count pins the time-dominance prune and its shape dedup: the
	// full scan scores 1,864,256 candidates on this run, the prune alone
	// 79,570.
	if got, want := d.Schedule.Trace.Scored(), 71_255; got != want {
		t.Errorf("the fresh run scored %d candidates, want %d", got, want)
	}
	// The added node is an op kind whose count is off a ⌈n/CS⌉ boundary.
	counts := make(map[hls.OpKind]int)
	for _, n := range g.Nodes() {
		counts[n.Op]++
	}
	kind, found := hls.Add, false
	for _, k := range []hls.OpKind{hls.Add, hls.Sub, hls.And, hls.Or, hls.Xor} {
		if counts[k]%cs != 0 {
			kind, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no op kind off the instance-floor boundary; regenerate with another seed")
	}
	ins := g.Inputs()
	e := hls.Edit{AddOp: &hls.AddOpEdit{Name: "probe", Op: kind, Args: []string{ins[0], ins[1]}}}
	inc, err := hls.ResynthesizeCtx(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := hls.Synthesize(inc.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, inc, fresh)
	if !inc.Schedule.Trace.Equal(fresh.Schedule.Trace) {
		t.Fatal("the resynthesized trace differs from the fresh run's")
	}
}

// TestResynthesizeTraceMatchesFresh checks that a resynthesized design's
// trace is exactly the fresh run's, for every edit that succeeds on both
// engines, and that with Lint on the frame (MFS) and candidate (MFSA)
// audits see every step of it.
func TestResynthesizeTraceMatchesFresh(t *testing.T) {
	engines := []struct {
		name string
		run  func(*hls.Graph, hls.Config) (*hls.Design, error)
	}{{"Synthesize", hls.Synthesize}, {"ScheduleGraph", hls.ScheduleGraph}}
	for _, en := range engines {
		for _, c := range resynthCases(t, 3) {
			d, err := en.run(c.g, c.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", en.name, c.g.Name, err)
			}
			for i, e := range editsFor(c.g) {
				inc, err := hls.Resynthesize(d, e)
				if err != nil {
					continue
				}
				fresh, err := en.run(inc.Graph, c.cfg)
				if err != nil {
					t.Fatalf("%s %s edit %d: fresh: %v", en.name, c.g.Name, i, err)
				}
				if !inc.Schedule.Trace.Equal(fresh.Schedule.Trace) {
					t.Errorf("%s %s edit %d: the resynthesized trace differs from the fresh run's", en.name, c.g.Name, i)
				}
			}
		}
	}
	g := benchmarks.EWF().Graph
	cfg := hls.Config{CS: g.CriticalPathCycles() + 2, Lint: true}
	for _, en := range engines {
		d, err := en.run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		inc, err := hls.Resynthesize(d, hls.Edit{AddInput: "lint_in"})
		if err != nil {
			t.Fatalf("%s: resynthesize under Lint: %v", en.name, err)
		}
		for _, st := range inc.Schedule.Trace.Steps {
			if len(st.Candidates) == 0 && st.Frames().MF().Empty() {
				t.Fatalf("%s: step for node %d records neither candidates nor frames, so lint cannot audit it",
					en.name, st.Node)
			}
		}
	}
}
