// Incremental re-synthesis through the public facade: Resynthesize must
// be bit-identical to a from-scratch run of the edited graph under the
// original Config — on both the MFS (ScheduleGraph) and MFSA
// (Synthesize) paths, across every edit kind — and on a 10k-node design
// the replayed run must replay every recorded step and search only for
// the added node (TestResynthesizeSpeedup10k).
package hls_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

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
	if fmt.Sprint(got.Schedule.Placements) != fmt.Sprint(want.Schedule.Placements) {
		t.Fatalf("placements differ:\n got: %v\nwant: %v",
			got.Schedule.Placements, want.Schedule.Placements)
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
// hls.Allocate never records a Config, so there is nothing to replay
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

// TestResynthesizeNoTraceFallback: a NoTrace design has no trajectory to
// replay; Resynthesize must replay nothing and still match the
// from-scratch result exactly.
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

// TestResynthesizeSpeedup10k pins what replay skips on a 10k-node
// design. After a one-node edit, the incremental re-synthesis must
// replay every one of the 10,000 recorded steps, score candidates only
// for the added node, and match the from-scratch run of the edited
// graph bit for bit. Replay saves the candidate scoring. Since MFSA
// scores only the earliest feasible step when time dominates (DESIGN.md
// §12), a fresh run scores little, and the wall-clock ratio is about
// 1–1.3x here, too close to noise to assert. So the test asserts the
// deterministic counts from the two traces and only logs the times. A
// run that fell back to the full search would replay nothing and score
// as many candidates as the fresh run.
//
// Three choices make the trajectory replay end to end instead of
// falling back to the (correct but slow) full search:
//
//   - Config.Limits pins every unit's instance bound. The replay
//     induction requires the fresh run's initial bounds to match the
//     recorded run's, and without limits the bounds derive from
//     capability counts, which any structural edit perturbs.
//   - The graph is all-single-cycle, where the §5.3 priority comparator
//     is a strict total order: the appended node cannot reshuffle the
//     relative order of existing operations (under the multicycle
//     inverted rule the comparator is non-transitive and the order is
//     insertion-dependent).
//   - The new node reads primary inputs only, so no existing frame
//     moves. A deeper edit diverges at its cone's priority position and
//     replays just the prefix; the matches-fresh tests cover those
//     shapes.
func TestResynthesizeSpeedup10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node timing run")
	}
	g, err := gen.Generate(gen.Config{Nodes: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := g.CriticalPathCycles() + 16
	// Learn the per-unit instance usage of an unconstrained run, then
	// pin it (plus slack) as explicit limits; units the design never
	// opened are capped to zero so their capability counts — which the
	// edit shifts — drop out of the bound derivation entirely.
	probe0, err := hls.Synthesize(g, hls.Config{CS: cs})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]int)
	for _, a := range probe0.Datapath.ALUs {
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

	start := time.Now()
	d, err := hls.Synthesize(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshTime := time.Since(start)
	// The fresh count also pins the time-dominance prune: the full scan
	// scores 1,864,256 candidates on this run.
	if got, want := d.Schedule.Trace.Scored(), 79_570; got != want {
		t.Errorf("the fresh run scored %d candidates, want %d", got, want)
	}

	// Pick an op kind whose node count is off a ⌈n/CS⌉ boundary, so the
	// one-node edit cannot shift the initial instance floor either.
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
	start = time.Now()
	inc, err := hls.ResynthesizeCtx(context.Background(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	incTime := time.Since(start)

	fresh, err := hls.Synthesize(inc.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, inc, fresh)
	// A replayed step records no candidates; a searched one records at
	// least the one it committed.
	replayed := 0
	var searched []string
	for _, st := range inc.Schedule.Trace.Steps {
		if len(st.Candidates) == 0 {
			replayed++
		} else {
			searched = append(searched, inc.Graph.Node(st.Node).Name)
		}
	}
	if replayed != len(d.Schedule.Trace.Steps) || !slices.Equal(searched, []string{"probe"}) {
		t.Fatalf("replayed %d of %d recorded steps and searched for %v, want every step replayed and a search for [probe] only",
			replayed, len(d.Schedule.Trace.Steps), searched)
	}
	if got, want := inc.Schedule.Trace.Scored(), 4; got != want {
		t.Errorf("the incremental run scored %d candidates, want %d", got, want)
	}
	t.Logf("fresh %v, incremental %v (%.2fx)", freshTime, incTime,
		float64(freshTime)/float64(incTime))
}
