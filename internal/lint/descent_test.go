package lint

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/liapunov"
	"repro/internal/mfs"
	"repro/internal/sched"
)

// chainedSchedule schedules gen seed 1 with MFS at cs = cp+4 under the
// given clock (0: no chaining), recording the trace.
func chainedSchedule(t testing.TB, nodes int, clockNs float64) *Unit {
	t.Helper()
	g, err := gen.Generate(gen.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mfs.Schedule(g, mfs.Options{CS: g.CriticalPathCycles() + 4, ClockNs: clockNs})
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{Graph: g, Schedule: s}
}

// TestChainedDescentAuditAllocs pins the descent audit's cost under
// chaining: at 1k nodes the frames and liapunov passes over a chained
// trace allocate at most 3x what they allocate over the unchained one.
// With a ChainFits walk (and its g.Len() slice) per free move-frame
// position the chained audit allocated about 950x as much.
func TestChainedDescentAuditAllocs(t *testing.T) {
	allocated := func(clockNs float64) uint64 {
		u := chainedSchedule(t, 1000, clockNs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := Run(u, Options{Analyzers: []string{"frames", "liapunov"}, Parallelism: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ds.HasErrors() {
			t.Fatalf("clock %g ns: audit finds errors on a clean schedule:\n%s", clockNs, listText(ds))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	chained, unchained := allocated(100), allocated(0)
	t.Logf("chained %d KB, unchained %d KB", chained/1024, unchained/1024)
	if ratio := float64(chained) / float64(unchained); ratio > 3 {
		t.Errorf("chained audit allocates %d KB, unchained %d KB: %.1fx, want at most 3x",
			chained/1024, unchained/1024, ratio)
	}
}

// TestDescentAuditMatchesChainFits checks the incremental chain filter
// against runLiapunovChainFits, the audit that calls ChainFits for every
// position, on chained traces and on corrupted copies of them. Each
// corrupted copy breaks one condition the incremental filter rests on,
// so the audit must take its ChainFits fallback from that commit on:
// "successor-placed-first" moves a chained successor's commit in front
// of its predecessor's (one copy per chained pair), "over-budget-commit"
// lowers the clock below a recorded chain.
func TestDescentAuditMatchesChainFits(t *testing.T) {
	ex := benchmarks.Chained()
	paper, err := mfs.Schedule(ex.Graph, mfs.Options{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs})
	if err != nil {
		t.Fatal(err)
	}
	cases := make(map[string]*Unit)
	for _, b := range []struct {
		name string
		u    *Unit
	}{
		{"chained", &Unit{Graph: ex.Graph, Schedule: paper}},
		{"gen300/100ns", chainedSchedule(t, 300, 100)},
		{"gen300/250ns", chainedSchedule(t, 300, 250)},
	} {
		cases[b.name] = b.u
		pairs := chainPairs(b.u)
		if len(pairs) == 0 {
			t.Fatalf("%s: no chained pair in the trace", b.name)
		}
		// The ChainFits audit is quadratic; ten copies per trace keep
		// the test fast and include pairs whose stale chain delay would
		// admit a position ChainFits rejects.
		for i, p := range pairs[:min(len(pairs), 10)] {
			cases[fmt.Sprintf("%s/fallback/successor-placed-first/%d", b.name, i)] = successorFirst(b.u, p)
		}
		cases[b.name+"/fallback/over-budget-commit"] = overBudget(t, b.u, pairs[0])
	}
	for name, u := range cases {
		got := listText(runLiapunov(context.Background(), u))
		want := listText(runLiapunovChainFits(context.Background(), u))
		if got != want {
			t.Errorf("%s: incremental audit reports\n%s\nChainFits audit reports\n%s", name, got, want)
		}
	}
}

// listText renders every field of every diagnostic, one per line.
func listText(ds diag.List) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%+v\n", d)
	}
	return b.String()
}

// chainPairs lists the trace indices [u, v] of every recorded commit v
// with a predecessor u committed earlier in the same step: the chains
// the clock admitted.
func chainPairs(u *Unit) [][2]int {
	s := u.Schedule
	var out [][2]int
	at := make(map[dfg.NodeID]int, len(s.Trace.Steps))
	for i, st := range s.Trace.Steps {
		for _, p := range u.Graph.Node(st.Node).Preds() {
			if j, ok := at[p]; ok && s.Trace.Steps[j].Pos.Step == st.Pos.Step {
				out = append(out, [2]int{j, i})
			}
		}
		at[st.Node] = i
	}
	return out
}

// withSteps copies the unit with a new trace of the given steps.
func withSteps(u *Unit, steps []sched.TraceStep) *Unit {
	s := *u.Schedule
	s.Trace = &sched.Trace{Fn: u.Schedule.Trace.Fn, Steps: steps}
	return &Unit{Graph: u.Graph, Schedule: &s}
}

// successorFirst moves the commit of a chained successor in front of
// its predecessor's, so the predecessor commits with a successor placed.
func successorFirst(u *Unit, pair [2]int) *Unit {
	iu, iv := pair[0], pair[1]
	old := u.Schedule.Trace.Steps
	steps := append([]sched.TraceStep(nil), old[:iu]...)
	steps = append(steps, old[iv])
	steps = append(steps, old[iu:iv]...)
	steps = append(steps, old[iv+1:]...)
	return withSteps(u, steps)
}

// overBudget lowers the clock of a copy just below a recorded chain's
// delay, so that chain's tail commits over budget.
func overBudget(t *testing.T, u *Unit, pair [2]int) *Unit {
	g, st := u.Graph, u.Schedule.Trace.Steps
	cu, cv := g.Node(st[pair[0]].Node), g.Node(st[pair[1]].Node)
	c := withSteps(u, append([]sched.TraceStep(nil), st...))
	c.Schedule.ClockNs = cu.DelayNs + cv.DelayNs - 1
	if c.Schedule.ClockNs < math.Max(cu.DelayNs, cv.DelayNs) {
		t.Fatalf("%s: chain %s → %s too short to break", g.Name, cu.Name, cv.Name)
	}
	return c
}

// runLiapunovChainFits is the liapunov audit with sched.ChainFits as
// its only chain filter: the oracle TestDescentAuditMatchesChainFits
// compares runLiapunov against.
func runLiapunovChainFits(ctx context.Context, u *Unit) diag.List {
	s := u.Schedule
	if s == nil || u.Graph == nil || s.Trace == nil {
		return nil
	}
	g, t := u.Graph, s.Trace
	var out diag.List
	report := func(code string, sev diag.Severity, loc, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "liapunov",
			Loc: loc, Message: msg,
		})
	}

	maxIdx := 1
	for _, st := range t.Steps {
		if int(st.MaxJ) > maxIdx {
			maxIdx = int(st.MaxJ)
		}
		if st.Pos.Index > maxIdx {
			maxIdx = st.Pos.Index
		}
	}
	if t.Fn != nil {
		if err := liapunov.CheckProperties(t.Fn, s.CS, maxIdx); err != nil {
			report(diag.CodeLiapProperties, diag.Error, t.Fn.Name(),
				fmt.Sprintf("guiding function fails the theorem's grid properties: %v", err))
		}
	}

	tables := make(map[string]*grid.Table)
	placedSteps := make([]int, g.Len()) // committed prefix by NodeID (0 = unplaced), for the chaining filter
	for i, st := range t.Steps {
		if int(st.Node) < 0 || int(st.Node) >= g.Len() {
			report(diag.CodeLiapReplay, diag.Error, fmt.Sprintf("trace step %d", i),
				fmt.Sprintf("trace step %d names node %d, which the graph does not have", i, st.Node))
			continue
		}
		n := g.Node(st.Node)
		table := tables[st.Type]
		if table == nil {
			max := int(st.MaxJ)
			if st.Pos.Index > max {
				max = st.Pos.Index
			}
			table = grid.NewTable(st.Type, s.CS, max)
			table.Latency = s.Latency
			table.Pipelined = s.PipelinedTypes[st.Type]
			tables[st.Type] = table
		}

		if t.Fn != nil {
			if v := t.Fn.Value(st.Pos); math.Abs(v-st.Energy) > energyEps {
				report(diag.CodeLiapEnergy, diag.Error, n.Name,
					fmt.Sprintf("node %q at %v: recorded energy %g, V(position) = %g",
						n.Name, st.Pos, st.Energy, v))
			}
			if !st.Frames().MF().Empty() {
				auditDescentChainFits(g, s, t.Fn, table, placedSteps, n, st, report)
			}
		}
		if len(st.Candidates) > 0 {
			best := math.Inf(1)
			var bestPos grid.Pos
			for _, c := range st.Candidates {
				if c.Energy < best {
					best, bestPos = c.Energy, c.Pos()
				}
			}
			if st.Energy > best+energyEps {
				report(diag.CodeLiapCandidate, diag.Error, n.Name,
					fmt.Sprintf("node %q committed at %v with V = %g, but evaluated candidate %v had V = %g",
						n.Name, st.Pos, st.Energy, bestPos, best))
			}
		}

		if !table.CanPlace(g, st.Node, st.Pos, n.Cycles) {
			report(diag.CodeLiapReplay, diag.Error, n.Name,
				fmt.Sprintf("node %q cannot be re-placed at %v: the recorded trajectory does not replay", n.Name, st.Pos))
			continue
		}
		if err := table.Place(g, st.Node, st.Pos, n.Cycles); err != nil {
			report(diag.CodeLiapReplay, diag.Error, n.Name,
				fmt.Sprintf("replaying node %q: %v", n.Name, err))
			continue
		}
		placedSteps[st.Node] = st.Pos.Step
	}
	return out
}

// auditDescentChainFits asserts the greedy-descent invariant for one recorded
// MFS placement: among the recorded move frame's free positions (grid
// occupancy and, under chaining, the delay budget both honored), none
// has strictly lower energy than the committed one.
func auditDescentChainFits(g *dfg.Graph, s *sched.Schedule, fn liapunov.Func, table *grid.Table,
	placedSteps []int, n *dfg.Node, st sched.TraceStep, report func(code string, sev diag.Severity, loc, msg string)) {
	free := 0
	best := math.Inf(1)
	var bestPos grid.Pos
	tiesAtBest := 0
	for _, p := range st.Frames().MF().Positions() {
		if !table.CanPlace(g, n.ID, p, n.Cycles) {
			continue
		}
		if s.ClockNs > 0 && !sched.ChainFits(g, s.ClockNs, placedSteps, n.ID, p.Step) {
			continue
		}
		free++
		v := fn.Value(p)
		switch {
		case v < best-energyEps:
			best, bestPos, tiesAtBest = v, p, 1
		case math.Abs(v-best) <= energyEps:
			tiesAtBest++
		}
	}
	if free == 0 {
		report(diag.CodeLiapReplay, diag.Error, n.Name,
			fmt.Sprintf("node %q: no free move-frame position on replay, yet the scheduler committed %v",
				n.Name, st.Pos))
		return
	}
	committed := fn.Value(st.Pos)
	if committed > best+energyEps {
		report(diag.CodeLiapDescent, diag.Error, n.Name,
			fmt.Sprintf("non-decreasing V(X) step: node %q committed at %v with V = %g while free move-frame position %v had V = %g",
				n.Name, st.Pos, committed, bestPos, best))
	}
	if tiesAtBest > 1 && math.Abs(committed-best) <= energyEps {
		report(diag.CodeLiapTie, diag.Info, n.Name,
			fmt.Sprintf("node %q: %d move-frame positions tie at minimum energy %g; the guiding function is degenerate here",
				n.Name, tiesAtBest, best))
	}
}
