package sim_test

// The oracle for the compiled simulator: the map-based simulator it
// replaced, copied verbatim (run, CrossCheckCtx, and the register scan
// Datapath.Covering) except that calls into the code under test go to
// the copies, and the graph reference is the same evaluation over signal
// names. Every entry point must return the same values and byte-identical
// errors on every design and vector below.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/mfs"
	"repro/internal/op"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
)

func refRun(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) (map[string]int64, error) {
	g := s.Graph
	// Step budget: a degenerate schedule (say an operation declared to
	// take a billion cycles) must fail fast with a typed error, not hang
	// the simulator. The budget counts node-cycles, so it scales with
	// design size but rejects absurd single operations.
	budget := 0
	for _, n := range g.Nodes() {
		c := n.Cycles
		if c < 1 {
			c = 1
		}
		if budget += c; budget > guard.DefaultSimBudget {
			return nil, fmt.Errorf("sim: %w",
				&guard.LimitError{What: "simulation node-cycles", Got: budget, Max: guard.DefaultSimBudget})
		}
	}
	vals := make(map[string]int64, g.Len()+len(inputs))
	for _, in := range g.Inputs() {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("sim: missing input %q", in)
		}
		vals[in] = v
	}
	readyAt := make(map[string]int) // signal -> finish step of producer
	isInput := make(map[string]bool)
	for _, in := range g.Inputs() {
		readyAt[in] = 0
		isInput[in] = true
	}
	finish := func(n *dfg.Node) int {
		return stepOf(s, n.ID) + n.Cycles - 1
	}

	// Issue order: by start step, then topologically within a step (for
	// chained operations), then by ID.
	order := append([]dfg.NodeID(nil), g.TopoOrder()...)
	sort.SliceStable(order, func(i, j int) bool {
		si := stepOf(s, order[i])
		sj := stepOf(s, order[j])
		return si < sj
	})

	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := g.Node(id)
		p, ok := s.At(id)
		if !ok {
			return nil, fmt.Errorf("sim: node %q unscheduled", n.Name)
		}
		for _, a := range n.Args {
			r, ok := readyAt[a]
			if !ok {
				return nil, fmt.Errorf("sim: node %q reads %q which never becomes ready", n.Name, a)
			}
			switch {
			case r < p.Step:
				// Ready before the step: the value crossed a boundary;
				// with a datapath, node-produced values must be
				// registered for the whole span (primary inputs are
				// stable ports unless the design registered them too).
				if dp != nil && !isInput[a] {
					if _, ok := refCovering(s.Graph, dp, a, r, p.Step); !ok {
						return nil, fmt.Errorf("sim: node %q reads %q at step %d but no register holds it over [%d,%d]",
							n.Name, a, p.Step, r, p.Step)
					}
				}
			case r == p.Step && s.ClockNs > 0 && n.Cycles == 1:
				// Chained within the step; combinational, no register.
			default:
				return nil, fmt.Errorf("sim: node %q at step %d reads %q which is ready only at step %d",
					n.Name, p.Step, a, r)
			}
		}
		var out int64
		if n.IsLoop() {
			sub := make(map[string]int64, len(n.SubIns))
			for i, in := range n.SubIns {
				sub[in] = vals[n.Args[i]]
			}
			inner, err := refEval(n.Sub, sub)
			if err != nil {
				return nil, fmt.Errorf("sim: loop %q: %w", n.Name, err)
			}
			out = inner[n.SubOut]
		} else {
			var x, y int64
			x = vals[n.Args[0]]
			if len(n.Args) > 1 {
				y = vals[n.Args[1]]
			}
			out = n.Op.Eval(x, y)
		}
		vals[n.Name] = out
		readyAt[n.Name] = finish(n)
	}
	return vals, nil
}

func refCrossCheckCtx(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, inputs map[string]int64) error {
	want, err := refEval(s.Graph, inputs)
	if err != nil {
		return fmt.Errorf("sim: reference: %w", err)
	}
	var got map[string]int64
	if dp != nil {
		got, err = refRun(ctx, s, dp, inputs)
	} else {
		got, err = refRun(ctx, s, nil, inputs)
	}
	if err != nil {
		return err
	}
	//hls:ctxok O(nodes) value comparison after the cancellable simulation already returned
	for _, n := range s.Graph.Nodes() {
		if got[n.Name] != want[n.Name] {
			return fmt.Errorf("sim: %q = %d, reference says %d", n.Name, got[n.Name], want[n.Name])
		}
	}
	return nil
}

func refCovering(g *dfg.Graph, d *rtl.Datapath, sig string, birth, readStep int) (int, bool) {
	for r, grp := range d.Registers {
		for _, iv := range grp {
			if g.SignalLabel(iv.Signal) == sig && iv.Birth <= birth && iv.Death >= readStep {
				return r, true
			}
		}
	}
	return -1, false
}

// refCrossCheckSeeds is CrossCheckSeedsCtx's loop over refCrossCheckCtx.
func refCrossCheckSeeds(ctx context.Context, s *sched.Schedule, dp *rtl.Datapath, n int, overrides map[string]int64) error {
	if n <= 0 {
		n = sim.DefaultCrossCheckSeeds
	}
	for seed := 1; seed <= n; seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := sim.RandomInputs(s.Graph, int64(seed))
		for k, v := range overrides {
			in[k] = v
		}
		if err := refCrossCheckCtx(ctx, s, dp, in); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// refRunPipelined is RunPipelinedCtx's loop over refRun and refEval.
func refRunPipelined(ctx context.Context, s *sched.Schedule, inputs []map[string]int64) (*sim.PipelineRun, error) {
	if s.Latency <= 0 {
		return nil, fmt.Errorf("sim: RunPipelined needs a functionally pipelined schedule")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no iterations")
	}
	run := &sim.PipelineRun{
		Throughput: s.Latency,
		TotalSteps: (len(inputs)-1)*s.Latency + s.CS,
	}
	for k, in := range inputs {
		vals, err := refRun(ctx, s, nil, in)
		if err != nil {
			return nil, fmt.Errorf("sim: iteration %d: %w", k, err)
		}
		want, err := refEval(s.Graph, in)
		if err != nil {
			return nil, fmt.Errorf("sim: iteration %d reference: %w", k, err)
		}
		for _, n := range s.Graph.Nodes() {
			if vals[n.Name] != want[n.Name] {
				return nil, fmt.Errorf("sim: iteration %d: %q = %d, reference %d",
					k, n.Name, vals[n.Name], want[n.Name])
			}
		}
		run.Iterations = append(run.Iterations, vals)
	}
	return run, nil
}

// refEval is dfg.Graph.Eval over signal names.
func refEval(g *dfg.Graph, inputs map[string]int64) (map[string]int64, error) {
	vals := make(map[string]int64, g.NumSignals())
	for _, in := range g.Inputs() {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("dfg %s: Eval: missing input %q", g.Name, in)
		}
		vals[in] = v
	}
	for _, n := range g.Nodes() {
		if n.IsLoop() {
			sub := make(map[string]int64, len(n.SubIns))
			for i, in := range n.SubIns {
				sub[in] = vals[n.Args[i]]
			}
			inner, err := refEval(n.Sub, sub)
			if err != nil {
				return nil, fmt.Errorf("dfg %s: loop %q: %w", g.Name, n.Name, err)
			}
			vals[n.Name] = inner[n.SubOut]
			continue
		}
		var a, b int64
		a = vals[n.Args[0]]
		if len(n.Args) > 1 {
			b = vals[n.Args[1]]
		}
		vals[n.Name] = n.Op.Eval(a, b)
	}
	return vals, nil
}

// refCase is one schedule, with its datapath when it has one, and the
// inputs its source pins to literal constants. broken marks a corruption
// the simulator must reject.
type refCase struct {
	name   string
	s      *sched.Schedule
	dp     *rtl.Datapath
	consts map[string]int64
	broken bool
}

func TestSimMatchesReference(t *testing.T) {
	for _, c := range referenceCorpus(t) {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, c) })
	}
}

// checkAgainstReference runs every entry point and its reference on c.
func checkAgainstReference(t *testing.T, c refCase) {
	ctx := context.Background()
	vecs := explicitVectors(c.s.Graph, c.consts)
	if c.broken && refCrossCheckCtx(ctx, c.s, c.dp, vecs[0]) == nil {
		t.Error("the reference accepts the corrupted design; the case tests nothing")
	}
	for i, in := range vecs {
		got, err := sim.Run(c.s, in)
		want, wantErr := refRun(ctx, c.s, nil, in)
		same(t, fmt.Sprintf("Run vector %d", i), got, want, err, wantErr)
		if c.dp != nil {
			got, err = sim.RunRTL(c.s, c.dp, in)
			want, wantErr = refRun(ctx, c.s, c.dp, in)
			same(t, fmt.Sprintf("RunRTL vector %d", i), got, want, err, wantErr)
		}
		for _, dp := range []*rtl.Datapath{nil, c.dp} {
			err := sim.CrossCheck(c.s, dp, in)
			wantErr := refCrossCheckCtx(ctx, c.s, dp, in)
			same(t, fmt.Sprintf("CrossCheck vector %d (datapath %t)", i, dp != nil), nil, nil, err, wantErr)
		}
	}
	for _, overrides := range []map[string]int64{nil, c.consts, pinFirst(c.s.Graph)} {
		err := sim.CrossCheckSeedsCtx(ctx, c.s, c.dp, 3, overrides)
		wantErr := refCrossCheckSeeds(ctx, c.s, c.dp, 3, overrides)
		same(t, fmt.Sprintf("CrossCheckSeedsCtx overrides %v", overrides), nil, nil, err, wantErr)
	}
	if c.s.Latency > 0 {
		got, err := sim.RunPipelined(c.s, vecs)
		want, wantErr := refRunPipelined(ctx, c.s, vecs)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("RunPipelined: got %+v, %v; reference %+v, %v", got, err, want, wantErr)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	got, err := sim.RunCtx(cancelled, c.s, vecs[0])
	want, wantErr := refRun(cancelled, c.s, nil, vecs[0])
	same(t, "RunCtx cancelled", got, want, err, wantErr)
	err = sim.CrossCheckSeedsCtx(cancelled, c.s, c.dp, 0, nil)
	wantErr = refCrossCheckSeeds(cancelled, c.s, c.dp, 0, nil)
	same(t, "CrossCheckSeedsCtx cancelled", nil, nil, err, wantErr)
}

func same(t *testing.T, what string, got, want map[string]int64, err, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", what, err, wantErr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: values differ from the reference", what)
	}
}

// explicitVectors returns input vectors for g: small values, full-range
// values, the constants pinned, and one vector missing an input.
func explicitVectors(g *dfg.Graph, consts map[string]int64) []map[string]int64 {
	r := rand.New(rand.NewSource(int64(g.Len())))
	var vecs []map[string]int64
	for k := 0; k < 3; k++ {
		in := make(map[string]int64)
		for _, name := range g.Inputs() {
			switch k {
			case 0:
				in[name] = int64(r.Intn(21) - 10)
			case 1:
				in[name] = r.Int63() - r.Int63()
			default:
				in[name] = int64(r.Intn(2001) - 1000)
			}
		}
		for name, v := range consts {
			in[name] = v
		}
		vecs = append(vecs, in)
	}
	if ins := g.Inputs(); len(ins) > 0 {
		missing := make(map[string]int64)
		for name, v := range vecs[0] {
			missing[name] = v
		}
		delete(missing, ins[len(ins)/2])
		vecs = append(vecs, missing)
	}
	return vecs
}

// pinFirst pins the first sorted input, and a name the graph lacks.
func pinFirst(g *dfg.Graph) map[string]int64 {
	pins := map[string]int64{"no such input": 7}
	if ins := g.Inputs(); len(ins) > 0 {
		pins[ins[0]] = -3
	}
	return pins
}

// referenceCorpus builds the designs the oracle runs on, corrupted
// copies included.
func referenceCorpus(t *testing.T) []refCase {
	t.Helper()
	var cases []refCase
	add := func(name string, d *core.Design) {
		cases = append(cases, refCase{name: name, s: d.Schedule, dp: d.Datapath, consts: d.Consts})
	}
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for cs := cp; cs <= cp+2; cs++ {
			lat := 0
			if ex.Latency != nil {
				lat = ex.Latency(cs)
			}
			cfg := core.Config{CS: cs, ClockNs: ex.ClockNs, Latency: lat}
			d, err := core.ScheduleOnly(ex.Graph, cfg)
			if err != nil {
				t.Fatalf("%s cs %d: %v", ex.Name, cs, err)
			}
			add(fmt.Sprintf("%s/cs%d/mfs", ex.Name, cs), d)
			for _, style := range []int{1, 2} {
				cfg.Style, cfg.PipelinedOps = style, ex.PipelinedOps
				d, err := core.Synthesize(ex.Graph, cfg)
				if err != nil {
					t.Fatalf("%s cs %d style %d: %v", ex.Name, cs, style, err)
				}
				add(fmt.Sprintf("%s/cs%d/style%d", ex.Name, cs, style), d)
			}
		}
	}
	paths, err := filepath.Glob("../../designs/*.hls")
	if err != nil || len(paths) == 0 {
		t.Fatalf("designs: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, consts, outputs, err := behav.Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Pipeline(g, consts, outputs)
		if err != nil {
			t.Fatal(err)
		}
		cs := res.Graph.CriticalPathCycles() + 1
		d, err := core.SynthesizeSource(string(src), core.Config{CS: cs, Optimize: true})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(filepath.Base(path), d)
	}
	for _, nodes := range []int{300, 2000} {
		g, err := gen.Generate(gen.Config{Nodes: nodes, Seed: 1, MulCycles: 2})
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Synthesize(g, core.Config{CS: g.CriticalPathCycles() + 4})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("gen%d", nodes), d)
	}
	cases = append(cases, refCase{name: "loop", s: loopSchedule(t)})
	return append(cases, corrupted(t)...)
}

// loopSchedule schedules a graph with a folded loop node.
func loopSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	body := dfg.New("body")
	body.AddInput("p")
	body.AddInput("q")
	body.AddOp("m", op.Mul, "p", "q")
	body.AddOp("r", op.Sub, "m", "p")
	g := dfg.New("outer")
	g.AddInput("x")
	g.AddInput("y")
	g.AddOp("z", op.Add, "x", "y")
	lid, err := g.AddLoop("l", body, "r", map[string]string{"p": "z", "q": "y"})
	if err != nil {
		t.Fatal(err)
	}
	g.SetCycles(lid, 2)
	g.AddOp("out", op.Xor, "l", "x")
	ld, err := mfs.ScheduleLoops(g, mfs.Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ld.Schedule
}

// corrupted returns designs broken in each way the simulator must
// report: every lint mutation, a deleted placement, a dropped register
// interval, an unclocked read in the producer's step, and reads before
// the producer finishes. (A missing input is in every case's vectors.)
func corrupted(t *testing.T) []refCase {
	t.Helper()
	fresh := func(name string) *core.Design {
		var ex *benchmarks.Example
		switch name {
		case "diffeq":
			ex = benchmarks.Diffeq()
		default:
			ex = benchmarks.EWF()
		}
		cs := ex.Graph.CriticalPathCycles() + 1
		d, err := core.Synthesize(ex.Graph, core.Config{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var cases []refCase
	add := func(name string, d *core.Design) {
		cases = append(cases, refCase{name: name, s: d.Schedule, dp: d.Datapath, consts: d.Consts, broken: true})
	}
	for _, base := range []string{"diffeq", "ewf"} {
		for _, m := range lint.Mutations() {
			d := fresh(base)
			if err := lint.ApplyMutation(d.LintUnit(), m.Name); err != nil {
				continue // the design lacks the mutation's seam
			}
			// Only drop-register edits what the simulator reads; the
			// others corrupt the controller, the mux tables or the
			// netlist, and the simulation must still pass.
			cases = append(cases, refCase{name: base + "/mutation/" + m.Name,
				s: d.Schedule, dp: d.Datapath, broken: m.Name == "drop-register"})
		}

		d := fresh(base)
		d.Schedule.Unplace(d.Graph.Nodes()[d.Graph.Len()/2].ID)
		add(base+"/deleted-placement", d)

		d = fresh(base)
		grp := d.Datapath.Registers[len(d.Datapath.Registers)-1]
		d.Datapath.Registers[len(d.Datapath.Registers)-1] = grp[:len(grp)-1]
		add(base+"/dropped-interval", d)

		// A consumer moved into its producer's finish step, unclocked.
		d = fresh(base)
		d.Schedule.ClockNs = 0
		if n, p, ok := consumerOf(d.Graph, 1); ok {
			moveTo(d.Schedule, n, finishStep(d.Schedule, p))
			add(base+"/unclocked-same-step", d)
		}

		// A consumer moved to the step before its producer issues.
		d = fresh(base)
		if n, p, ok := consumerOf(d.Graph, 1); ok {
			moveTo(d.Schedule, n, stepOf(d.Schedule, p.ID)-1)
			add(base+"/read-before-issue", d)
		}

		// A consumer of a multicycle producer moved to its start step.
		d = fresh(base)
		if n, p, ok := consumerOf(d.Graph, 2); ok {
			moveTo(d.Schedule, n, stepOf(d.Schedule, p.ID))
			add(base+"/read-before-finish", d)
		}
	}
	return append(cases, refCase{name: "read-mid-multicycle", s: midMulticycleRead(), broken: true})
}

// midMulticycleRead reads a 3-cycle product in its second cycle.
func midMulticycleRead() *sched.Schedule {
	g := dfg.New("early")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	y, _ := g.AddOp("y", op.Add, "x", "a")
	g.SetCycles(x, 3)
	s := sched.NewSchedule(g, 4)
	s.Place(x, sched.Placement{Step: 1, Type: "*", Index: 1})
	s.Place(y, sched.Placement{Step: 2, Type: "+", Index: 1})
	return s
}

// consumerOf returns the last node reading a node of at least the given
// cycle count, and that producer.
func consumerOf(g *dfg.Graph, cycles int) (n, p *dfg.Node, ok bool) {
	nodes := g.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		for _, id := range nodes[i].Preds() {
			if g.Node(id).Cycles >= cycles {
				return nodes[i], g.Node(id), true
			}
		}
	}
	return nil, nil, false
}

func finishStep(s *sched.Schedule, n *dfg.Node) int {
	return stepOf(s, n.ID) + n.Cycles - 1
}

// stepOf is node id's start step, 0 when it is unplaced.
func stepOf(s *sched.Schedule, id dfg.NodeID) int {
	p, _ := s.At(id)
	return p.Step
}

func moveTo(s *sched.Schedule, n *dfg.Node, step int) {
	p, _ := s.At(n.ID)
	p.Step = step
	s.Place(n.ID, p)
}

// TestRandomInputsPinned pins the vector generator: its values for one
// graph and seed, and its range.
func TestRandomInputsPinned(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	got := sim.RandomInputs(g, 1)
	want := map[string]int64{"a": 13, "dx": 49, "three": 95, "u": -11, "x": -11, "y": 53}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RandomInputs(diffeq, 1) = %#v", got)
	}
	lo, hi := int64(0), int64(0)
	for seed := int64(-50); seed < 500; seed++ {
		for _, v := range sim.RandomInputs(benchmarks.EWF().Graph, seed) {
			if v < -100 || v > 100 {
				t.Fatalf("seed %d: value %d outside [-100, 100]", seed, v)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if lo != -100 || hi != 100 {
		t.Errorf("values span [%d, %d], want the whole of [-100, 100]", lo, hi)
	}
}
