// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Table 1 (MFS results for the six design examples),
// Table 2 (MFSA RTL results in both design styles), the textual Figures 1
// and 2 (placement table and move frames), the CPU-time measurements, the
// comparison against the force-directed baseline, and the ablations
// DESIGN.md calls out. cmd/hlsbench prints these tables; the repository
// root's bench_test.go wraps each in a testing.B benchmark.
//
// Every table cell is an independent synthesis run over a read-only
// graph, so the builders fan the examples × constraints grid out over
// the shared worker pool (internal/pool) and append rows in their
// deterministic order afterwards; only Runtime stays sequential, because
// it measures per-example wall time and concurrent runs would contend
// for cores and distort the numbers.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/grid"
	"repro/internal/liapunov"
	"repro/internal/library"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/op"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// exJob is one cell of an examples × constraints grid.
type exJob struct {
	ex *benchmarks.Example
	cs int
}

// firstConstraintJobs returns one job per example at its tightest time
// constraint, keeping only examples the filter admits (nil = all).
func firstConstraintJobs(filter func(*benchmarks.Example) bool) []exJob {
	var jobs []exJob
	for _, ex := range benchmarks.All() {
		if filter != nil && !filter(ex) {
			continue
		}
		jobs = append(jobs, exJob{ex, ex.TimeConstraints[0]})
	}
	return jobs
}

// parRows computes n table rows concurrently on the shared pool and
// appends them to t in index order, so a parallelized table is
// byte-identical to its sequential ancestor. A cancelled ctx aborts the
// fan-out and surfaces ctx.Err(); no partial table is appended.
func parRows(ctx context.Context, t *report.Table, n int, row func(i int) ([]interface{}, error)) error {
	rows, err := pool.MapCtx(ctx, pool.Size(0), n, row)
	if err != nil {
		return err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	return nil
}

// fuNotation renders instance counts in the paper's Table 1 notation:
// {"*":2, "+":3} -> "**,+++".
func fuNotation(inst map[string]int) string {
	order := []string{"*", "+", "-", "/", "<", ">", "&", "|"}
	seen := make(map[string]bool)
	var parts []string
	add := func(sym string) {
		n := inst[sym]
		if n <= 0 {
			return
		}
		parts = append(parts, strings.Repeat(sym, n))
		seen[sym] = true
	}
	for _, sym := range order {
		add(sym)
	}
	var rest []string
	for sym := range inst {
		if !seen[sym] {
			rest = append(rest, sym)
		}
	}
	sort.Strings(rest)
	for _, sym := range rest {
		add(sym)
	}
	return strings.Join(parts, ",")
}

func mfsOptions(ex *benchmarks.Example, cs int, pipelined bool) mfs.Options {
	opt := mfs.Options{CS: cs, ClockNs: ex.ClockNs}
	if ex.Latency != nil {
		opt.Latency = ex.Latency(cs)
	}
	if pipelined {
		opt.PipelinedTypes = make(map[string]bool)
		for _, sym := range ex.PipelinedOps {
			opt.PipelinedTypes[sym] = true
		}
	}
	return opt
}

// Table1 regenerates the MFS results table: for every example and every
// time constraint, the functional-unit mix MFS settles on; structurally
// pipelined examples get a second row using pipelined units.
func Table1() (*report.Table, error) {
	return Table1Ctx(context.Background())
}

// Table1Ctx is Table1 with cancellation.
func Table1Ctx(ctx context.Context) (*report.Table, error) {
	t := report.New("Table 1 — MFS results for the six design examples",
		"Ex", "Cyc", "Feat", "T", "FUs", "FUs (pipelined)")
	var jobs []exJob
	//hls:ctxok enumerates the six fixed benchmark examples; the synthesis work below it is cancelled through parRows
	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			jobs = append(jobs, exJob{ex, cs})
		}
	}
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		s, err := mfs.ScheduleCtx(ctx, ex.Graph, mfsOptions(ex, cs, false))
		if err != nil {
			return nil, fmt.Errorf("%s T=%d: %w", ex.Name, cs, err)
		}
		plain := fuNotation(s.InstancesPerType())
		piped := ""
		if len(ex.PipelinedOps) > 0 {
			sp, err := mfs.ScheduleCtx(ctx, ex.Graph, mfsOptions(ex, cs, true))
			if err != nil {
				return nil, fmt.Errorf("%s T=%d pipelined: %w", ex.Name, cs, err)
			}
			piped = fuNotation(sp.InstancesPerType())
		}
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), ex.CycleNote, ex.Feature,
			fmt.Sprintf("T=%d", cs), plain, piped}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table2 regenerates the MFSA results table: for every example at its
// tightest time constraint, both design styles' ALU set, total cost,
// and register/multiplexer statistics.
func Table2() (*report.Table, error) {
	return Table2Ctx(context.Background())
}

// Table2Ctx is Table2 with cancellation.
func Table2Ctx(ctx context.Context) (*report.Table, error) {
	t := report.New("Table 2 — MFSA RTL results (NCR-like library, µm²)",
		"Ex", "T", "Style", "ALUs", "Cost", "REG", "MUX", "MUXin")
	type styleJob struct {
		ex    *benchmarks.Example
		style mfsa.Style
	}
	var jobs []styleJob
	//hls:ctxok enumerates the six fixed benchmark examples; the synthesis work below it is cancelled through parRows
	for _, ex := range benchmarks.All() {
		for _, style := range []mfsa.Style{mfsa.Style1, mfsa.Style2} {
			jobs = append(jobs, styleJob{ex, style})
		}
	}
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, style := jobs[i].ex, jobs[i].style
		cs := ex.TimeConstraints[0]
		res, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{
			CS: cs, Style: style, ClockNs: ex.ClockNs,
		})
		if err != nil {
			return nil, fmt.Errorf("%s style %d: %w", ex.Name, style, err)
		}
		c := res.Cost
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs, int(style),
			res.Datapath.ALUSummary(), fmt.Sprintf("%.0f", c.Total),
			c.NumRegs, c.NumMux, c.NumMuxInputs}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// StyleOverhead reports style 2's total-cost overhead over style 1 per
// example — the §6 claim of a 2–11% premium for self-testable
// structures.
func StyleOverhead() (*report.Table, error) {
	return StyleOverheadCtx(context.Background())
}

// StyleOverheadCtx is StyleOverhead with cancellation.
func StyleOverheadCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Style 2 overhead vs style 1 (total cost)",
		"Ex", "T", "Style1", "Style2", "Overhead")
	jobs := firstConstraintJobs(nil)
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		c1, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs, Style: mfsa.Style1, ClockNs: ex.ClockNs})
		if err != nil {
			return nil, err
		}
		c2, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs, Style: mfsa.Style2, ClockNs: ex.ClockNs})
		if err != nil {
			return nil, err
		}
		over := (c2.Cost.Total/c1.Cost.Total - 1) * 100
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			fmt.Sprintf("%.0f", c1.Cost.Total), fmt.Sprintf("%.0f", c2.Cost.Total),
			fmt.Sprintf("%+.1f%%", over)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Compare reproduces §6's comparison against the literature: MFS versus
// force-directed scheduling (the HAL baseline) on functional-unit
// counts, and MFSA versus FDS followed by a naive single-function
// allocation on total RTL cost, on the same library.
func Compare() (*report.Table, error) {
	return CompareCtx(context.Background())
}

// CompareCtx is Compare with cancellation.
func CompareCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Comparison — MFS/MFSA vs force-directed baseline",
		"Ex", "T", "MFS FUs", "FDS FUs", "MFSA cost", "FDS+naive cost", "Δcost")
	// FDS baseline has no chaining support.
	jobs := firstConstraintJobs(func(ex *benchmarks.Example) bool { return ex.ClockNs == 0 })
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		ms, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs})
		if err != nil {
			return nil, err
		}
		fs, err := baseline.ForceDirected(ex.Graph, cs)
		if err != nil {
			return nil, err
		}
		res, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs})
		if err != nil {
			return nil, err
		}
		naive, err := NaiveAllocate(fs, library.NCRLike())
		if err != nil {
			return nil, err
		}
		nc := naive.Cost()
		delta := (res.Cost.Total/nc.Total - 1) * 100
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			fuNotation(ms.InstancesPerType()), fuNotation(fs.InstancesPerType()),
			fmt.Sprintf("%.0f", res.Cost.Total), fmt.Sprintf("%.0f", nc.Total),
			fmt.Sprintf("%+.1f%%", delta)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// NaiveAllocate binds a finished schedule to single-function units
// exactly as placed (instance = schedule index), with straightforward
// multiplexer lists and left-edge registers — the datapath a scheduler
// without allocation awareness would get. It is the cost baseline MFSA
// is compared against.
func NaiveAllocate(s *sched.Schedule, lib *library.Library) (*rtl.Datapath, error) {
	g := s.Graph
	dp := rtl.NewDatapath(lib)
	alus := make(map[string]*rtl.ALU)
	ids := make([]dfg.NodeID, 0, g.Len())
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Node(id)
		p, ok := s.At(id)
		if !ok {
			return nil, fmt.Errorf("experiments: node %q unscheduled", n.Name)
		}
		key := fmt.Sprintf("%s#%d", p.Type, p.Index)
		a, ok := alus[key]
		if !ok {
			u := lib.Single(n.Op)
			if u == nil {
				return nil, fmt.Errorf("experiments: no unit for %v", n.Op)
			}
			a = dp.AddALU(u)
			alus[key] = a
		}
		a.Bind(n, p.Step)
	}
	dp.AssignRegisters(g, lifetimes(s))
	if err := dp.Validate(g); err != nil {
		return nil, err
	}
	return dp, nil
}

// lifetimes derives value lifetimes from a schedule (producer finish to
// last consumer; outputs held one boundary).
func lifetimes(s *sched.Schedule) []rtl.Interval {
	g := s.Graph
	var out []rtl.Interval
	for _, n := range g.Nodes() {
		p, _ := s.At(n.ID)
		birth := p.Step + n.Cycles - 1
		death := birth + 1
		for _, sid := range n.Succs() {
			if sp, ok := s.At(sid); ok && sp.Step > death {
				death = sp.Step
			}
		}
		out = append(out, rtl.Interval{Signal: n.OutID(), Birth: birth, Death: death})
	}
	return out
}

// Runtime measures wall-clock synthesis time per example, mirroring §6's
// "< 0.2 s MFS, < 0.4 s MFSA per example on a SPARC SLC". Unlike the
// result tables it deliberately stays sequential: concurrent runs would
// contend for cores and inflate the per-example timings.
func Runtime() (*report.Table, error) {
	return RuntimeCtx(context.Background())
}

// RuntimeCtx is Runtime with cancellation, checked between examples and
// inside each timed run.
func RuntimeCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("CPU time per example (this machine)",
		"Ex", "T", "MFS", "MFSA")
	for _, ex := range benchmarks.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs := ex.TimeConstraints[0]
		start := time.Now()
		if _, err := mfs.ScheduleCtx(ctx, ex.Graph, mfsOptions(ex, cs, false)); err != nil {
			return nil, err
		}
		tMFS := time.Since(start)
		start = time.Now()
		if _, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs, ClockNs: ex.ClockNs}); err != nil {
			return nil, err
		}
		tMFSA := time.Since(start)
		t.Addf(fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs, tMFS, tMFSA)
	}
	return t, nil
}

// Figure1 renders the paper's Figure 1: an operation's present position
// O_p and its next position O_n on the placement grid, with the move
// decreasing the Liapunov energy.
func Figure1() string {
	g := dfg.New("figure1")
	g.AddInput("a")
	id, _ := g.AddOp("Oi", op.Mul, "a", "a")
	table := grid.NewTable("*", 7, 4)
	present := grid.Pos{Step: 6, Index: 4}
	next := grid.Pos{Step: 3, Index: 2}
	_ = table.Place(g, id, present, 1)
	f := liapunov.TimeConstrained{N: 5}
	render := grid.Render(table, nil, map[grid.Pos]string{present: "Oip", next: "Oin"})
	return fmt.Sprintf("Figure 1 — present (Oip) and next (Oin) position of an operation\n%s"+
		"move decreases V = x + n·y: V(Oip)=%.0f -> V(Oin)=%.0f\n",
		render, f.Value(present), f.Value(next))
}

// Figure2 renders the paper's Figure 2: the PF/RF/FF/MF frames an
// operation sees at placement time, reconstructed on the diffeq example.
func Figure2() (string, error) {
	ex := benchmarks.Diffeq()
	var target dfg.NodeID = -1
	for _, n := range ex.Graph.Nodes() {
		if n.Name == "m4" {
			target = n.ID
		}
	}
	in, err := mfs.FramesFor(ex.Graph, mfs.Options{CS: 4}, target)
	if err != nil {
		return "", err
	}
	return "Figure 2 — move-frame construction (MF = PF − (RF ∪ FF))\n" + in.Render(), nil
}

// Phases reproduces the paper's §1 motivation quantitatively: "decisions
// at higher levels (i.e. allocation) may dominate the results produced
// by an independent scheduling phase". It compares full MFSA
// (simultaneous scheduling and allocation) against the sequential flows
// MFS→Allocate and FDS→Allocate on the same library, where Allocate is
// MFSA's binder with the time dimension frozen.
func Phases() (*report.Table, error) {
	return PhasesCtx(context.Background())
}

// PhasesCtx is Phases with cancellation.
func PhasesCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Simultaneous vs sequential scheduling/allocation (total cost, µm²)",
		"Ex", "T", "MFSA (simultaneous)", "MFS→alloc", "FDS→alloc")
	// The FDS baseline is not pipelining-aware.
	jobs := firstConstraintJobs(func(ex *benchmarks.Example) bool { return ex.Latency == nil })
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		sim1, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			return nil, err
		}
		ms, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			return nil, err
		}
		seq1, err := mfsa.AllocateCtx(ctx, ms, mfsa.Options{})
		if err != nil {
			return nil, err
		}
		fdsCell := "n/a"
		if ex.ClockNs == 0 {
			fs, err := baseline.ForceDirected(ex.Graph, cs)
			if err != nil {
				return nil, err
			}
			seq2, err := mfsa.AllocateCtx(ctx, fs, mfsa.Options{})
			if err != nil {
				return nil, err
			}
			fdsCell = fmt.Sprintf("%.0f", seq2.Cost.Total)
		}
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			fmt.Sprintf("%.0f", sim1.Cost.Total),
			fmt.Sprintf("%.0f", seq1.Cost.Total),
			fdsCell}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Interconnect regenerates the §5.7 interconnect study: per example, the
// point-to-point link count, the per-signal vs. post-sharing effective
// multiplexer input counts, and the bus-based alternative's size.
func Interconnect() (*report.Table, error) {
	return InterconnectCtx(context.Background())
}

// InterconnectCtx is Interconnect with cancellation.
func InterconnectCtx(ctx context.Context) (*report.Table, error) {
	t := report.New("Interconnect — §5.7 line sharing and bus alternative",
		"Ex", "T", "links", "mux inputs (signal)", "mux inputs (shared)", "buses")
	jobs := firstConstraintJobs(nil)
	err := parRows(ctx, t, len(jobs), func(i int) ([]interface{}, error) {
		ex, cs := jobs[i].ex, jobs[i].cs
		res, err := mfsa.SynthesizeCtx(ctx, ex.Graph, mfsa.Options{CS: cs, ClockNs: ex.ClockNs})
		if err != nil {
			return nil, err
		}
		ic, err := rtl.AnalyzeInterconnect(ex.Graph, res.Schedule, res.Datapath)
		if err != nil {
			return nil, err
		}
		plan, err := rtl.PlanBuses(ex.Graph, res.Schedule, res.Datapath)
		if err != nil {
			return nil, err
		}
		return []interface{}{fmt.Sprintf("#%d %s", ex.Num, ex.Name), cs,
			ic.NumLinks, ic.SignalInputs, ic.EffectiveInputs, plan.Buses}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
