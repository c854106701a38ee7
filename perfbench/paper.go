package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/opt"
	"repro/internal/sim"
)

// The paper workload's op is one verified pass over the paper's
// evaluation (§6): the Table 1 MFS rows, time- and resource-constrained;
// every example at each Table 1 time constraint at or above its
// critical path, with its feature, through MFSA in both datapath
// styles with the lint gate and a simulation self-check; and the
// behavioral designs through the optimizing frontend.
const (
	paperDesigns = "designs" // *.hls sources, relative to the repository root
	paperPassMs  = 100
)

type jobKind int

const (
	jobMFS    jobKind = iota // core.ScheduleOnlyCtx
	jobMFSA                  // core.SynthesizeCtx + Design.SelfCheck
	jobSource                // core.SynthesizeSourceCtx + Design.SelfCheck
)

type paperJob struct {
	kind jobKind
	name string
	g    *dfg.Graph // nil for source jobs
	src  string
	cfg  core.Config
}

// paperRec is what one op (one pass) produced.
type paperRec struct {
	cost  float64 // Σ Cost.Total over the pass's MFSA and source jobs
	steps int     // Σ schedule length over all its jobs
	err   error   // first job failure
}

type paperBench struct {
	jobs []paperJob // one pass, in op order
	recs []paperRec
	want paperRec // what the warm pass produced
	// Per-pass work and quality over the distinct synthesized designs.
	nodes, netlistBytes int
	area                float64
	hash                [sha256.Size]byte
}

// paperJobs lists the evaluation in a fixed order; the seed only
// shuffles it.
func paperJobs(ctx context.Context, seed int64) ([]paperJob, error) {
	var jobs []paperJob
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for _, cs := range ex.TimeConstraints {
			lat := 0
			if ex.Latency != nil {
				lat = ex.Latency(cs)
			}
			tc := core.Config{CS: cs, ClockNs: ex.ClockNs, Latency: lat, Lint: true}
			s, err := mfs.ScheduleCtx(ctx, ex.Graph, mfs.Options{CS: cs, ClockNs: ex.ClockNs, Latency: lat})
			if err != nil {
				return nil, fmt.Errorf("%s T=%d: %w", ex.Name, cs, err)
			}
			rc := core.Config{Limits: s.InstancesPerType(), ClockNs: ex.ClockNs, Lint: true}
			name := fmt.Sprintf("%s/T=%d", ex.Name, cs)
			jobs = append(jobs, paperJob{kind: jobMFS, name: name + "/mfs", g: ex.Graph, cfg: tc},
				paperJob{kind: jobMFS, name: name + "/mfs-rc", g: ex.Graph, cfg: rc})
			if len(ex.PipelinedOps) > 0 {
				piped := tc
				piped.PipelinedOps = ex.PipelinedOps
				jobs = append(jobs, paperJob{kind: jobMFS, name: name + "/mfs-piped", g: ex.Graph, cfg: piped})
			}
			if cs < cp {
				continue
			}
			for _, style := range []int{1, 2} {
				c := tc
				c.PipelinedOps, c.Style = ex.PipelinedOps, style
				jobs = append(jobs, paperJob{kind: jobMFSA, name: fmt.Sprintf("%s/style%d", name, style), g: ex.Graph, cfg: c})
			}
		}
	}
	srcs, err := readDesigns()
	if err != nil {
		return nil, err
	}
	for _, d := range srcs {
		g, _, err := frontend(d.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		cp := g.CriticalPathCycles()
		for _, cs := range []int{cp, cp + 2} {
			jobs = append(jobs, paperJob{kind: jobSource, name: fmt.Sprintf("%s/T=%d", d.name, cs),
				src: d.src, cfg: core.Config{CS: cs, Optimize: true, Lint: true}})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

type designSource struct{ name, src string }

// readDesigns reads the behavioral sources under designs/, by file name.
func readDesigns() ([]designSource, error) {
	files, err := filepath.Glob(filepath.Join(paperDesigns, "*.hls"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no %s/*.hls sources: run from the repository root", paperDesigns)
	}
	sort.Strings(files)
	out := make([]designSource, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out[i] = designSource{name: filepath.Base(f), src: string(src)}
	}
	return out, nil
}

// hashJobs hashes the pass's jobs in order.
func hashJobs(jobs []paperJob) [sha256.Size]byte {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%d %s %q %+v\n", j.kind, j.name, j.src, j.cfg)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// frontend is core's Optimize frontend: behav.Compile, then opt.Pipeline.
func frontend(src string) (*dfg.Graph, map[string]int64, error) {
	g, consts, outputs, err := behav.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := opt.Pipeline(g, consts, outputs)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res.Consts, nil
}

func setupPaper(ctx context.Context, seed int64, passes int) (bench, error) {
	jobs, err := paperJobs(ctx, seed)
	if err != nil {
		return nil, err
	}
	b := &paperBench{jobs: jobs, recs: make([]paperRec, passes), hash: hashJobs(jobs)}
	// The warm pass also measures each design's work and quality.
	for _, j := range jobs {
		d, err := runJob(ctx, j)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		b.want.steps += d.Schedule.CS
		if d.Datapath == nil {
			continue
		}
		nl, err := d.Netlist()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		b.want.cost += d.Cost.Total
		b.area += d.Cost.Total
		b.nodes += d.Graph.Len()
		b.netlistBytes += len(nl)
	}
	return b, nil
}

// runJob is the product path for one job.
func runJob(ctx context.Context, j paperJob) (*core.Design, error) {
	var d *core.Design
	var err error
	switch j.kind {
	case jobMFS:
		return core.ScheduleOnlyCtx(ctx, j.g, j.cfg)
	case jobMFSA:
		d, err = core.SynthesizeCtx(ctx, j.g, j.cfg)
	default:
		d, err = core.SynthesizeSourceCtx(ctx, j.src, j.cfg)
	}
	if err != nil {
		return nil, err
	}
	return d, d.SelfCheck(0)
}

func (b *paperBench) passOps() int                    { return 1 }
func (b *paperBench) cacheCounters() (uint64, uint64) { return 0, 0 }
func (b *paperBench) inputHash() [sha256.Size]byte    { return b.hash }

func (b *paperBench) op(ctx context.Context, i int, tr *tracer, root int) error {
	var rec paperRec
	for _, j := range b.jobs {
		var cost float64
		var steps int
		var err error
		if tr == nil {
			var d *core.Design
			if d, err = runJob(ctx, j); err == nil {
				cost, steps = d.Cost.Total, d.Schedule.CS
			}
		} else {
			cost, steps, err = tracedJob(ctx, tr, i, root, j)
		}
		if err != nil {
			if rec.err == nil {
				rec.err = fmt.Errorf("%s: %w", j.name, err)
			}
			continue
		}
		rec.cost += cost
		rec.steps += steps
	}
	b.recs[i] = rec
	return rec.err
}

// tracedJob makes the public calls runJob's entry points make, one span
// each, with the lint gate split into its equivalence analyzer and the
// rest. It returns the design's cost (0 for an MFS row) and schedule
// length.
func tracedJob(ctx context.Context, tr *tracer, i, parent int, j paperJob) (float64, int, error) {
	g, consts := j.g, map[string]int64(nil)
	if j.kind == jobSource {
		var outputs []string
		var base *dfg.Graph
		if err := tr.do("behav", i, parent, func() (err error) {
			base, consts, outputs, err = behav.Compile(j.src)
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := tr.do("opt", i, parent, func() error {
			res, err := opt.Pipeline(base, consts, outputs)
			if err != nil {
				return err
			}
			g, consts = res.Graph, res.Consts
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}
	unit := &lint.Unit{Graph: g, Limits: j.cfg.Limits, Style2: j.cfg.Style == 2}
	var dp *mfsa.Result
	if j.kind == jobMFS {
		if err := tr.do("mfs", i, parent, func() (err error) {
			unit.Schedule, err = mfs.ScheduleCtx(ctx, g, mfsOptions(j.cfg))
			return err
		}); err != nil {
			return 0, 0, err
		}
	} else {
		t, err := tracedSynth(ctx, tr, i, parent, g, mfsaOptions(j.cfg))
		if err != nil {
			return 0, 0, err
		}
		dp = t.res
		unit.Schedule, unit.Datapath, unit.Controller, unit.Netlist = t.res.Schedule, t.res.Datapath, t.ctrl, t.netlist
	}
	if err := tracedLint(ctx, tr, i, parent, unit, j.cfg.Parallelism); err != nil {
		return 0, 0, err
	}
	if dp == nil {
		return 0, unit.Schedule.CS, nil
	}
	if err := tr.do("sim", i, parent, func() error {
		return sim.CrossCheckSeedsCtx(ctx, dp.Schedule, dp.Datapath, 0, consts)
	}); err != nil {
		return 0, 0, fmt.Errorf("self-check %w", err)
	}
	return dp.Cost.Total, dp.Schedule.CS, nil
}

// nonEquiv names every lint analyzer except the equivalence checker.
var nonEquiv = func() []string {
	var names []string
	for _, a := range lint.Analyzers() {
		if a.Name != "equiv" {
			names = append(names, a.Name)
		}
	}
	return names
}()

// tracedLint is core's lint gate as two runs: every analyzer but equiv,
// then equiv alone. Any error-severity finding fails the job.
func tracedLint(ctx context.Context, tr *tracer, i, parent int, u *lint.Unit, parallelism int) error {
	for _, pass := range []struct {
		span      string
		analyzers []string
	}{{"lint", nonEquiv}, {"lint.equiv", []string{"equiv"}}} {
		var ds diag.List
		if err := tr.do(pass.span, i, parent, func() (err error) {
			ds, err = lint.RunCtx(ctx, u, lint.Options{Analyzers: pass.analyzers, Parallelism: parallelism})
			return err
		}); err != nil {
			return err
		}
		for _, x := range ds {
			if x.Severity >= diag.Error {
				return fmt.Errorf("lint: %s", x.Message)
			}
		}
	}
	return nil
}

// mfsOptions and mfsaOptions mirror core's translation of a Config.
func mfsOptions(cfg core.Config) mfs.Options {
	piped := make(map[string]bool, len(cfg.PipelinedOps))
	for _, sym := range cfg.PipelinedOps {
		piped[sym] = true
	}
	return mfs.Options{CS: cfg.CS, Limits: cfg.Limits, ClockNs: cfg.ClockNs, Latency: cfg.Latency,
		PipelinedTypes: piped, Parallelism: cfg.Parallelism}
}

func mfsaOptions(cfg core.Config) mfsa.Options {
	return mfsa.Options{CS: cfg.CS, Style: mfsa.Style(cfg.Style), ClockNs: cfg.ClockNs, Latency: cfg.Latency,
		UsePipelinedUnits: len(cfg.PipelinedOps) > 0, Limits: cfg.Limits}
}

// check compares every pass's total cost and schedule length to the
// warm pass; the lint gate and the self-check already ran inside each op.
func (b *paperBench) check(ctx context.Context, n int) (*report, error) {
	rep := &report{failed: make([]bool, n), nodes: make([]int, n), netlistBytes: make([]int, n),
		areaPerNode: b.area / float64(b.nodes)}
	for i := 0; i < n; i++ {
		rep.failed[i] = b.recs[i].err != nil || b.recs[i].cost != b.want.cost || b.recs[i].steps != b.want.steps
		rep.nodes[i] = b.nodes
		rep.netlistBytes[i] = b.netlistBytes
	}
	return rep, nil
}
