// Command perfbench is the repository's benchmark: three closed-loop
// workloads (scale, paper, serve) that drive the synthesis engine and the
// hlsd handler in process, check every output, and print end-to-end
// metrics, or, with --trace 1, per-layer self times from spans recorded
// around each layer's public calls. See README.md for the workloads,
// the metrics and which layer metric should move which end-to-end one.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one workload prepared for a run: its inputs are generated,
// encoded, cached and warmed by one untimed pass.
type bench interface {
	// passOps is the number of ops in one pass over the inputs.
	passOps() int
	// op runs op i of the run's fixed op sequence. With a tracer it
	// makes the layers' public calls itself, one span each under root.
	op(ctx context.Context, i int, tr *tracer, root int) error
	// check runs the output checks over ops [0, n) after the timed
	// loops; none of it is timed.
	check(ctx context.Context, n int) (*report, error)
	// cacheCounters returns the result cache's hit and miss counts, or
	// zeros for a workload without a cache.
	cacheCounters() (hits, misses uint64)
	// inputHash is the SHA-256 of the encoded inputs and op sequence.
	inputHash() [sha256.Size]byte
}

// report is what a workload's output checks found, per op of the run.
type report struct {
	failed       []bool  // op i failed its output check
	nodes        []int   // graph nodes op i synthesized with mfsa
	netlistBytes []int   // netlist bytes op i emitted
	areaPerNode  float64 // Σ datapath Cost.Total / Σ graph nodes over the distinct designs
}

// workload describes how to set up one benchmark workload.
type workload struct {
	name    string
	clients int
	// passMs is the nominal wall time of one pass on the reference host
	// (see README.md). A run makes ceil(seconds·1000/passMs) passes, so
	// runs of one build do identical work whatever the host's speed.
	passMs float64
	setup  func(ctx context.Context, seed int64, passes int) (bench, error)
}

var workloads = []workload{
	{name: "scale", clients: 1, passMs: scalePassMs, setup: setupScale},
	{name: "paper", clients: 1, passMs: paperPassMs, setup: setupPaper},
	{name: "serve", clients: 2, passMs: servePassMs, setup: setupServe},
}

// setupRepeats is how many times an untraced run sets up its workload;
// setup_s is the median.
const setupRepeats = 3

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is printed before the result so a slow host can be told
// apart from a slow program.
type runRecord struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       int     `json:"trace"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Clients     int     `json:"clients"`
	Passes      int     `json:"passes"`
	Ops         int     `json:"ops"`
	InputSHA256 string  `json:"input_sha256"`
	TailPct     float64 `json:"tail_percentile"`
	StealFrac   float64 `json:"steal_frac"`
	FailRatio   float64 `json:"fail_ratio"`
	// Speed is the timed loop's mean host speed (1 = the reference
	// speed, see calibrate.go), from Kernels calibration kernel runs;
	// the raw figures behind the metrics scaled by it follow.
	Speed       float64 `json:"speed"`
	Kernels     int     `json:"kernels"`
	WallOpsPerS float64 `json:"wall_ops_per_s"`
	WallP50Ms   float64 `json:"wall_op_ms_p50"`
	WallTailMs  float64 `json:"wall_op_ms_tail"`
	WallCPUMsOp float64 `json:"wall_cpu_ms_per_op"`
	// SetupWallS, SetupSpeed and SetupSteal give every set-up's wall
	// seconds, host speed and steal share; CheckS is the output checks'
	// wall seconds.
	SetupWallS []float64 `json:"setup_wall_s"`
	SetupSpeed []float64 `json:"setup_speed"`
	SetupSteal []float64 `json:"setup_steal_frac"`
	CheckS     float64   `json:"check_s"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scale, paper or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "nominal length of the timed part")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload scale|paper|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	var (
		res *result
		rec *runRecord
		err error
	)
	if *trace == 0 {
		res, rec, err = runUntraced(ctx, stderr, w, *seed, *seconds)
	} else {
		res, rec, err = runTraced(ctx, stderr, w, *seed, *seconds, *spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printRun(stdout, rec, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// passes is the fixed pass count of a run of the given nominal length.
func passes(w *workload, seconds float64) int {
	return int(math.Max(1, math.Ceil(seconds*1000/w.passMs)))
}

// fill records the run's settings and inputs.
func (rec *runRecord) fill(w *workload, seed int64, trace, np int, b bench) {
	h := b.inputHash()
	rec.Workload, rec.Seed, rec.Trace = w.name, seed, trace
	rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU = runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()
	rec.Clients, rec.Passes, rec.Ops = w.clients, np, np*b.passOps()
	rec.InputSHA256 = hex.EncodeToString(h[:])
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, stderr io.Writer, w *workload, seed int64, seconds float64) (*result, *runRecord, error) {
	np := passes(w, seconds)
	var b bench
	var setups []float64
	rec := &runRecord{}
	for i := 0; i < setupRepeats; i++ {
		b = nil // let the previous set-up's inputs be collected
		su, err := timedSetup(ctx, w, seed, np)
		if err != nil {
			return nil, nil, err
		}
		b = su.b
		rec.SetupWallS = append(rec.SetupWallS, su.wallS)
		rec.SetupSpeed = append(rec.SetupSpeed, su.speed)
		rec.SetupSteal = append(rec.SetupSteal, su.steal)
		setups = append(setups, su.wallS*su.speed*(1-su.steal))
	}
	rec.fill(w, seed, 0, np, b)
	n := rec.Ops
	lp, err := timedLoop(ctx, b, 0, n, w.clients, nil)
	if err != nil {
		return nil, nil, err
	}
	t0 := now()
	rep, err := b.check(ctx, n)
	if err != nil {
		return nil, nil, fmt.Errorf("output checks: %w", err)
	}
	rec.CheckS = sinceMs(t0) / 1000
	failed := countFailed(stderr, lp, rep, 0, n)
	lat := sortedCopy(lp.ref)
	tp, tv, ok := tail(lat)
	if !ok {
		return nil, nil, fmt.Errorf("%d ops leave no percentile with %d samples beyond it", n, tailBeyond)
	}
	wall := sortedCopy(lp.lat)
	_, wallTail, _ := tail(wall)
	st := lp.stats
	rec.TailPct, rec.StealFrac = tp, st.stealFrac
	rec.FailRatio = float64(failed) / float64(n)
	rec.Speed, rec.Kernels = st.speed, st.kernels
	rec.WallOpsPerS, rec.WallP50Ms, rec.WallTailMs = float64(n)/st.wallS, percentile(wall, 50), wallTail
	rec.WallCPUMsOp = st.rawCPUMsOp
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ops_per_s":         {st.opsPerS, "1/s"},
		"op_ms_p50":         {percentile(lat, 50), "ms"},
		"op_ms_tail":        {tv, "ms"},
		"cpu_ms_per_op":     {st.cpuMsPerOp, "ms"},
		"alloc_kb_per_op":   {st.allocKBOp, "KB"},
		"peak_rss_mb":       {lp.peakRSSMB, "MB"},
		"qor_area_per_node": {rep.areaPerNode, "um2"},
	}
	return &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, rec, nil
}

// setupRun is one timed set-up: the prepared workload, its wall
// seconds, the host speed during it and the share of its time the
// hypervisor stole.
type setupRun struct {
	b     bench
	wallS float64
	speed float64
	steal float64
}

// timedSetup sets the workload up while a pacer measures the host's
// speed.
func timedSetup(ctx context.Context, w *workload, seed int64, np int) (*setupRun, error) {
	runtime.GC()
	before, err := takeSample()
	if err != nil {
		return nil, err
	}
	p := startPacer()
	b, err := w.setup(ctx, seed, np)
	speed := p.stop()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	after, err := takeSample()
	if err != nil {
		return nil, err
	}
	d := diffSamples(before, after)
	return &setupRun{b: b, wallS: d.wallS, speed: speed, steal: d.stealShare()}, nil
}

// spanMetrics maps span names to the per-layer metric of their summed
// self time per op.
var spanMetrics = map[string]string{
	"sched":             "sched.ms_per_op",
	"mfsa":              "mfsa.ms_per_op",
	"rtl.muxopt":        "rtl.muxopt_ms_per_op",
	"ctrl":              "ctrl.ms_per_op",
	"emit":              "emit.ms_per_op",
	"mfs":               "mfs.ms_per_op",
	"lint":              "lint.ms_per_op",
	"lint.equiv":        "lint.equiv_ms_per_op",
	"sim":               "sim.ms_per_op",
	"behav":             "behav.ms_per_op",
	"opt":               "opt.ms_per_op",
	"dfgio":             "dfgio.ms_per_op",
	"canon.fingerprint": "canon.fingerprint_ms_per_op",
	"canon.canonical":   "canon.canonical_ms_per_op",
}

// runTraced measures the per-layer metrics: an untraced loop over the
// first half of the passes, then a traced loop over the second half.
func runTraced(ctx context.Context, stderr io.Writer, w *workload, seed int64, seconds float64, spansDir string) (*result, *runRecord, error) {
	np := passes(w, seconds)
	half := (np + 1) / 2
	np = 2 * half
	su, err := timedSetup(ctx, w, seed, np)
	if err != nil {
		return nil, nil, err
	}
	b := su.b
	rec := &runRecord{SetupWallS: []float64{su.wallS}, SetupSpeed: []float64{su.speed}, SetupSteal: []float64{su.steal}}
	rec.fill(w, seed, 1, np, b)
	n, mid := rec.Ops, half*b.passOps()

	h0, m0 := b.cacheCounters()
	plain, err := timedLoop(ctx, b, 0, mid, w.clients, nil)
	if err != nil {
		return nil, nil, err
	}
	h1, m1 := b.cacheCounters()
	tr := newTracer()
	traced, err := timedLoop(ctx, b, mid, n, w.clients, tr)
	if err != nil {
		return nil, nil, err
	}
	t1 := now()
	rep, err := b.check(ctx, n)
	if err != nil {
		return nil, nil, fmt.Errorf("output checks: %w", err)
	}
	rec.CheckS = sinceMs(t1) / 1000
	if err := tr.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, nil, fmt.Errorf("spans: %w", err)
	}
	failed := countFailed(stderr, plain, rep, 0, mid) + countFailed(stderr, traced, rep, mid, n)
	tp, _, _ := tail(sortedCopy(plain.lat))
	rec.TailPct, rec.StealFrac = tp, traced.stats.stealFrac
	rec.FailRatio = float64(failed) / float64(n)
	rec.Speed, rec.Kernels = traced.stats.speed, traced.stats.kernels

	// Every span is scaled by its op's speed.
	tracedOps := float64(n - mid)
	m := make(map[string]metric)
	self := tr.selfMs(traced.speedOf)
	for span, name := range spanMetrics {
		m[name] = metric{self[span] / tracedOps, "ms"}
	}
	m["serve.hit_ms_p50"] = metric{median0(tr.durationsMs("serve.hit", traced.speedOf)), "ms"}
	m["serve.miss_ms_p50"] = metric{median0(tr.durationsMs("serve.miss", traced.speedOf)), "ms"}
	var hitRatio float64
	if d := (h1 - h0) + (m1 - m0); d > 0 {
		hitRatio = float64(h1-h0) / float64(d)
	}
	m["serve.hit_ratio"] = metric{hitRatio, "fraction"}
	var nodes, bytes int
	for i := 0; i < mid; i++ {
		nodes += rep.nodes[i]
		bytes += rep.netlistBytes[i]
	}
	m["mfsa.nodes_per_op"] = metric{float64(nodes) / float64(mid), "count"}
	m["emit.netlist_kb_per_op"] = metric{float64(bytes) / 1024 / float64(mid), "KB"}
	m["go.gc_cpu_frac"] = metric{plain.stats.gcCPUFrac, "fraction"}
	m["go.gc_cycles_per_op"] = metric{plain.stats.gcCyclesOp, "count"}
	m["trace.overhead_frac"] = metric{1 - traced.stats.opsPerS/plain.stats.opsPerS, "fraction"}
	return &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, rec, nil
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// loop is one timed loop's outcome.
type loop struct {
	lo        int       // the first op's index
	lat       []float64 // per-op wall latency in ms, by op index − lo
	speed     []float64 // per-op host speed (see opSpeeds) × the share the VM ran, by op index − lo
	ref       []float64 // lat × speed: the latency at the reference speed
	errs      []error   // per-op error, by op index − lo
	stats     loopStats
	peakRSSMB float64 // read when the loop ends, before any output check
}

// speedOf returns op i's host speed.
func (l *loop) speedOf(i int) float64 { return l.speed[i-l.lo] }

// loopStats are the whole-process costs of one timed loop, with the
// calibration kernels' time taken out. Throughput and CPU time are at
// the reference speed; the raw figures sit beside them.
type loopStats struct {
	wallS      float64
	kernels    int     // calibration kernel runs
	speed      float64 // mean kernel speed over the ops, weighted by latency
	opsPerS    float64 // clients / mean op latency at the reference speed
	cpuMsPerOp float64 // at the reference speed
	rawCPUMsOp float64
	allocKBOp  float64
	gcCPUFrac  float64
	gcCyclesOp float64
	stealFrac  float64
}

// timedLoop runs ops [lo, hi) from the given number of closed-loop
// clients: each client takes the next op only after its last one
// returned, and between ops runs the calibration kernel whenever
// calEveryMs have passed since its last one.
func timedLoop(ctx context.Context, b bench, lo, hi, clients int, tr *tracer) (*loop, error) {
	n := hi - lo
	l := &loop{lo: lo, lat: make([]float64, n), ref: make([]float64, n), errs: make([]error, n)}
	start := make([]float64, n)
	units := make([][]calUnit, clients)
	runtime.GC() // start every loop from a collected heap
	before, err := takeSample()
	if err != nil {
		return nil, err
	}
	epoch := before.wall
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k, last := newKernel(), -calEveryMs
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				if sinceMs(epoch)-last >= calEveryMs {
					ms := k.run()
					last = sinceMs(epoch)
					units[c] = append(units[c], calUnit{at: last, ms: ms})
				}
				root := tr.begin("op", i, -1)
				t0 := now()
				l.errs[i-lo] = b.op(ctx, i, tr, root)
				l.lat[i-lo] = sinceMs(t0)
				tr.end(root)
				start[i-lo] = float64(t0.Sub(epoch)) / float64(time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	after, err := takeSample()
	if err != nil {
		return nil, err
	}
	if l.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	// Kernels are timed in CPU time, which has no steal in it, so
	// wall-clock figures are also scaled by the share of the loop the VM
	// ran; CPU figures need no such factor.
	d, ops := diffSamples(before, after), float64(n)
	ran := 1 - d.stealShare()
	all := slices.Concat(units...)
	l.speed = opSpeeds(start, l.lat, all)
	var sumLat, sumRef, kernelMs float64
	for i := range l.lat {
		sumLat += l.lat[i]
		sumRef += l.lat[i] * l.speed[i]
		l.speed[i] *= ran
		l.ref[i] = l.lat[i] * l.speed[i]
	}
	for _, u := range all {
		kernelMs += 2 * u.ms // a kernel runs its work twice and times the second
	}
	st := loopStats{
		wallS:      d.wallS,
		kernels:    len(all),
		speed:      sumRef / sumLat,
		opsPerS:    float64(clients) * ops / (sumRef * ran / 1000),
		rawCPUMsOp: (d.cpuMs - kernelMs) / ops,
		allocKBOp:  float64(d.alloc) / 1024 / ops,
		gcCyclesOp: float64(d.gcCycles) / ops,
		stealFrac:  d.stealShare(),
	}
	st.cpuMsPerOp = st.rawCPUMsOp * st.speed
	if d.allCPU > 0 {
		st.gcCPUFrac = d.gcCPU / d.allCPU
	}
	l.stats = st
	return l, nil
}

// countFailed counts the ops in [lo, hi) that errored or failed their
// output check, and reports the first of them on stderr.
func countFailed(stderr io.Writer, l *loop, rep *report, lo, hi int) int {
	failed := 0
	for i := lo; i < hi; i++ {
		if l.errs[i-lo] == nil && !rep.failed[i] {
			continue
		}
		if failed == 0 {
			fmt.Fprintf(stderr, "perfbench: op %d failed: error %v, output check failed %t\n", i, l.errs[i-lo], rep.failed[i])
		}
		failed++
	}
	return failed
}

func printRun(w io.Writer, rec *runRecord, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g fraction (%d of %d ops)\n", "fail_ratio", rec.FailRatio, res.Failed, res.Attempted)
	line, err := json.Marshal(map[string]*runRecord{"run": rec})
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}
