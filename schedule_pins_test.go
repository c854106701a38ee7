package hls_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
	"repro/internal/mfs"
	"repro/internal/mfsa"
	"repro/internal/sched"
)

// pinGraph is one corpus entry of the schedule and trace pins: a graph,
// a time constraint, and the features its own configuration enables.
type pinGraph struct {
	key     string
	g       *dfg.Graph
	cs      int
	clockNs float64
	latency int
	piped   []string // op symbols on structurally pipelined units
}

// pinCorpus is the paper graphs at each Table 1 time constraint with
// their own chaining, latency and pipelining, the designs/*.hls sources
// at cp and cp+2, two generated graphs and a 64-tap FIR at cp+4.
func pinCorpus(t *testing.T) []pinGraph {
	t.Helper()
	var out []pinGraph
	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			pg := pinGraph{key: fmt.Sprintf("%s/cs%d", ex.Name, cs), g: ex.Graph, cs: cs,
				clockNs: ex.ClockNs, piped: ex.PipelinedOps}
			if ex.Latency != nil {
				pg.latency = ex.Latency(cs)
			}
			out = append(out, pg)
		}
	}
	files, err := filepath.Glob("designs/*.hls")
	if err != nil || len(files) == 0 {
		t.Fatalf("designs/*.hls: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		g, _, _, err := behav.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cp := g.CriticalPathCycles()
		for _, cs := range []int{cp, cp + 2} {
			out = append(out, pinGraph{key: fmt.Sprintf("%s/cs%d", filepath.Base(f), cs), g: g, cs: cs})
		}
	}
	for _, n := range []int{300, 2000} {
		g, err := gen.Generate(gen.Config{Nodes: n, MulCycles: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pinGraph{key: fmt.Sprintf("gen%d", n), g: g, cs: g.CriticalPathCycles() + 4})
	}
	fir, err := gen.FIR(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, pinGraph{key: "fir64", g: fir, cs: fir.CriticalPathCycles() + 4})
}

// mfsTime is the graph's own time-constrained MFS run. Its instance
// counts are the limits of the resource-constrained and list runs, and
// its schedule is what Allocate binds.
func mfsTime(pg pinGraph) (*sched.Schedule, error) {
	opt := mfs.Options{CS: pg.cs, ClockNs: pg.clockNs, Latency: pg.latency}
	if len(pg.piped) > 0 {
		opt.PipelinedTypes = map[string]bool{}
		for _, sym := range pg.piped {
			opt.PipelinedTypes[sym] = true
		}
	}
	return mfs.Schedule(pg.g, opt)
}

// mfsaRun is an MFSA run on the graph's own features, edited by tweak.
func mfsaRun(tweak func(pg pinGraph, o *mfsa.Options)) func(pinGraph) (*sched.Schedule, error) {
	return func(pg pinGraph) (*sched.Schedule, error) {
		o := mfsa.Options{CS: pg.cs, ClockNs: pg.clockNs, Latency: pg.latency, UsePipelinedUnits: len(pg.piped) > 0}
		if tweak != nil {
			tweak(pg, &o)
		}
		r, err := mfsa.Synthesize(pg.g, o)
		if err != nil {
			return nil, err
		}
		return r.Schedule, nil
	}
}

// scheduleRuns are the engine configurations the pins cover, by name.
var scheduleRuns = []struct {
	name string
	run  func(pinGraph) (*sched.Schedule, error)
}{
	{"mfs/time", mfsTime},
	{"mfs/resource", func(pg pinGraph) (*sched.Schedule, error) {
		s, err := mfsTime(pg)
		if err != nil {
			return nil, err
		}
		return mfs.Schedule(pg.g, mfs.Options{Limits: s.InstancesPerType(), ClockNs: pg.clockNs})
	}},
	{"mfsa/style1", mfsaRun(nil)},
	{"mfsa/style2", mfsaRun(func(_ pinGraph, o *mfsa.Options) { o.Style = mfsa.Style2 })},
	{"mfsa/chain", mfsaRun(func(_ pinGraph, o *mfsa.Options) {
		if o.ClockNs == 0 {
			o.ClockNs = 100
		}
	})},
	{"mfsa/latency", mfsaRun(func(pg pinGraph, o *mfsa.Options) {
		if o.Latency == 0 {
			o.Latency, o.UsePipelinedUnits = (pg.cs+1)/2, true
		}
	})},
	{"mfsa/pipelined", mfsaRun(func(_ pinGraph, o *mfsa.Options) {
		// One plain multiplier: the rest of the multiplications grow
		// into the pipelined cell or a multi-function ALU.
		o.UsePipelinedUnits, o.Limits = true, map[string]int{"fu_mul": 1}
	})},
	{"mfsa/weights", mfsaRun(func(_ pinGraph, o *mfsa.Options) { o.Weights = mfsa.Weights{Time: 1, ALU: 50, Mux: 2, Reg: 0.5} })},
	{"mfsa/allocate", func(pg pinGraph) (*sched.Schedule, error) {
		s, err := mfsTime(pg)
		if err != nil {
			return nil, err
		}
		r, err := mfsa.Allocate(s, mfsa.Options{UsePipelinedUnits: len(pg.piped) > 0})
		if err != nil {
			return nil, err
		}
		return r.Schedule, nil
	}},
	{"list", func(pg pinGraph) (*sched.Schedule, error) {
		s, err := mfsTime(pg)
		if err != nil {
			return nil, err
		}
		return baseline.List(pg.g, s.InstancesPerType())
	}},
	{"fds", func(pg pinGraph) (*sched.Schedule, error) { return baseline.ForceDirected(pg.g, pg.cs) }},
	{"asap", func(pg pinGraph) (*sched.Schedule, error) { return baseline.ASAP(pg.g) }},
}

// renderSchedule writes s by name: every placement in NodeID order, then
// every trace step's node, type, window, FU estimates, position and
// energy bits, each followed, when cands is set, by its candidates'
// positions, unit names and energy bits.
func renderSchedule(b *strings.Builder, s *sched.Schedule, cands bool) {
	g := s.Graph
	fmt.Fprintf(b, "cs=%d\n", s.CS)
	for _, n := range g.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			fmt.Fprintf(b, "%s -\n", n.Name)
			continue
		}
		fmt.Fprintf(b, "%s %d %s %d\n", n.Name, p.Step, p.Type, p.Index)
	}
	if s.Trace == nil {
		return
	}
	tr := s.Trace
	for _, st := range tr.Steps {
		fmt.Fprintf(b, "> %s %s [%d,%d] ff%d j%d/%d @%d,%d %x\n", g.Node(st.Node).Name, st.Type,
			st.Lo, st.Hi, st.FFTop, st.CurrentJ, st.MaxJ, st.Pos.Step, st.Pos.Index, math.Float64bits(st.Energy))
		if !cands {
			continue
		}
		for _, c := range st.Candidates {
			fmt.Fprintf(b, "  %d,%d %s %x\n", c.Pos().Step, c.Pos().Index, tr.Units[c.Unit], math.Float64bits(c.Energy))
		}
	}
}

// scheduleTracePins are SHA-256 values, one per engine configuration,
// over renderSchedule of its run on every pinCorpus graph (a failed run
// renders its error). They pin every placement and every recorded
// decision with its scored candidates, so a change to how schedules or
// traces are stored that moves any of them fails here by name.
var scheduleTracePins = map[string]string{
	"mfs/time":       "498956926ee59c2f11efe9ae1e6df84dbafacc4fabe458523cdfa19c0c7b6f9e",
	"mfs/resource":   "b9e655092a81d1af328570ab322b21adc9a4bc9cf3821935a22d6cb45b3b113c",
	"mfsa/style1":    "0e6014141cc3967c8330cb85ccc10228b474fd1088e1b3dc2a4570da3cc6178f",
	"mfsa/style2":    "adcbb27ce0ae214754f88cb91bba54416bcef659e156947218c9f1aac33f6969",
	"mfsa/chain":     "b84fa07a4ad3cf914fbcb22116131430c4714e0370cbc3967338a63d0ad4a729",
	"mfsa/latency":   "3ff5496c278fc926d56a5f48456a3672329c1450bae96c73728d2ed8b0bf4656",
	"mfsa/pipelined": "f88facd4bcb457c71f5116b6977a5ee2a6aaf299911bcb99913f7ddeda0906ae",
	"mfsa/weights":   "cc63d22c16fd8fa19369b09ede303942e528eeb393a8e9a1fb95981d7faee99a",
	"mfsa/allocate":  "3d100aa93a3dc6bc29055de69384626f6d16a784edb053d35d1e59e5b45f9a51",
	"list":           "8c6258a197ab8c3dd30200facb1481ee4dc5d9991aad9202fdc177c305cea41a",
	"fds":            "facb9866c4d6855ade266bcb52988ac32e5f3822c0ba31e588c6bca72d17f2da",
	"asap":           "4227a696f97f0d3eb3cf3a4bdd7f817cbfe57de850ba5c6aeba558a00238734e",
}

// scheduleDecisionPins hash the same renders without the candidate
// lines: every placement and every decision's node, type, window,
// current_j/max_j, position and energy bits. A search that scores fewer
// candidates but decides the same moves only scheduleTracePins.
var scheduleDecisionPins = map[string]string{
	"mfs/time":       "498956926ee59c2f11efe9ae1e6df84dbafacc4fabe458523cdfa19c0c7b6f9e",
	"mfs/resource":   "b9e655092a81d1af328570ab322b21adc9a4bc9cf3821935a22d6cb45b3b113c",
	"mfsa/style1":    "4d62839e02bd0503d82b9244e338d3cb1df6dd0c4c52e356c8d71c3ca36d5113",
	"mfsa/style2":    "771e1878c3c90d06b20320880b66bca98e95d1dfe8bd1fdd111116991e2b5a6b",
	"mfsa/chain":     "1b41d8516c19a700638fdcfc65d28b022276e40912c2be0b73cbbca01e1ecf1e",
	"mfsa/latency":   "a10c5c17cf93f176ff6b9b99fdae4e95f4b0fd84e72ebeaf5ecd106f90e7312e",
	"mfsa/pipelined": "a340b9e6d6e58af9221d5e720d2972f4eb8f266a07851ebebe51ca65ec0391e7",
	"mfsa/weights":   "66c848b336ed96525fa8461038028ae167c12277586dd5f6254ab895e3ffd7fb",
	"mfsa/allocate":  "ff148cd4e0d57c878474b487e1fce1e2f53114217de4304c81663f2d2dd0a1da",
	"list":           "8c6258a197ab8c3dd30200facb1481ee4dc5d9991aad9202fdc177c305cea41a",
	"fds":            "facb9866c4d6855ade266bcb52988ac32e5f3822c0ba31e588c6bca72d17f2da",
	"asap":           "4227a696f97f0d3eb3cf3a4bdd7f817cbfe57de850ba5c6aeba558a00238734e",
}

func TestScheduleTraceGoldenPins(t *testing.T) {
	corpus := pinCorpus(t)
	for _, r := range scheduleRuns {
		var full, decisions strings.Builder
		for _, pg := range corpus {
			for _, b := range []*strings.Builder{&full, &decisions} {
				fmt.Fprintf(b, "== %s\n", pg.key)
			}
			s, err := r.run(pg)
			if err != nil {
				for _, b := range []*strings.Builder{&full, &decisions} {
					fmt.Fprintf(b, "error: %v\n", err)
				}
				continue
			}
			renderSchedule(&full, s, true)
			renderSchedule(&decisions, s, false)
		}
		for _, pin := range []struct {
			what string
			text string
			want map[string]string
		}{{"trace", full.String(), scheduleTracePins}, {"decisions", decisions.String(), scheduleDecisionPins}} {
			sum := sha256.Sum256([]byte(pin.text))
			if got := hex.EncodeToString(sum[:]); got != pin.want[r.name] {
				t.Errorf("%s %q: %q, // pinned %q", pin.what, r.name, got, pin.want[r.name])
			}
		}
	}
}
