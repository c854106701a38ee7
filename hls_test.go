package hls_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/mfsa"
)

const quick = `
design quick
input a, b, c
s = a + b
p = s * c
`

func TestFacadeSynthesizeSource(t *testing.T) {
	d, err := hls.SynthesizeSource(quick, hls.Config{CS: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost.Total <= 0 {
		t.Error("no cost")
	}
	net, err := d.Netlist()
	if err != nil || !strings.Contains(net, "module quick") {
		t.Errorf("netlist err=%v", err)
	}
	vals, err := d.Simulate(map[string]int64{"a": 1, "b": 2, "c": 3})
	if err != nil || vals["p"] != 9 {
		t.Errorf("p = %d, err=%v", vals["p"], err)
	}
}

func TestFacadeGraphBuilding(t *testing.T) {
	g := hls.NewGraph("manual")
	if err := g.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	x, err := g.AddOp("x", hls.Add, "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	y, err := g.AddOp("y", hls.Mul, "x", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCycles(y, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Tag(x, hls.CondTag{Cond: 1, Branch: 0}); err != nil {
		t.Fatal(err)
	}
	d, err := hls.ScheduleGraph(g, hls.Config{CS: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SelfCheck(3); err != nil {
		t.Error(err)
	}
	// Resource-constrained mode.
	d2, err := hls.ScheduleGraph(g, hls.Config{Limits: map[string]int{"+": 1, "*": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Schedule.CS < 3 {
		t.Errorf("resource-constrained CS = %d", d2.Schedule.CS)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g, _, err := hls.ParseBehavior(quick)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hls.ForceDirected(g, 3); err != nil {
		t.Error(err)
	}
	if _, err := hls.ListSchedule(g, map[string]int{"+": 1, "*": 1}); err != nil {
		t.Error(err)
	}
	if _, err := hls.ASAPSchedule(g); err != nil {
		t.Error(err)
	}
}

func TestFacadeLibrary(t *testing.T) {
	lib := hls.NCRLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	alu := hls.ComposeALU(hls.Add, hls.Sub)
	if !alu.Can(hls.Add) || !alu.Can(hls.Sub) {
		t.Error("composed ALU broken")
	}
	g, _, err := hls.ParseBehavior(quick)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hls.Synthesize(g, hls.Config{CS: 3, Lib: lib, Style: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SelfCheck(2); err != nil {
		t.Error(err)
	}
}

func TestFacadeRandomInputs(t *testing.T) {
	g, _, err := hls.ParseBehavior(quick)
	if err != nil {
		t.Fatal(err)
	}
	in := hls.RandomInputs(g, 1)
	if len(in) != 3 {
		t.Errorf("inputs = %v", in)
	}
}

func TestFacadeScheduleSourceLoops(t *testing.T) {
	src := `
design l
input x
loop acc cycles 2 binds v = x yields r {
    r = v + 1
}
out = acc * x
`
	d, err := hls.ScheduleSource(src, hls.Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := d.Simulate(map[string]int64{"x": 6})
	if err != nil {
		t.Fatal(err)
	}
	if vals["out"] != 42 {
		t.Errorf("out = %d", vals["out"])
	}
}

func TestFacadeAllocate(t *testing.T) {
	g, _, err := hls.ParseBehavior(quick)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hls.ForceDirected(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hls.Allocate(s, hls.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost.Total <= 0 || d.Controller == nil {
		t.Fatalf("incomplete allocation: %+v", d.Cost)
	}
	if err := d.SelfCheck(3); err != nil {
		t.Error(err)
	}
	// Steps stay put.
	for _, n := range g.Nodes() {
		got, _ := d.Schedule.At(n.ID)
		want, _ := s.At(n.ID)
		if got.Step != want.Step {
			t.Errorf("node %q moved", n.Name)
		}
	}
}

// TestFacadeAllocateHonoursConfig checks that Allocate applies its
// Config as Synthesize does: the Liapunov weights, NoTrace, the Timeout
// and MaxNodes guards, and the lint gate, with the design auditing under
// its style and limits.
func TestFacadeAllocateHonoursConfig(t *testing.T) {
	g := benchmarks.Facet().Graph
	sd, err := hls.ScheduleGraph(g, hls.Config{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := sd.Schedule

	d, err := hls.Allocate(s, hls.Config{Weights: [4]float64{1, 1, 50, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mfsa.Allocate(s, mfsa.Options{Weights: mfsa.Weights{Time: 1, ALU: 1, Mux: 50, Reg: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != want.Cost || d.Cost.Total != 44600 {
		t.Fatalf("mux-weighted cost %+v, want mfsa.Allocate's %+v (44600)", d.Cost, want.Cost)
	}

	if d, err := hls.Allocate(s, hls.Config{NoTrace: true}); err != nil || d.Schedule.Trace != nil {
		t.Fatalf("NoTrace: err = %v, or a trace was recorded", err)
	}
	if _, err := hls.Allocate(s, hls.Config{Timeout: time.Nanosecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Timeout: err = %v, want context.DeadlineExceeded", err)
	}
	var le *hls.LimitError
	if _, err := hls.Allocate(s, hls.Config{MaxNodes: 1}); !errors.As(err, &le) || le.What != "graph nodes" {
		t.Fatalf("MaxNodes: err = %v, want a graph-nodes *hls.LimitError", err)
	}

	cfg := hls.Config{Style: 2, Limits: map[string]int{"fu_mul": 3}, Lint: true}
	d, err = hls.Allocate(s, cfg)
	if err != nil {
		t.Fatalf("style 2 with the lint gate on: %v", err)
	}
	if u := d.LintUnit(); !u.Style2 || !reflect.DeepEqual(u.Limits, cfg.Limits) {
		t.Fatalf("lint unit audits style2=%v limits=%v, want style 2 under %v", u.Style2, u.Limits, cfg.Limits)
	}
}

func TestFacadeSweep(t *testing.T) {
	g, _, err := hls.ParseBehavior(quick)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := hls.Sweep(g, hls.Config{}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || !pts[0].Pareto {
		t.Errorf("sweep = %+v", pts)
	}
}

func TestFacadeCertify(t *testing.T) {
	d, err := hls.SynthesizeSource(quick, hls.Config{CS: 3})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := d.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if cert.Status != "certified" || len(cert.Outputs) == 0 {
		t.Errorf("certificate = %+v", cert)
	}

	// Seed a corruption through the façade's mutation registry and
	// require the refutation to carry a concrete counterexample.
	if got := len(hls.Mutations()); got < 5 {
		t.Fatalf("%d mutations exposed, want >= 5", got)
	}
	u := d.LintUnit()
	if err := hls.ApplyMutation(u, "drop-register"); err != nil {
		t.Fatalf("drop-register: %v", err)
	}
	cert, err = hls.Certify(u)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Status != "refuted" {
		t.Errorf("mutated certificate status = %q, want refuted", cert.Status)
	}
	var cx *hls.Counterexample
	for _, dg := range cert.Diagnostics {
		if dg.Counterexample != nil {
			cx = dg.Counterexample
		}
	}
	if cx == nil {
		t.Errorf("refutation carries no counterexample: %+v", cert.Diagnostics)
	}
}
