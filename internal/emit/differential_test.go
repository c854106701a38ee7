package emit_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/emit"
	"repro/internal/gen"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/sim"
)

// diffCase is one design of the differential corpus.
type diffCase struct {
	name string
	d    *core.Design
}

// corpus synthesizes every design the emitter is compared on: the paper
// graphs under both styles at cs = cp..cp+3 with and without registered
// inputs, a functionally pipelined and a pipelined-unit variant, the
// designs/*.hls sources, the two naming-collision graphs and two
// generated 2k-node designs.
func corpus(t *testing.T) []diffCase {
	t.Helper()
	var out []diffCase
	add := func(name string, g *dfg.Graph, cfg core.Config) {
		t.Helper()
		d, err := core.Synthesize(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, diffCase{name, d})
	}
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for style := 1; style <= 2; style++ {
			for cs := cp; cs <= cp+3; cs++ {
				for _, regIn := range []bool{false, true} {
					add(fmt.Sprintf("%s/style%d/cs%d/regin=%v", ex.Name, style, cs, regIn), ex.Graph,
						core.Config{CS: cs, Style: style, ClockNs: ex.ClockNs, RegisterInputs: regIn})
				}
			}
		}
		if ex.Latency != nil {
			cs := ex.TimeConstraints[0]
			add(fmt.Sprintf("%s/latency", ex.Name), ex.Graph,
				core.Config{CS: cs, ClockNs: ex.ClockNs, Latency: ex.Latency(cs)})
		}
		if len(ex.PipelinedOps) > 0 {
			add(fmt.Sprintf("%s/pipelined", ex.Name), ex.Graph,
				core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs, PipelinedOps: ex.PipelinedOps})
		}
	}
	files, err := filepath.Glob("../../designs/*.hls")
	if err != nil || len(files) == 0 {
		t.Fatalf("designs/*.hls: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for cs := 2; cs <= 13; cs++ {
			d, err := core.SynthesizeSource(string(src), core.Config{CS: cs, Optimize: true})
			if err != nil {
				continue // below the critical path
			}
			found = true
			out = append(out, diffCase{fmt.Sprintf("%s/cs%d", filepath.Base(f), cs), d})
		}
		if !found {
			t.Fatalf("%s synthesizes at no cs in 2..13", f)
		}
	}
	add("collide", emit.NamerCollisionGraph(t), core.Config{CS: 4})
	add("probe", emit.CollisionProbe(t), core.Config{CS: 8})
	for name, g := range generated(t) {
		add(name, g, core.Config{CS: g.CriticalPathCycles() + 4})
	}
	return out
}

// generated returns the two 2k-node designs the scale netlist pins use.
func generated(t testing.TB) map[string]*dfg.Graph {
	t.Helper()
	rand, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fir, err := gen.FIR(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dfg.Graph{"gen2000": rand, "fir1024": fir}
}

// sameText reports the first line where got and want differ.
func sameText(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s: line %d is %q, reference %q", what, i+1, g, w)
			return
		}
	}
}

// TestVerilogMatchesReference compares the netlist and the testbench
// byte for byte with the fmt-based reference emitter on the corpus.
func TestVerilogMatchesReference(t *testing.T) {
	for _, c := range corpus(t) {
		d := c.d
		sameText(t, c.name+" netlist",
			emit.Verilog(d.Graph, d.Schedule, d.Datapath, d.Controller),
			emit.RefVerilog(d.Graph, d.Schedule, d.Datapath, d.Controller))
		vectors := []map[string]int64{sim.RandomInputs(d.Graph, 1), sim.RandomInputs(d.Graph, 2)}
		got, err := emit.Testbench(d.Graph, d.Schedule, vectors)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := emit.RefTestbench(d.Graph, d.Schedule, vectors)
		if err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		sameText(t, c.name+" testbench", got, want)
	}
}

// TestNamesOutsideTheGraphMatchReference covers the names no slot
// holds: a register write of a signal the graph lacks, into a register
// the datapath lacks, an action on an ALU the datapath lacks, and a
// vector key that is not an input. Only a hand-built controller or
// vector carries them; the emitter names them at first use as the
// reference does.
func TestNamesOutsideTheGraphMatchReference(t *testing.T) {
	ex := benchmarks.Facet()
	d, err := core.Synthesize(ex.Graph, core.Config{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := *d.Controller
	c.States = append([]ctrl.State(nil), c.States...)
	st := &c.States[len(c.States)-1]
	ghost := dfg.SignalID(d.Graph.NumSignals())
	st.Writes = append(append([]ctrl.RegWrite(nil), st.Writes...),
		ctrl.RegWrite{Reg: len(d.Datapath.Registers) + 1, Signal: ghost},
		ctrl.RegWrite{Reg: 0, Signal: ghost},
		ctrl.RegWrite{Reg: -1, Signal: dfg.NoSignal})
	st.Actions = append([]ctrl.Action(nil), st.Actions...)
	st.Actions[0].ALU = len(d.Datapath.ALUs)
	sameText(t, "netlist", emit.Verilog(d.Graph, d.Schedule, d.Datapath, &c),
		emit.RefVerilog(d.Graph, d.Schedule, d.Datapath, &c))

	vec := sim.RandomInputs(d.Graph, 1)
	vec["extra"], vec["i1_"] = 7, -3
	got, err := emit.Testbench(d.Graph, d.Schedule, []map[string]int64{vec, vec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := emit.RefTestbench(d.Graph, d.Schedule, []map[string]int64{vec, vec})
	if err != nil {
		t.Fatal(err)
	}
	sameText(t, "testbench", got, want)
}

// TestVerilogAllocs pins the emitter's allocation budget on the two
// generated designs: at most 4 bytes allocated per netlist byte and 3
// allocations per graph signal (input or node). The fmt-based emitter
// takes 9.1–9.9 bytes and 18.7–22.6 allocations.
func TestVerilogAllocs(t *testing.T) {
	for name, g := range generated(t) {
		d, err := core.Synthesize(g, core.Config{CS: g.CriticalPathCycles() + 4})
		if err != nil {
			t.Fatal(err)
		}
		var net string
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			net = emit.Verilog(d.Graph, d.Schedule, d.Datapath, d.Controller)
		}
		runtime.ReadMemStats(&after)
		signals := float64(len(g.Inputs()) + g.Len())
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(net))
		perSignal := float64(after.Mallocs-before.Mallocs) / runs / signals
		if perByte > 4 || perSignal > 3 {
			t.Errorf("%s: %.2f bytes allocated per netlist byte (budget 4), %.2f allocations per signal (budget 3)",
				name, perByte, perSignal)
		}
		t.Logf("%s: %d-byte netlist, %.2f bytes allocated per byte, %.2f allocations per signal",
			name, len(net), perByte, perSignal)
	}
}

// netlistSink keeps the benchmarked calls' results alive.
var netlistSink string

// BenchmarkVerilog times the emitter against the fmt-based reference on
// the two generated designs:
//
//	go test -run NONE -bench Verilog -benchmem ./internal/emit
func BenchmarkVerilog(b *testing.B) {
	for name, g := range generated(b) {
		d, err := core.Synthesize(g, core.Config{CS: g.CriticalPathCycles() + 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range []struct {
			name string
			fn   func(*dfg.Graph, *sched.Schedule, *rtl.Datapath, *ctrl.Controller) string
		}{{"append", emit.Verilog}, {"reference", emit.RefVerilog}} {
			b.Run(name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					netlistSink = e.fn(d.Graph, d.Schedule, d.Datapath, d.Controller)
				}
			})
		}
	}
}
