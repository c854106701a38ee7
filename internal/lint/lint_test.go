package lint_test

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/lint"
	"repro/internal/pool"
	"repro/internal/sched"
)

// mfsUnit schedules the FACET example with MFS (trace recorded, no
// datapath) and wraps it for linting.
func mfsUnit(t *testing.T) *lint.Unit {
	t.Helper()
	ex := benchmarks.Facet()
	d, err := core.ScheduleOnly(ex.Graph, core.Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	return &lint.Unit{Graph: d.Graph, Schedule: d.Schedule}
}

// mfsaUnit synthesizes the FACET example end to end (schedule, datapath,
// controller, netlist) and wraps every artifact for linting.
func mfsaUnit(t *testing.T) *lint.Unit {
	t.Helper()
	ex := benchmarks.Facet()
	d, err := core.Synthesize(ex.Graph, core.Config{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := d.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	return &lint.Unit{
		Graph:      d.Graph,
		Schedule:   d.Schedule,
		Datapath:   d.Datapath,
		Controller: d.Controller,
		Netlist:    net,
	}
}

func runOne(t *testing.T, u *lint.Unit, analyzer string) diag.List {
	t.Helper()
	ds, err := lint.Run(u, lint.Options{Analyzers: []string{analyzer}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, ok := diag.Docs[d.Code]; !ok {
			t.Errorf("produced code %s is not in the diag.Docs registry", d.Code)
		}
	}
	return ds
}

func hasCode(ds diag.List, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// traceStepFor finds the recorded trace step that committed the named
// node.
func traceStepFor(t *testing.T, u *lint.Unit, name string) *sched.TraceStep {
	t.Helper()
	n, ok := u.Graph.Lookup(name)
	if !ok {
		t.Fatalf("node %q not in graph", name)
	}
	st, ok := u.Schedule.Trace.StepFor(n.ID)
	if !ok {
		t.Fatalf("node %q has no trace step", name)
	}
	return st
}

func TestCleanDesignsHaveNoFindings(t *testing.T) {
	for name, u := range map[string]*lint.Unit{"mfs": mfsUnit(t), "mfsa": mfsaUnit(t)} {
		ds, err := lint.Run(u, lint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 0 {
			t.Errorf("%s: clean design produced %d diagnostics:\n%s", name, len(ds), format(ds))
		}
	}
}

// TestAnalyzersCatchCorruption injects one defect per diagnostic class
// into an otherwise-clean design and asserts the owning analyzer
// reports the expected code.
func TestAnalyzersCatchCorruption(t *testing.T) {
	tests := []struct {
		name     string
		analyzer string
		want     string
		unit     func(t *testing.T) *lint.Unit // defaults to mfsaUnit
		corrupt  func(t *testing.T, u *lint.Unit)
	}{
		{
			name: "dangling edge", analyzer: "dfg", want: diag.CodeDFGUndefined,
			corrupt: func(t *testing.T, u *lint.Unit) {
				mutateNode(t, u, "mul").Args[0] = "ghost"
			},
		},
		{
			name: "dataflow cycle", analyzer: "dfg", want: diag.CodeDFGCycle,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// add1 feeds mul feeds div feeds and; pointing add1 at
				// "and" closes the loop.
				mutateNode(t, u, "add1").Args[0] = "and"
			},
		},
		{
			name: "bad cycle count", analyzer: "dfg", want: diag.CodeDFGBadCycles,
			corrupt: func(t *testing.T, u *lint.Unit) {
				mutateNode(t, u, "mul").Cycles = 0
			},
		},
		{
			name: "dead node", analyzer: "dfg", want: diag.CodeDFGDeadNode,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// Declaring "and" the only output orphans the or-branch.
				u.Outputs = []string{"and"}
			},
		},
		{
			name: "placement outside window", analyzer: "frames", want: diag.CodeSchedWindow,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				n, _ := u.Graph.Lookup("add1")
				p, _ := u.Schedule.At(n.ID)
				p.Step = 4 // add1's ALAP is 1: three ops chain after it
				u.Schedule.Place(n.ID, p)
			},
		},
		{
			name: "commit outside move frame", analyzer: "frames", want: diag.CodeFrameMember,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// Moving the committed position off the recorded move frame
				// (rather than deleting from it) breaks membership.
				st := traceStepFor(t, u, "mul")
				st.Pos = grid.Pos{Step: 98, Index: 98}
			},
		},
		{
			name: "recorded frames diverge from re-derivation", analyzer: "frames", want: diag.CodeFrameMismatch,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				traceStepFor(t, u, "mul").FFTop++
			},
		},
		{
			name: "recorded primary frame past ALAP", analyzer: "frames", want: diag.CodeFrameBounds,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// No step of a 4-step schedule has an ALAP past 4.
				traceStepFor(t, u, "mul").Hi = 5
			},
		},
		{
			name: "recorded energy diverges", analyzer: "liapunov", want: diag.CodeLiapEnergy,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				traceStepFor(t, u, "mul").Energy += 5
			},
		},
		{
			name: "non-decreasing V(X) step", analyzer: "liapunov", want: diag.CodeLiapDescent,
			unit: mfsUnit,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// "or" is the last op of a four-op chain, so it commits at
				// step 4; opening its recorded window up to step 1 puts a
				// free step-1 position in its move frame, fabricating a
				// cheaper move the scheduler "ignored".
				st := traceStepFor(t, u, "or")
				if st.Pos.Step < 2 {
					t.Fatalf("or committed at step %d; expected a late step", st.Pos.Step)
				}
				st.Lo, st.FFTop = 1, 0
			},
		},
		{
			name: "committed worse than a candidate", analyzer: "liapunov", want: diag.CodeLiapCandidate,
			corrupt: func(t *testing.T, u *lint.Unit) {
				// MFSA traces carry the evaluated candidate set; raising the
				// recorded commit energy above the cheapest candidate breaks
				// minimality.
				steps := u.Schedule.Trace.Steps
				for i := range steps {
					if len(steps[i].Candidates) > 0 {
						steps[i].Energy += 1000
						return
					}
				}
				t.Fatal("no trace step with candidates")
			},
		},
		{
			name: "register lifetime overlap", analyzer: "alloc", want: diag.CodeRegOverlap,
			corrupt: func(t *testing.T, u *lint.Unit) {
				for i, reg := range u.Datapath.Registers {
					for _, iv := range reg {
						if iv.Stored() {
							u.Datapath.Registers[i] = append(u.Datapath.Registers[i], iv)
							return
						}
					}
				}
				t.Fatal("no stored interval to duplicate")
			},
		},
		{
			name: "binding step disagrees with schedule", analyzer: "alloc", want: diag.CodeAllocStep,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Datapath.ALUs[0].Ops[0].Step++
			},
		},
		{
			name: "mux input names nothing", analyzer: "alloc", want: diag.CodeMuxUnknown,
			corrupt: func(t *testing.T, u *lint.Unit) {
				a := u.Datapath.ALUs[0]
				a.L1 = append(a.L1, dfg.SignalID(u.Graph.NumSignals())) // a signal the graph lacks
			},
		},
		{
			name: "state numbering broken", analyzer: "ctrl", want: diag.CodeCtrlNumbering,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Controller.States[0].Step = 99
			},
		},
		{
			name: "register write race", analyzer: "ctrl", want: diag.CodeCtrlWriteRace,
			corrupt: func(t *testing.T, u *lint.Unit) {
				for _, st := range u.Controller.States {
					if len(st.Writes) > 0 {
						st.Writes = append(st.Writes, st.Writes[0])
						u.Controller.States[st.Step-1].Writes = st.Writes
						return
					}
				}
				t.Fatal("no state with a register write")
			},
		},
		{
			name: "action in the wrong state", analyzer: "ctrl", want: diag.CodeCtrlActionStep,
			corrupt: func(t *testing.T, u *lint.Unit) {
				for si := range u.Controller.States {
					if len(u.Controller.States[si].Actions) > 0 {
						u.Controller.States[si].Actions[0].Node = 9999
						return
					}
				}
				t.Fatal("no state with an action")
			},
		},
		{
			name: "netlist duplicate declaration", analyzer: "netlist", want: diag.CodeNetDupDecl,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\nwire [31:0] w_add1;\n"
			},
		},
		{
			name: "netlist undriven wire", analyzer: "netlist", want: diag.CodeNetUndriven,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist = dropLine(t, u.Netlist, "assign w_add1 ")
			},
		},
		{
			name: "netlist multiple drivers", analyzer: "netlist", want: diag.CodeNetMultiDriven,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\nassign w_add1 = w_add2;\n"
			},
		},
		{
			name: "netlist undeclared identifier", analyzer: "netlist", want: diag.CodeNetUndeclared,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\nassign w_add1 = phantom;\n"
			},
		},
		{
			name: "netlist width mismatch", analyzer: "netlist", want: diag.CodeNetWidth,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\nwire [15:0] narrow;\nassign narrow = w_add1;\n"
			},
		},
		{
			name: "netlist combinational loop", analyzer: "netlist", want: diag.CodeNetCombLoop,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\nwire [31:0] la;\nwire [31:0] lb;\nassign la = lb;\nassign lb = la;\n"
			},
		},
		{
			name: "netlist unparseable construct", analyzer: "netlist", want: diag.CodeNetParse,
			corrupt: func(t *testing.T, u *lint.Unit) {
				u.Netlist += "\ninitial $display(\"hi\");\n"
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			build := tc.unit
			if build == nil {
				build = mfsaUnit
			}
			u := build(t)
			tc.corrupt(t, u)
			ds := runOne(t, u, tc.analyzer)
			if !hasCode(ds, tc.want) {
				t.Errorf("corruption not caught: want %s (%s), got:\n%s",
					tc.want, diag.Docs[tc.want], format(ds))
			}
		})
	}
}

// mutateNode returns the named node for in-place corruption.
func mutateNode(t *testing.T, u *lint.Unit, name string) *dfg.Node {
	t.Helper()
	n, ok := u.Graph.Lookup(name)
	if !ok {
		t.Fatalf("node %q not in graph", name)
	}
	return n
}

// dropLine removes the first line containing the marker.
func dropLine(t *testing.T, text, marker string) string {
	t.Helper()
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if strings.Contains(l, marker) {
			return strings.Join(append(lines[:i:i], lines[i+1:]...), "\n")
		}
	}
	t.Fatalf("marker %q not in netlist", marker)
	return ""
}

func format(ds diag.List) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestUnknownAnalyzerFails(t *testing.T) {
	if _, err := lint.Run(mfsUnit(t), lint.Options{Analyzers: []string{"nope"}}); err == nil {
		t.Fatal("expected an error for an unknown analyzer")
	}
}

func TestRegistryIsSortedAndDocumented(t *testing.T) {
	as := lint.Analyzers()
	for i, a := range as {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("registry not sorted: %s before %s", as[i-1].Name, a.Name)
		}
	}
	// HL = artifact lint (this package), HV = source invariants
	// (internal/vet); both live in the shared diag catalog.
	codeRe := regexp.MustCompile(`^H[LV]\d{4}$`)
	for code, doc := range diag.Docs {
		if !codeRe.MatchString(code) {
			t.Errorf("malformed code %q", code)
		}
		if doc == "" {
			t.Errorf("code %s has an empty doc", code)
		}
	}
}

// TestDeterministicAcrossParallelism asserts a lint run is identical at
// every worker count.
func TestDeterministicAcrossParallelism(t *testing.T) {
	u := mfsaUnit(t)
	u.Netlist += "\nassign w_add1 = phantom;\nwire [31:0] w_add1;\n"
	var base diag.List
	for _, par := range []int{1, 2, 0} {
		ds, err := lint.Run(u, lint.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = ds
			if len(base) == 0 {
				t.Fatal("expected findings from the corrupted netlist")
			}
			continue
		}
		if len(ds) != len(base) {
			t.Fatalf("parallelism %d: %d findings, want %d", par, len(ds), len(base))
		}
		for i := range ds {
			if ds[i] != base[i] {
				t.Errorf("parallelism %d: finding %d differs: %v vs %v", par, i, ds[i], base[i])
			}
		}
	}

	// The default on a design of pool.GrainNodes nodes or more keeps the
	// pooled path: GOMAXPROCS analyzers at a time.
	g, err := gen.Generate(gen.Config{Nodes: 80, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() < pool.GrainNodes {
		t.Fatalf("gen graph has %d nodes, below the grain of %d", g.Len(), pool.GrainNodes)
	}
	d, err := core.Synthesize(g, core.Config{CS: g.CriticalPathCycles() + 2})
	if err != nil {
		t.Fatal(err)
	}
	big := d.LintUnit()
	big.Netlist += "\nassign w_add1 = phantom;\nwire [31:0] w_add1;\n"
	want, err := lint.Run(big, lint.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lint.Run(big, lint.Options{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("gen80, parallelism 0: %d findings\n%s\nwant %d\n%s", len(got), format(got), len(want), format(want))
	}
}

// TestBenchmarksAuditClean drives every paper benchmark the way the
// evaluation does — MFS at each Table 1 time constraint (plus the
// structurally pipelined variant) and MFSA in both styles at the
// tightest constraint — and asserts the full analyzer suite, including
// the Liapunov trajectory replay, finds nothing.
func TestBenchmarksAuditClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark audit")
	}
	audit := func(label string, d *core.Design, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ds, err := d.Lint()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(ds) != 0 {
			t.Errorf("%s: %d findings on a clean design:\n%s", label, len(ds), format(ds))
		}
	}
	for _, ex := range benchmarks.All() {
		for _, cs := range ex.TimeConstraints {
			cfg := core.Config{CS: cs, ClockNs: ex.ClockNs}
			if ex.Latency != nil {
				cfg.Latency = ex.Latency(cs)
			}
			d, err := core.ScheduleOnly(ex.Graph, cfg)
			audit(ex.Name+"/mfs", d, err)
			if len(ex.PipelinedOps) > 0 {
				cfg.PipelinedOps = ex.PipelinedOps
				d, err := core.ScheduleOnly(ex.Graph, cfg)
				audit(ex.Name+"/mfs-pipelined", d, err)
			}
		}
		for _, style := range []int{1, 2} {
			cfg := core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs, Style: style, Lint: true}
			if _, err := core.Synthesize(ex.Graph, cfg); err != nil {
				t.Errorf("%s style %d with the lint gate on: %v", ex.Name, style, err)
			}
		}
	}
}
