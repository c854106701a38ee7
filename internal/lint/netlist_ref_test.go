package lint

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/diag"
	"repro/internal/emit"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/symb"
)

// synthNetlistUnit synthesizes g with MFSA and wraps every artifact,
// the emitted netlist included.
func synthNetlistUnit(t testing.TB, g *dfg.Graph, opts mfsa.Options) *Unit {
	t.Helper()
	res, err := mfsa.Synthesize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{
		Graph: g, Schedule: res.Schedule, Datapath: res.Datapath, Controller: c,
		Netlist: emit.Verilog(g, res.Schedule, res.Datapath, c),
	}
}

// scaleNetlistUnits are the gen2000 and fir1024 designs at cp+4.
func scaleNetlistUnits(t testing.TB) map[string]*Unit {
	t.Helper()
	rnd, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fir, err := gen.FIR(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Unit{
		"gen2000": synthNetlistUnit(t, rnd, mfsa.Options{CS: rnd.CriticalPathCycles() + 4}),
		"fir1024": synthNetlistUnit(t, fir, mfsa.Options{CS: fir.CriticalPathCycles() + 4}),
	}
}

// referenceCorpus is every paper graph in both styles at cp and cp+1,
// the two scale designs, and FACET's netlist with the corruptions and
// malformed texts the golden pins cover.
func referenceCorpus(t *testing.T) map[string]*Unit {
	t.Helper()
	units := scaleNetlistUnits(t)
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for style := mfsa.Style(1); style <= 2; style++ {
			for cs := cp; cs <= cp+1; cs++ {
				opts := mfsa.Options{CS: cs, Style: style, ClockNs: ex.ClockNs}
				units[fmt.Sprintf("%s/style%d/cs%d", ex.Name, style, cs)] = synthNetlistUnit(t, ex.Graph, opts)
			}
		}
	}
	facet := units["facet/style1/cs4"]
	edits := map[string]func(string) string{
		"dup-decl":    func(s string) string { return s + "\nwire [31:0] w_add1;\n" },
		"multi-drive": func(s string) string { return s + "\nassign w_add1 = w_add2;\nw_add1 <= w_i1;\n" },
		"undeclared":  func(s string) string { return s + "\nassign w_add1 = phantom;\nR9 <= ghost;\n" },
		"width":       func(s string) string { return s + "\nwire [15:0] narrow;\nassign narrow = w_add1;\n" },
		"comb-loop": func(s string) string {
			return s + "\nwire [31:0] lb;\nassign w_i1 = lb;\nassign lb = w_or;\nassign w_mul = w_mul;\n"
		},
		"unparseable":    func(s string) string { return s + "\ninitial $display(\"hi\");\n" },
		"undriven":       func(s string) string { return strings.Replace(s, "assign w_add1 = w_i1 + w_i2;", "", 1) },
		"input-driven":   func(s string) string { return s + "\nassign i1 = w_or;\n" },
		"no-output":      func(s string) string { return strings.Replace(s, "assign out_or = w_or;", "", 1) },
		"dup-module":     func(s string) string { return s + "module again (\n    input  wire clk\n);\nendmodule\n" },
		"no-module":      func(s string) string { return strings.Replace(s, "module facet (", "modul facet (", 1) },
		"crlf":           func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") },
		"unicode-space":  func(s string) string { return strings.ReplaceAll(s, "    ", "\u00a0\u2003") + "\u3000\u0085" },
		"unicode-inside": func(s string) string { return strings.Replace(s, "w_div & w_i7", "w_div\u00a0& w_i7", 1) },
		"stray-semi":     func(s string) string { return strings.Replace(s, "assign w_add1 = ", "assign w_add1 = ; ", 1) },
		"unknown-op":     func(s string) string { return strings.Replace(s, "w_i1 + w_i2", "w_i1 % w_i2", 1) },
		"four-tokens":    func(s string) string { return strings.Replace(s, "w_i1 + w_i2", "w_i1 <<< w_i2", 1) },
		"hex-literal":    func(s string) string { return strings.Replace(s, "w_i1 + w_i2", "w_i1 + 32'h1F", 1) },
		"literals":       func(s string) string { return strings.Replace(s, "w_i1 + w_i2", "32'd7 - 5", 1) },
		"unary":          func(s string) string { return strings.Replace(s, "w_div & w_i7", "~ w_div", 1) },
		"bad-unary":      func(s string) string { return strings.Replace(s, "w_div & w_i7", "* w_div", 1) },
		"empty-rhs":      func(s string) string { return strings.Replace(s, "w_div & w_i7", "", 1) },
		"ports-shape":    func(s string) string { return strings.Replace(s, "input  wire [31:0] i8,", "", 1) },
	}
	for name, edit := range edits {
		u := *facet
		u.Netlist = edit(facet.Netlist)
		if u.Netlist == facet.Netlist {
			t.Fatalf("edit %s left the netlist unchanged", name)
		}
		units["facet/"+name] = &u
	}
	return units
}

// exprText renders a parsed right-hand side, or its error, so the
// production and reference forms compare as strings.
func exprText(m *netModule, i int) string {
	x := &m.assigns[i].expr
	if x.n == 0 {
		return "error: " + m.exprErr[int32(i)].Error()
	}
	operand := func(a netID) string {
		if a < 0 {
			return fmt.Sprintf("#%d", m.lits[^a])
		}
		return m.nets[a].name
	}
	if x.kind().Valid() {
		args := make([]string, x.n)
		for k := range args {
			args[k] = operand(x.args[k])
		}
		return fmt.Sprintf("%v(%s)", x.kind(), strings.Join(args, ","))
	}
	return operand(x.args[0])
}

func refExprText(raw string) string {
	x, err := refParseNetExpr(raw)
	if err != nil {
		return "error: " + err.Error()
	}
	var render func(x *refNetExpr) string
	render = func(x *refNetExpr) string {
		switch {
		case x.isLit:
			return fmt.Sprintf("#%d", x.lit)
		case x.ident != "":
			return x.ident
		}
		args := make([]string, len(x.args))
		for k, a := range x.args {
			args[k] = render(a)
		}
		return fmt.Sprintf("%v(%s)", x.op, strings.Join(args, ","))
	}
	return render(x)
}

// compareParse checks one text's parse against the reference parser:
// findings, the rendered normal form, and every continuous assign's
// expression.
func compareParse(t *testing.T, key, text string) {
	t.Helper()
	m, ds := parseNetlist(text)
	rm, rds := refParseNetlist(text)
	if !reflect.DeepEqual(ds, rds) {
		t.Errorf("%s: parse findings differ:\n got %v\nwant %v", key, ds, rds)
	}
	if got, want := renderNetlist(m), refRenderNetlist(rm); got != want {
		t.Errorf("%s: rendered module differs:\n--- got ---\n%s\n--- want ---\n%s", key, got, want)
	}
	if len(m.assigns) != len(rm.assigns) {
		t.Fatalf("%s: %d assigns, reference %d", key, len(m.assigns), len(rm.assigns))
	}
	for i, ra := range rm.assigns {
		if got, want := exprText(m, i), refExprText(ra.raw); got != want {
			t.Errorf("%s: assign %d (line %d): expression %s, reference %s", key, i, ra.line, got, want)
		}
	}
}

// TestNetlistMatchesReference runs the interning reader and both
// netlist analyses against the reference copies on every unit of the
// corpus: the same parse findings and normal form, the same netlist
// findings in the same order, and the same netlist-layer expressions —
// the same pointers on one shared symb.Builder, the same renderings and
// intern counts on separate ones — with the same equiv findings.
func TestNetlistMatchesReference(t *testing.T) {
	ctx := context.Background()
	for key, u := range referenceCorpus(t) {
		compareParse(t, key, u.Netlist)

		got, want := runNetlist(ctx, u), refRunNetlist(ctx, u)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: netlist findings differ:\n got %v\nwant %v", key, got, want)
		}

		newProver := func(b *symb.Builder) *prover {
			return &prover{
				u: u, b: b, g: u.Graph, s: u.Schedule, dp: u.Datapath, c: u.Controller,
				ins: u.Graph.Inputs(), outs: u.Graph.Outputs(),
			}
		}
		run := func(e *prover, ref bool) (map[string]*symb.Expr, bool, diag.List) {
			e.dfgExprs()
			e.diags = nil
			var vals map[string]*symb.Expr
			var skipped bool
			if ref {
				vals, skipped = e.refNetlistExprs(ctx)
			} else {
				vals, skipped = e.netlistExprs(ctx)
			}
			return vals, skipped, e.diags
		}
		shared := symb.NewBuilder()
		rv, rskip, rdiags := run(newProver(shared), true)
		nv, nskip, ndiags := run(newProver(shared), false)
		if rskip != nskip || len(rv) != len(nv) {
			t.Errorf("%s: netlist layer skipped=%v with %d outputs, reference skipped=%v with %d", key, nskip, len(nv), rskip, len(rv))
		}
		for o, re := range rv {
			if nv[o] != re {
				t.Errorf("%s: output %q: netlist-layer root %v, reference %v", key, o, nv[o], re)
			}
		}
		if !reflect.DeepEqual(ndiags, rdiags) {
			t.Errorf("%s: equiv findings differ:\n got %v\nwant %v", key, ndiags, rdiags)
		}

		rb, nb := symb.NewBuilder(), symb.NewBuilder()
		rv, _, _ = run(newProver(rb), true)
		nv, _, _ = run(newProver(nb), false)
		if rb.Len() != nb.Len() {
			t.Errorf("%s: %d interned expressions, reference %d", key, nb.Len(), rb.Len())
		}
		for o, re := range rv {
			if nv[o].String() != re.String() {
				t.Errorf("%s: output %q: %v, reference %v", key, o, nv[o], re)
			}
		}
	}
}

// TestParseNetlistAllocs bounds the bytes the shared parse allocates
// per netlist byte on the two scale netlists.
func TestParseNetlistAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("scale netlists")
	}
	for key, u := range scaleNetlistUnits(t) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseNetlist(u.Netlist)
			}
		})
		perByte := float64(res.AllocedBytesPerOp()) / float64(len(u.Netlist))
		t.Logf("%s: %d bytes of netlist, %d B/op, %.2f B per netlist byte, %d allocs/op",
			key, len(u.Netlist), res.AllocedBytesPerOp(), perByte, res.AllocsPerOp())
		if perByte > 2.5 {
			t.Errorf("%s: parse allocates %.2f bytes per netlist byte, want <= 2.5", key, perByte)
		}
	}
}

// TestRunParsesNetlistOnce shows a full lint run parses its netlist
// once for both analyzers that read it, that Certify on its own parses
// for itself, and that the caller's unit keeps no parse: a mutation
// applied after a run is linted.
func TestRunParsesNetlistOnce(t *testing.T) {
	u := synthNetlistUnit(t, benchmarks.Facet().Graph, mfsa.Options{CS: 4})
	ctx := context.Background()
	parses := func(f func()) int64 {
		before := netlistParses.Load()
		f()
		return netlistParses.Load() - before
	}
	if n := parses(func() {
		if _, err := RunCtx(ctx, u, Options{Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a full RunCtx parsed the netlist %d times, want 1", n)
	}
	if n := parses(func() {
		if _, err := RunCtx(ctx, u, Options{Analyzers: []string{"dfg", "frames"}}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a run without netlist readers parsed %d times, want 0", n)
	}
	if n := parses(func() {
		if _, err := Certify(ctx, u); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Certify on its own parsed %d times, want 1", n)
	}
	if u.parsed != nil {
		t.Fatal("RunCtx wrote its shared parse into the caller's unit")
	}
	if err := ApplyMutation(u, "commute-sub"); err != nil {
		t.Fatal(err)
	}
	ds, err := RunCtx(ctx, u, Options{Analyzers: []string{"equiv"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Error("the mutated netlist linted clean: a stale parse was reused")
	}
}

// BenchmarkNetlistAnalyzers times the netlist path on the scale
// netlists: the parse, the netlist analyzer with its parse, and
// Certify, each against the reference where one exists.
func BenchmarkNetlistAnalyzers(b *testing.B) {
	ctx := context.Background()
	for _, key := range []string{"gen2000", "fir1024"} {
		u := scaleNetlistUnits(b)[key]
		b.Run(key+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseNetlist(u.Netlist)
			}
		})
		b.Run(key+"/parse-ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refParseNetlist(u.Netlist)
			}
		})
		b.Run(key+"/netlist", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runNetlist(ctx, u)
			}
		})
		b.Run(key+"/netlist-ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refRunNetlist(ctx, u)
			}
		})
		b.Run(key+"/certify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Certify(ctx, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaperNetlistAnalyzers times the netlist and equiv analyzers
// together, one shared parse per unit as in RunCtx, over the MFSA
// units of one pass of the paper evaluation: every paper graph at each
// of its time constraints from the critical path on, in both styles.
func BenchmarkPaperNetlistAnalyzers(b *testing.B) {
	var units []*Unit
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for _, cs := range ex.TimeConstraints {
			if cs < cp {
				continue
			}
			for style := mfsa.Style(1); style <= 2; style++ {
				opts := mfsa.Options{CS: cs, Style: style, ClockNs: ex.ClockNs, UsePipelinedUnits: len(ex.PipelinedOps) > 0}
				if ex.Latency != nil {
					opts.Latency = ex.Latency(cs)
				}
				units = append(units, synthNetlistUnit(b, ex.Graph, opts))
			}
		}
	}
	ctx := context.Background()
	b.Run("analyzers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				if _, err := RunCtx(ctx, u, Options{Analyzers: []string{"equiv", "netlist"}, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				parseNetlist(u.Netlist)
			}
		}
	})
	b.Run("parse-ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				refParseNetlist(u.Netlist)
			}
		}
	})
}
