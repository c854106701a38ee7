package lint

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/ctrl"
	"repro/internal/emit"
	"repro/internal/mfsa"
)

// FuzzParseNetlist drives the Verilog-subset reader with arbitrary
// text and checks three properties:
//
//  1. the reader never panics, whatever the input (the netlist comes
//     from disk in cmd/hlslint and cannot be trusted), and neither
//     does the tokenizer on any procedural write it extracted;
//  2. it agrees with the reference parser (reference_test.go) on the
//     parse findings, the rendered normal form, and every continuous
//     assign's expression or expression error;
//  3. parsing is idempotent on re-emitted source: rendering the parsed
//     module and parsing the rendering again reaches a fixed point,
//     render(parse(render(parse(x)))) == render(parse(x)).
func FuzzParseNetlist(f *testing.F) {
	ex := benchmarks.Facet()
	res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: 4})
	if err != nil {
		f.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emit.Verilog(ex.Graph, res.Schedule, res.Datapath, c))
	f.Add("")
	f.Add("module m (\n    input  wire clk\n);\nendmodule\n")
	f.Add("wire [31:0] w;\nassign w = a + b;\n")
	f.Add("always @(posedge clk) begin\ncase (state)\n3: begin\n    R0 <= w_x;\nend\nendcase\nend\n")
	f.Add("assign x = 32'd7;\nassign y = -x;;;\nassign z = x << 2;")
	f.Add("module q (\n    output wire [15:0] o\n);\nreg [2:0] state;\no <= state;\nendmodule")
	f.Add("module u (\r\n input wire [3:0]　a,\r\n);\nassign b = a + 1;\nassign c = 4'hF;\n")
	// A write whose target begins with a keyword: rendered as "rego <= o;",
	// it must parse as a write again, not as a declaration of "o".
	f.Add("module m (\ninput wire clk\n);\nreg o;\nreg rego;\nalways @(posedge clk) begin\nif (o) rego <= o;\nend\nendmodule\n")

	f.Fuzz(func(t *testing.T, src string) {
		compareParse(t, "input", src)
		m, _ := parseNetlist(src)
		for i := range m.procs {
			tokenizeNetExpr(m.procs[i].raw) // must not panic either
		}
		norm := renderNetlist(m)
		m2, _ := parseNetlist(norm)
		if again := renderNetlist(m2); again != norm {
			t.Errorf("render∘parse not idempotent:\n--- first ---\n%s\n--- second ---\n%s", norm, again)
		}
	})
}

// TestKeywordPrefixedTargetIsAWrite checks that a nonblocking write
// whose target begins with a declaration keyword, "regx <= o;", reads
// as a write to regx, not as a second declaration of o.
func TestKeywordPrefixedTargetIsAWrite(t *testing.T) {
	src := "module m (\ninput wire clk\n);\nreg o;\nreg regx;\nalways @(posedge clk) begin\nregx <= o;\nend\nendmodule\n"
	m, ds := parseNetlist(src)
	if len(ds) != 0 {
		t.Fatalf("findings %v, want none", ds)
	}
	if len(m.procs) != 1 || m.nets[m.procs[0].lhs].name != "regx" {
		t.Fatalf("procedural writes %+v, want one to regx", m.procs)
	}
	compareParse(t, "keyword-prefixed target", src)
}
