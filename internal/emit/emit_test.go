package emit

import (
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/mfsa"
	"repro/internal/op"
)

func TestVerilogStructure(t *testing.T) {
	ex := benchmarks.Facet()
	res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	wants := []string{
		"module facet",
		"endmodule",
		"input  wire        clk",
		"input  wire [31:0] i1",
		"output wire [31:0] out_",
		"reg [31:0] R0",
		"always @(posedge clk)",
		"case (state)",
		"assign w_add1 = w_i1 + w_i2",
	}
	for _, w := range wants {
		if !strings.Contains(v, w) {
			t.Errorf("netlist missing %q", w)
		}
	}
	// Every node has a wire declaration and an assignment.
	for _, n := range ex.Graph.Nodes() {
		if !strings.Contains(v, "wire [31:0] w_"+n.Name+";") {
			t.Errorf("missing wire for %q", n.Name)
		}
		if !strings.Contains(v, "assign w_"+n.Name+" =") {
			t.Errorf("missing assignment for %q", n.Name)
		}
	}
	// Balanced module/endmodule.
	if strings.Count(v, "module ") != strings.Count(v, "endmodule") {
		t.Error("unbalanced module/endmodule")
	}
}

func TestVerilogInputWires(t *testing.T) {
	// Input references must be prefixed consistently; the raw graph input
	// names feed w_<name> wires via the port list. The emitter references
	// operands as w_<sig>, so inputs used as operands appear as w_i1 etc.
	ex := benchmarks.Diffeq()
	res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	if !strings.Contains(v, "w_dx") {
		t.Error("input operand not referenced")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"abc":     "abc",
		"a-b.c":   "a_b_c",
		"":        "sig",
		"x$1":     "x_1",
		"Under_9": "Under_9",
		"é+日本":    "____", // one underscore per rune, not per byte
		"a\xffb":  "a_b",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
		if got := refSanitize(in); got != want {
			t.Errorf("refSanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 17: 5}
	for n, want := range cases {
		if got := bits(n); got != want {
			t.Errorf("bits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPipelinedRestartComment(t *testing.T) {
	ex := benchmarks.Diffeq()
	res, err := mfsa.Synthesize(ex.Graph, mfsa.Options{CS: 8, Latency: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(ex.Graph, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(ex.Graph, res.Schedule, res.Datapath, c)
	if !strings.Contains(v, "functional pipelining") {
		t.Error("pipelined FSM not annotated")
	}
	if !strings.Contains(v, "state == 3") {
		t.Error("restart bound should be latency-1 = 3")
	}
}

// namerCollisionGraph has inputs that sanitize to one identifier or to a
// reserved one, and node names that sanitize alike.
func namerCollisionGraph(t testing.TB) *dfg.Graph {
	t.Helper()
	g := dfg.New("collide")
	for _, in := range []string{"a+b", "a-b", "state", "clk"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddOp("x.y", op.Add, "a+b", "a-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x$y", op.Mul, "x.y", "state"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp("x*y", op.Add, "x$y", "clk"); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

// collisionProbe has two nodes whose names sanitize to p_q: p.q (ID 2)
// and p-q (ID 3). At cs 8 the schedule writes p-q to a register before
// any register holds p.q, so p-q is named first and p.q takes the
// suffix, although p.q has the lower NodeID.
func collisionProbe(t testing.TB) *dfg.Graph {
	t.Helper()
	g := dfg.New("probe")
	for _, in := range []string{"a", "b", "c"} {
		if err := g.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []struct {
		name string
		k    op.Kind
		args []string
	}{
		{"m1", op.Mul, []string{"a", "b"}},
		{"m2", op.Mul, []string{"m1", "c"}},
		{"p.q", op.Add, []string{"m2", "a"}},
		{"p-q", op.Add, []string{"a", "b"}},
		{"z", op.Add, []string{"p.q", "p-q"}},
	} {
		if _, err := g.AddOp(n.name, n.k, n.args...); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// TestFirstUseNamingOrder pins the order identifiers are assigned in:
// at first use, so a node wire a register write names comes before the
// node wires declared in NodeID order.
func TestFirstUseNamingOrder(t *testing.T) {
	g := collisionProbe(t)
	res, err := mfsa.Synthesize(g, mfsa.Options{CS: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(g, res.Schedule, res.Datapath, c)
	for _, want := range []string{
		"    assign w_p_q_2 = w_m2 + w_a;",
		"    assign w_p_q = w_a + w_b;",
	} {
		if !strings.Contains(v, "\n"+want+" // ") {
			t.Errorf("netlist lacks the line %q:\n%s", want, v)
		}
	}
}

func TestNamerCollisions(t *testing.T) {
	// "a+b" and "a-b" both sanitize to "a_b"; the namer must keep the
	// emitted identifiers distinct and must not shadow the FSM's fixed
	// names (clk, rst, state).
	g := namerCollisionGraph(t)
	res, err := mfsa.Synthesize(g, mfsa.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctrl.Build(g, res.Schedule, res.Datapath)
	if err != nil {
		t.Fatal(err)
	}
	v := Verilog(g, res.Schedule, res.Datapath, c)
	// Distinct ports for the colliding inputs, uniqued away from the
	// reserved names.
	for _, want := range []string{
		"input  wire [31:0] a_b,",
		"input  wire [31:0] a_b_2,",
		"input  wire [31:0] state_2,",
		"input  wire [31:0] clk_2,",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("netlist missing port %q", want)
		}
	}
	// Every emitted identifier is declared exactly once: collect
	// declarations and check for duplicates.
	decls := make(map[string]int)
	for _, line := range strings.Split(v, "\n") {
		line = strings.TrimSpace(line)
		for _, pfx := range []string{"input  wire [31:0] ", "output wire [31:0] ", "wire [31:0] ", "reg [31:0] "} {
			if rest, ok := strings.CutPrefix(line, pfx); ok {
				id := strings.TrimRight(rest, ",;")
				decls[id]++
				break
			}
		}
	}
	for id, n := range decls {
		if n > 1 {
			t.Errorf("identifier %q declared %d times", id, n)
		}
	}
	if len(decls) < 11 { // 4 ports + 1 output + 4 taps + 3 node wires at minimum
		t.Errorf("unexpectedly few declarations: %d (%v)", len(decls), decls)
	}
}
