package emit

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Testbench generates a self-checking Verilog-style testbench for a
// synthesized design: each vector drives the primary inputs, waits for
// the schedule's makespan, and compares every primary output against the
// value the cycle-accurate simulator predicts. The expected values come
// from sim.Run, so the testbench encodes the same behavior the design
// was verified against.
func Testbench(g *dfg.Graph, s *sched.Schedule, vectors []map[string]int64) (string, error) {
	if len(vectors) == 0 {
		return "", fmt.Errorf("emit: testbench needs at least one vector")
	}
	name := sanitize(g.Name)
	nm := newNamer(g, 0)

	var b writer
	b.put("// Self-checking testbench for ", name, ": ")
	b.int(len(vectors))
	b.put(" vectors, ")
	b.int(s.CS)
	b.put(" cycles each\nmodule ", name, "_tb;\n    reg clk = 0, rst = 1;\n")
	for i := range nm.ins {
		b.put("    reg  [31:0] ", nm.input(i), ";\n")
	}
	for i := range nm.outs {
		b.put("    wire [31:0] ", nm.output(i), ";\n")
	}
	b.put("    integer errors = 0;\n\n    ", name, " dut (.clk(clk), .rst(rst)")
	for i := range nm.ins {
		b.put(", .", nm.input(i), "(", nm.input(i), ")")
	}
	for i := range nm.outs {
		b.put(", .", nm.output(i), "(", nm.output(i), ")")
	}
	b.put(");\n\n")
	b.put("    always #5 clk = ~clk;\n\n")
	b.put("    task check(input [31:0] got, input [31:0] want, input [127:0] sig);\n")
	b.put("        if (got !== want) begin\n")
	b.put("            $display(\"FAIL %0s: got %0d want %0d\", sig, got, want);\n")
	b.put("            errors = errors + 1;\n")
	b.put("        end\n")
	b.put("    endtask\n\n")
	b.put("    initial begin\n")
	for vi, vec := range vectors {
		expected, err := sim.Run(s, vec)
		if err != nil {
			return "", fmt.Errorf("emit: vector %d: %w", vi, err)
		}
		b.put("        // vector ")
		b.int(vi)
		b.put("\n        rst = 1; @(posedge clk); rst = 0;\n")
		keys := make([]string, 0, len(vec))
		for k := range vec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.put("        ", nm.inputNamed(k), " = 32'd")
			b.uint(uint64(uint32(vec[k])))
			b.put(";\n")
		}
		b.put("        repeat (")
		b.int(s.CS)
		b.put(") @(posedge clk);\n")
		for i, out := range nm.outs {
			b.put("        check(", nm.output(i), ", 32'd")
			b.uint(uint64(uint32(expected[out])))
			b.put(", \"", sanitize(out), "\");\n")
		}
	}
	b.put("        if (errors == 0) $display(\"PASS: ")
	b.int(len(vectors))
	b.put(" vectors\");\n")
	b.put("        else $display(\"FAIL: %0d mismatches\", errors);\n")
	b.put("        $finish;\n")
	b.put("    end\nendmodule\n")
	return b.String(), nil
}
