package lint

import (
	"fmt"
	"strings"
)

// netKindNames are the declaration keywords by netKind.
var netKindNames = [...]string{netInput: "input", netOutput: "output", netWire: "wire", netReg: "reg"}

// netKeywords are the tokens that select a parser branch by line
// prefix. An assignment target with one of these names would render
// into a line the parser reads as something else entirely, so the
// normal form drops such assignments (they can only come from
// malformed input, never from the emitter).
var netKeywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"wire": true, "reg": true, "assign": true, "always": true,
	"case": true, "endcase": true, "default": true, "begin": true,
	"end": true, "if": true, "else": true,
}

// renderableLHS reports whether an assignment target survives the
// render → parse round trip as the same construct.
func renderableLHS(lhs string) bool {
	return isIdent(lhs) && !netKeywords[lhs]
}

// renderNetlist prints the parsed module back as source the parser
// accepts. It is the normal form behind the parser's round-trip
// property (FuzzParseNetlist): for any input, parse∘render is the
// identity on the rendered text — render(parse(render(parse(x)))) ==
// render(parse(x)).
func renderNetlist(m *netModule) string {
	var b strings.Builder
	var ports []*netInfo
	for _, id := range m.order {
		if d := &m.nets[id]; d.kind == netInput || d.kind == netOutput {
			ports = append(ports, d)
		}
	}
	name := m.name
	if name == "" && len(ports) > 0 {
		name = "m" // port decls need a header to parse; normalize one in
	}
	if name != "" {
		fmt.Fprintf(&b, "module %s (\n", name)
		for i, d := range ports {
			dir := "input "
			if d.kind == netOutput {
				dir = "output"
			}
			comma := ","
			if i == len(ports)-1 {
				comma = ""
			}
			if d.width > 1 {
				fmt.Fprintf(&b, "    %s wire [%d:0] %s%s\n", dir, d.width-1, d.name, comma)
			} else {
				fmt.Fprintf(&b, "    %s wire %s%s\n", dir, d.name, comma)
			}
		}
		b.WriteString(");\n")
	}
	for _, id := range m.order {
		d := &m.nets[id]
		if d.kind == netInput || d.kind == netOutput {
			continue
		}
		if d.width > 1 {
			fmt.Fprintf(&b, "%s [%d:0] %s;\n", netKindNames[d.kind], d.width-1, d.name)
		} else {
			fmt.Fprintf(&b, "%s %s;\n", netKindNames[d.kind], d.name)
		}
	}
	for i := range m.assigns {
		a := &m.assigns[i]
		if lhs := m.nets[a.lhs].name; renderableLHS(lhs) {
			fmt.Fprintf(&b, "assign %s = %s;\n", lhs, a.raw)
		}
	}
	var plain []*netAssign
	var items []int
	byItem := make(map[int][]*netAssign)
	for i := range m.procs {
		p := &m.procs[i]
		if !renderableLHS(m.nets[p.lhs].name) {
			continue
		}
		if p.caseItem < 0 {
			plain = append(plain, p)
			continue
		}
		if _, ok := byItem[p.caseItem]; !ok {
			items = append(items, p.caseItem)
		}
		byItem[p.caseItem] = append(byItem[p.caseItem], p)
	}
	if len(plain) > 0 {
		b.WriteString("always @(posedge clk) begin\n")
		for _, p := range plain {
			fmt.Fprintf(&b, "    %s <= %s;\n", m.nets[p.lhs].name, p.raw)
		}
		b.WriteString("end\n")
	}
	if len(items) > 0 {
		b.WriteString("always @(posedge clk) begin\n")
		b.WriteString("case (state)\n")
		for _, item := range items {
			fmt.Fprintf(&b, "%d: begin\n", item)
			for _, p := range byItem[item] {
				fmt.Fprintf(&b, "    %s <= %s;\n", m.nets[p.lhs].name, p.raw)
			}
			b.WriteString("end\n")
		}
		b.WriteString("endcase\n")
		b.WriteString("end\n")
	}
	if name != "" {
		b.WriteString("endmodule\n")
	}
	return b.String()
}
