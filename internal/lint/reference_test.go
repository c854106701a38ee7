package lint

// reference_test.go keeps the netlist reader and the two netlist
// analyses as they were before the interning reader replaced them:
// the line-splitting parser over name-keyed maps, the per-assign
// expression parser, runNetlist, netCombLoops and equiv's netlist
// layer, renamed with a ref prefix and otherwise unedited but for one
// fix both readers share: a declaration keyword matches only as a whole
// word (refHasKeyword). The tests compare the production reader and
// analyses against them.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/diag"
	"repro/internal/op"
	"repro/internal/symb"
)

// verilog.go is a small parser for the structural-Verilog subset
// internal/emit produces: one module, scalar/vector port and net
// declarations, continuous assigns, and always-blocks whose bodies are
// nonblocking assignments (possibly behind if/else or case items). It
// reconstructs enough structure — declarations with widths, drivers,
// uses — for the netlist analyzer to re-check the emitted text without
// trusting the emitter.

type refNetDecl struct {
	name  string
	kind  string // "input", "output", "wire", "reg"
	width int
	line  int
}

type refNetAssign struct {
	lhs      string
	rhs      []string // identifiers read by the right-hand side
	rhsIdent string   // non-empty when the RHS is a single bare identifier
	raw      string   // right-hand-side text, trimmed, without the ";"
	caseItem int      // procs: the "N: begin" case item enclosing it; -1 outside any
	line     int
}

type refNetModule struct {
	name    string
	decls   map[string]*refNetDecl
	order   []string        // declaration order, for deterministic reports
	assigns []*refNetAssign // continuous (assign ... = ...)
	procs   []*refNetAssign // procedural (... <= ...)
}

// refParseNetlist parses the emitted text, reporting HL0505 duplicate
// declarations and HL0508 unparseable constructs as it goes.
func refParseNetlist(text string) (*refNetModule, diag.List) {
	m := &refNetModule{decls: make(map[string]*refNetDecl)}
	var out diag.List
	report := func(code string, sev diag.Severity, line int, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "netlist",
			Loc: fmt.Sprintf("line %d", line), Message: msg,
		})
	}
	declare := func(d *refNetDecl) {
		if prev, dup := m.decls[d.name]; dup {
			report(diag.CodeNetDupDecl, diag.Error, d.line,
				fmt.Sprintf("identifier %q declared twice (lines %d and %d)", d.name, prev.line, d.line))
			return
		}
		m.decls[d.name] = d
		m.order = append(m.order, d.name)
	}

	inHeader := false
	caseItem := -1 // current "N: begin" item of the enclosing case, -1 outside
	for i, raw := range strings.Split(text, "\n") {
		ln := i + 1
		line := raw
		if k := strings.Index(line, "//"); k >= 0 {
			line = line[:k]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "module "):
			rest := strings.TrimPrefix(line, "module ")
			if k := strings.IndexAny(rest, " ("); k >= 0 {
				rest = rest[:k]
			}
			if m.name != "" {
				report(diag.CodeNetParse, diag.Warn, ln, "second module declaration; only the first is linted")
				continue
			}
			m.name = rest
			inHeader = true
		case inHeader && (refHasKeyword(line, "input") || refHasKeyword(line, "output")):
			kind := "input"
			if refHasKeyword(line, "output") {
				kind = "output"
			}
			name, width, ok := refParsePortDecl(line)
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse port declaration %q", line))
				continue
			}
			declare(&refNetDecl{name: name, kind: kind, width: width, line: ln})
			if strings.Contains(line, ");") {
				inHeader = false
			}
		case inHeader && strings.HasPrefix(line, ");"):
			inHeader = false
		case refHasKeyword(line, "wire") || refHasKeyword(line, "reg"):
			kind := "wire"
			if refHasKeyword(line, "reg") {
				kind = "reg"
			}
			name, width, ok := refParseNetDecl(line)
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse declaration %q", line))
				continue
			}
			declare(&refNetDecl{name: name, kind: kind, width: width, line: ln})
		case strings.HasPrefix(line, "assign "):
			body := strings.TrimSuffix(strings.TrimPrefix(line, "assign "), ";")
			lhs, rhs, ok := strings.Cut(body, "=")
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse assign %q", line))
				continue
			}
			m.assigns = append(m.assigns, refNewAssign(lhs, rhs, ln))
		case strings.Contains(line, "<="):
			k := strings.Index(line, "<=")
			lhsIDs := refIdentsOf(line[:k])
			if len(lhsIDs) == 0 {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot find assignment target in %q", line))
				continue
			}
			rhs := line[k+2:]
			if s := strings.Index(rhs, ";"); s >= 0 {
				rhs = rhs[:s]
			}
			// The target is the identifier immediately before "<="; any
			// earlier identifiers belong to an if/else condition.
			p := refNewAssign(lhsIDs[len(lhsIDs)-1], rhs, ln)
			p.caseItem = caseItem
			m.procs = append(m.procs, p)
		case refIsStructuralLine(line):
			// Block structure the value checks don't need — always headers,
			// begin/end, endmodule — except that case scaffolding positions
			// the register writes: "N: begin" opens item N, endcase/default
			// closes it.
			switch {
			case strings.HasPrefix(line, "endcase"), strings.HasPrefix(line, "default"):
				caseItem = -1
			default:
				if k := strings.Index(line, ":"); k > 0 {
					if n, bad := refAtoiSafe(strings.TrimSpace(line[:k])); !bad {
						caseItem = n
					}
				}
			}
		default:
			report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("construct the netlist parser cannot understand: %q", line))
		}
	}
	if m.name == "" {
		report(diag.CodeNetParse, diag.Error, 1, "no module declaration found")
	}
	return m, out
}

func refNewAssign(lhs, rhs string, line int) *refNetAssign {
	// Anything after a stray ";" is not part of the expression; dropping
	// it here keeps refRenderNetlist∘refParseNetlist idempotent.
	if s := strings.Index(rhs, ";"); s >= 0 {
		rhs = rhs[:s]
	}
	a := &refNetAssign{
		lhs: strings.TrimSpace(lhs), rhs: refIdentsOf(rhs),
		raw: strings.TrimSpace(rhs), caseItem: -1, line: line,
	}
	if refIsIdent(a.raw) {
		a.rhsIdent = a.raw
	}
	return a
}

// refHasKeyword reports whether line begins with the keyword kw
// followed by a byte that cannot continue an identifier, or by nothing.
func refHasKeyword(line, kw string) bool {
	rest, ok := strings.CutPrefix(line, kw)
	if !ok || rest == "" {
		return ok
	}
	c := rest[0]
	return !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9')
}

// refParsePortDecl parses "input  wire [31:0] x," / "output wire y".
func refParsePortDecl(line string) (name string, width int, ok bool) {
	line = strings.TrimRight(strings.TrimSpace(line), ",")
	line = strings.TrimSuffix(line, ");")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, false
	}
	width = 1
	name = fields[len(fields)-1]
	for _, f := range fields[1 : len(fields)-1] {
		if w, isRange := refParseRange(f); isRange {
			width = w
		}
	}
	if !refIsIdent(name) {
		return "", 0, false
	}
	return name, width, true
}

// refParseNetDecl parses "wire [31:0] w_x;" / "reg [2:0] state;".
func refParseNetDecl(line string) (name string, width int, ok bool) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, false
	}
	width = 1
	name = fields[len(fields)-1]
	for _, f := range fields[1 : len(fields)-1] {
		if w, isRange := refParseRange(f); isRange {
			width = w
		}
	}
	if !refIsIdent(name) {
		return "", 0, false
	}
	return name, width, true
}

// refParseRange turns "[31:0]" into a width of 32.
func refParseRange(s string) (int, bool) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, false
	}
	body := s[1 : len(s)-1]
	hi, lo, ok := strings.Cut(body, ":")
	if !ok {
		return 0, false
	}
	h, herr := refAtoiSafe(hi)
	l, lerr := refAtoiSafe(lo)
	if herr || lerr || h < l {
		return 0, false
	}
	return h - l + 1, true
}

func refAtoiSafe(s string) (int, bool) {
	n := 0
	if s == "" {
		return 0, true
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, true
		}
		n = n*10 + int(r-'0')
	}
	return n, false
}

func refIsStructuralLine(line string) bool {
	switch {
	case strings.HasPrefix(line, "always "),
		strings.HasPrefix(line, "case"),
		strings.HasPrefix(line, "endcase"),
		strings.HasPrefix(line, "default"),
		strings.HasPrefix(line, "begin"),
		line == "end",
		strings.HasPrefix(line, "end "),
		strings.HasPrefix(line, "endmodule"),
		strings.HasPrefix(line, "if "),
		strings.HasPrefix(line, "if("),
		strings.HasPrefix(line, "else"):
		return true
	}
	// Case items: "3: begin".
	if k := strings.Index(line, ":"); k > 0 {
		if _, bad := refAtoiSafe(strings.TrimSpace(line[:k])); !bad {
			return true
		}
	}
	return false
}

func refIsIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsIdentChar(c byte) bool {
	return refIsIdentStart(c) || (c >= '0' && c <= '9')
}

func refIsIdent(s string) bool {
	if s == "" || !refIsIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !refIsIdentChar(s[i]) {
			return false
		}
	}
	return true
}

// refIdentsOf extracts the identifiers an expression reads, skipping
// numeric and based literals like 7 and 32'd0.
func refIdentsOf(expr string) []string {
	var out []string
	i := 0
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == '\'': // based literal: skip the base letter and the value
			i++
			if i < len(expr) {
				i++
			}
			for i < len(expr) && refIsIdentChar(expr[i]) {
				i++
			}
		case c >= '0' && c <= '9':
			for i < len(expr) && refIsIdentChar(expr[i]) {
				i++
			}
		case refIsIdentStart(c):
			j := i
			for j < len(expr) && refIsIdentChar(expr[j]) {
				j++
			}
			out = append(out, expr[i:j])
			i = j
		default:
			i++
		}
	}
	return out
}

// refNetExpr is the parsed form of one right-hand side in the emitted
// subset: a bare operand, a unary operator applied to an operand, or a
// binary operator between two operands. The translation-validation pass
// interprets these against symbolic operand values.
type refNetExpr struct {
	op    op.Kind // Invalid for leaves
	ident string  // leaf: identifier
	lit   int64   // leaf: literal value
	isLit bool
	args  []*refNetExpr
}

// refParseNetExpr parses an assign's right-hand-side text. It accepts
// exactly the shapes internal/emit produces — IDENT, LITERAL, UNOP
// OPERAND, OPERAND BINOP OPERAND, with decimal or 'd-based literals —
// and reports anything else as an error for the caller to diagnose.
func refParseNetExpr(raw string) (*refNetExpr, error) {
	toks, err := refTokenizeNetExpr(raw)
	if err != nil {
		return nil, err
	}
	atom := func(t refNetToken) (*refNetExpr, bool) {
		switch t.kind {
		case refTokIdent:
			return &refNetExpr{ident: t.text}, true
		case refTokLit:
			return &refNetExpr{lit: t.val, isLit: true}, true
		}
		return nil, false
	}
	switch len(toks) {
	case 1:
		if e, ok := atom(toks[0]); ok {
			return e, nil
		}
	case 2:
		if toks[0].kind == refTokOp {
			var k op.Kind
			switch toks[0].text {
			case "-":
				k = op.Neg
			case "~":
				k = op.Not
			}
			if a, ok := atom(toks[1]); k != op.Invalid && ok {
				return &refNetExpr{op: k, args: []*refNetExpr{a}}, nil
			}
		}
	case 3:
		a, okA := atom(toks[0])
		c, okC := atom(toks[2])
		if okA && okC && toks[1].kind == refTokOp {
			k, err := op.Parse(toks[1].text)
			if err != nil {
				return nil, fmt.Errorf("unknown operator %q", toks[1].text)
			}
			return &refNetExpr{op: k, args: []*refNetExpr{a, c}}, nil
		}
	}
	return nil, fmt.Errorf("expression %q is outside the emitted subset", raw)
}

type refNetTokenKind int

const (
	refTokIdent refNetTokenKind = iota
	refTokLit
	refTokOp
)

type refNetToken struct {
	kind refNetTokenKind
	text string
	val  int64
}

// refNetExprOps are the operator symbols the tokenizer accepts, longest
// first so "<=" wins over "<".
var refNetExprOps = []string{"<<", ">>", "<=", ">=", "==", "!=", "+", "-", "*", "/", "&", "|", "^", "~", "<", ">"}

func refTokenizeNetExpr(raw string) ([]refNetToken, error) {
	var toks []refNetToken
	i := 0
	for i < len(raw) {
		c := raw[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case refIsIdentStart(c):
			j := i
			for j < len(raw) && refIsIdentChar(raw[j]) {
				j++
			}
			toks = append(toks, refNetToken{kind: refTokIdent, text: raw[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(raw) && raw[j] >= '0' && raw[j] <= '9' {
				j++
			}
			if j < len(raw) && raw[j] == '\'' {
				// Based literal: WIDTH'dVALUE. Only the decimal base occurs
				// in the emitted subset.
				if j+1 >= len(raw) || raw[j+1] != 'd' {
					return nil, fmt.Errorf("unsupported literal base in %q", raw)
				}
				k := j + 2
				v := int64(0)
				digits := 0
				for k < len(raw) && raw[k] >= '0' && raw[k] <= '9' {
					v = v*10 + int64(raw[k]-'0')
					digits++
					k++
				}
				if digits == 0 {
					return nil, fmt.Errorf("malformed based literal in %q", raw)
				}
				toks = append(toks, refNetToken{kind: refTokLit, val: v})
				i = k
				continue
			}
			v := int64(0)
			for _, d := range raw[i:j] {
				v = v*10 + int64(d-'0')
			}
			toks = append(toks, refNetToken{kind: refTokLit, val: v})
			i = j
		default:
			matched := ""
			for _, sym := range refNetExprOps {
				if strings.HasPrefix(raw[i:], sym) {
					matched = sym
					break
				}
			}
			if matched == "" {
				return nil, fmt.Errorf("unexpected character %q in %q", string(c), raw)
			}
			toks = append(toks, refNetToken{kind: refTokOp, text: matched})
			i += len(matched)
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty expression")
	}
	return toks, nil
}

// refNetKeywords are the tokens that select a parser branch by line
// prefix. An assignment target with one of these names would render
// into a line the parser reads as something else entirely, so the
// normal form drops such assignments (they can only come from
// malformed input, never from the emitter).
var refNetKeywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"wire": true, "reg": true, "assign": true, "always": true,
	"case": true, "endcase": true, "default": true, "begin": true,
	"end": true, "if": true, "else": true,
}

// refRenderableLHS reports whether an assignment target survives the
// render → parse round trip as the same construct.
func refRenderableLHS(lhs string) bool {
	return refIsIdent(lhs) && !refNetKeywords[lhs]
}

// refRenderNetlist prints the parsed module back as source the parser
// accepts. It is the normal form behind the parser's round-trip
// property (FuzzParseNetlist): for any input, parse∘render is the
// identity on the rendered text — render(parse(render(parse(x)))) ==
// render(parse(x)).
func refRenderNetlist(m *refNetModule) string {
	var b strings.Builder
	var ports []*refNetDecl
	for _, n := range m.order {
		if d := m.decls[n]; d.kind == "input" || d.kind == "output" {
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
			if d.kind == "output" {
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
	for _, n := range m.order {
		d := m.decls[n]
		if d.kind == "input" || d.kind == "output" {
			continue
		}
		if d.width > 1 {
			fmt.Fprintf(&b, "%s [%d:0] %s;\n", d.kind, d.width-1, d.name)
		} else {
			fmt.Fprintf(&b, "%s %s;\n", d.kind, d.name)
		}
	}
	for _, a := range m.assigns {
		if !refRenderableLHS(a.lhs) {
			continue
		}
		fmt.Fprintf(&b, "assign %s = %s;\n", a.lhs, a.raw)
	}
	var plain []*refNetAssign
	var items []int
	byItem := make(map[int][]*refNetAssign)
	for _, p := range m.procs {
		if !refRenderableLHS(p.lhs) {
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
			fmt.Fprintf(&b, "    %s <= %s;\n", p.lhs, p.raw)
		}
		b.WriteString("end\n")
	}
	if len(items) > 0 {
		b.WriteString("always @(posedge clk) begin\n")
		b.WriteString("case (state)\n")
		for _, item := range items {
			fmt.Fprintf(&b, "%d: begin\n", item)
			for _, p := range byItem[item] {
				fmt.Fprintf(&b, "    %s <= %s;\n", p.lhs, p.raw)
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

func refRunNetlist(ctx context.Context, u *Unit) diag.List {
	if u.Netlist == "" {
		return nil
	}
	m, out := refParseNetlist(u.Netlist)
	report := func(code string, sev diag.Severity, line int, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "netlist",
			Loc: fmt.Sprintf("line %d", line), Message: msg,
		})
	}

	// Driver census: continuous assigns and procedural writes per net.
	contDrivers := make(map[string][]*refNetAssign)
	procDrivers := make(map[string][]*refNetAssign)
	for _, a := range m.assigns {
		contDrivers[a.lhs] = append(contDrivers[a.lhs], a)
	}
	for _, a := range m.procs {
		procDrivers[a.lhs] = append(procDrivers[a.lhs], a)
	}

	// Undeclared identifiers, on either side of any assignment.
	checkDeclared := func(name string, line int, role string) {
		if _, ok := m.decls[name]; !ok {
			report(diag.CodeNetUndeclared, diag.Error, line,
				fmt.Sprintf("%s %q is never declared", role, name))
		}
	}
	for _, a := range m.assigns {
		checkDeclared(a.lhs, a.line, "assignment target")
		for _, r := range a.rhs {
			checkDeclared(r, a.line, "identifier")
		}
	}
	for _, a := range m.procs {
		checkDeclared(a.lhs, a.line, "assignment target")
		for _, r := range a.rhs {
			checkDeclared(r, a.line, "identifier")
		}
	}

	// Per-net driver rules, in declaration order for determinism.
	used := make(map[string]bool) // nets read by some RHS
	for _, a := range m.assigns {
		for _, r := range a.rhs {
			used[r] = true
		}
	}
	for _, a := range m.procs {
		for _, r := range a.rhs {
			used[r] = true
		}
	}
	for _, name := range m.order {
		d := m.decls[name]
		cont, proc := contDrivers[name], procDrivers[name]
		switch {
		case d.kind == "input":
			if len(cont) > 0 || len(proc) > 0 {
				line := d.line
				if len(cont) > 0 {
					line = cont[0].line
				} else {
					line = proc[0].line
				}
				report(diag.CodeNetMultiDriven, diag.Error, line,
					fmt.Sprintf("input port %q is driven inside the module", name))
			}
		case len(cont) > 1:
			report(diag.CodeNetMultiDriven, diag.Error, cont[1].line,
				fmt.Sprintf("net %q has %d continuous drivers (first at line %d)", name, len(cont), cont[0].line))
		case len(cont) > 0 && len(proc) > 0:
			report(diag.CodeNetMultiDriven, diag.Error, proc[0].line,
				fmt.Sprintf("net %q is driven both continuously (line %d) and procedurally (line %d)",
					name, cont[0].line, proc[0].line))
		case d.kind == "output" && len(cont) == 0 && len(proc) == 0:
			report(diag.CodeNetOutput, diag.Error, d.line,
				fmt.Sprintf("output port %q is never assigned", name))
		case d.kind == "wire" && used[name] && len(cont) == 0 && len(proc) == 0:
			report(diag.CodeNetUndriven, diag.Error, d.line,
				fmt.Sprintf("wire %q is read but never driven", name))
		}
	}

	// Width agreement on direct connections (assign a = b with both
	// sides declared). Expressions are skipped: the emitted subset only
	// ever combines same-width operands, and re-deriving expression
	// widths would duplicate the emitter's job rather than check it.
	checkWidth := func(a *refNetAssign) {
		if a.rhsIdent == "" {
			return
		}
		l, lok := m.decls[a.lhs]
		r, rok := m.decls[a.rhsIdent]
		if lok && rok && l.width != r.width {
			report(diag.CodeNetWidth, diag.Error, a.line,
				fmt.Sprintf("width mismatch: %q is %d bits, %q is %d bits", a.lhs, l.width, a.rhsIdent, r.width))
		}
	}
	for _, a := range m.assigns {
		checkWidth(a)
	}
	for _, a := range m.procs {
		checkWidth(a)
	}

	out = append(out, refNetCombLoops(m)...)
	return out
}

// refNetCombLoops finds cycles in the continuous-assign dependency graph.
// Procedural (clocked) assignments break combinational paths and are
// excluded; a cycle purely through assign statements is unsimulatable
// hardware.
func refNetCombLoops(m *refNetModule) diag.List {
	deps := make(map[string][]string) // lhs -> identifiers its assign reads
	line := make(map[string]int)
	for _, a := range m.assigns {
		deps[a.lhs] = append(deps[a.lhs], a.rhs...)
		if _, ok := line[a.lhs]; !ok {
			line[a.lhs] = a.line
		}
	}
	names := make([]string, 0, len(deps))
	for n := range deps {
		names = append(names, n)
	}
	sort.Strings(names)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	onLoop := make(map[string]bool)
	var stack []string
	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, d := range deps[n] {
			switch color[d] {
			case white:
				if _, driven := deps[d]; driven {
					visit(d)
				}
			case gray:
				for i := len(stack) - 1; i >= 0; i-- {
					onLoop[stack[i]] = true
					if stack[i] == d {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}

	var out diag.List
	looped := make([]string, 0, len(onLoop))
	for n := range onLoop {
		looped = append(looped, n)
	}
	sort.Strings(looped)
	for _, n := range looped {
		out = append(out, diag.Diagnostic{
			Code: diag.CodeNetCombLoop, Severity: diag.Error, Artifact: "netlist",
			Loc:     fmt.Sprintf("line %d", line[n]),
			Message: fmt.Sprintf("net %q lies on a combinational loop through assign statements", n),
		})
	}
	return out
}

// refNetlistExprs re-parses the emitted Verilog and interprets it as a
// clocked netlist: the combinational assign network is evaluated from
// the input ports to the output ports. The emitter renders every node
// as one continuous assign of its operand wires (the FSM sequences
// which value is live when; the datapath layer above proves that
// sequencing), so the comb network's function must equal the
// reference's. Designs with folded loop nodes are skipped without a
// finding: the emitter stubs their wires with a placeholder constant.
func (e *prover) refNetlistExprs(ctx context.Context) (map[string]*symb.Expr, bool) {
	if e.u.Netlist == "" {
		return nil, true
	}
	for _, n := range e.g.Nodes() {
		if n.IsLoop() {
			return nil, true
		}
	}
	m, _ := refParseNetlist(e.u.Netlist) // parse findings belong to the netlist analyzer
	if m.name == "" {
		e.report(diag.CodeEquivStructure, "netlist", "module",
			"netlist cannot be interpreted for equivalence: no module declaration",
			"re-emit the design")
		return nil, true
	}

	// Port mapping is positional against the graph, mirroring the
	// emitter: clk and rst first, then one input port per graph input,
	// then one output port per graph output.
	var ins, outs []string
	for _, name := range m.order {
		switch m.decls[name].kind {
		case "input":
			ins = append(ins, name)
		case "output":
			outs = append(outs, name)
		}
	}
	if len(ins) >= 2 {
		ins = ins[2:] // clk, rst
	}
	gi, gos := e.g.Inputs(), e.g.Outputs()
	if len(ins) != len(gi) || len(outs) != len(gos) {
		e.report(diag.CodeEquivStructure, "netlist", "module "+m.name,
			fmt.Sprintf("port shape mismatch: netlist has %d data inputs and %d outputs, graph has %d and %d",
				len(ins), len(outs), len(gi), len(gos)),
			"the module interface no longer matches the design")
		return nil, true
	}
	inVar := make(map[string]*symb.Expr, len(ins))
	for i, p := range ins {
		inVar[p] = e.b.Var(gi[i])
	}

	// First driver wins, as in the analyzer's driver checks; duplicate
	// drivers are the netlist analyzer's HL0503.
	assignOf := make(map[string]*refNetAssign, len(m.assigns))
	for _, a := range m.assigns {
		if _, ok := assignOf[a.lhs]; !ok {
			assignOf[a.lhs] = a
		}
	}

	cache := make(map[string]*symb.Expr)
	onStack := make(map[string]bool)
	var evalIdent func(ident string) *symb.Expr
	var evalExpr func(x *refNetExpr, line int) *symb.Expr
	evalIdent = func(ident string) *symb.Expr {
		if v, ok := cache[ident]; ok {
			return v
		}
		if v, ok := inVar[ident]; ok {
			return v
		}
		if onStack[ident] {
			e.report(diag.CodeEquivStructure, "netlist", ident,
				fmt.Sprintf("combinational cycle through %q blocks symbolic evaluation", ident),
				"break the loop; see the netlist analyzer's cycle report")
			return e.poisonVar("net:"+ident, 0)
		}
		a := assignOf[ident]
		if a == nil {
			// Undriven or a register: registers are write-only in the
			// emitted subset, so a read here is a defect the divergence
			// at the root will carry upward.
			return e.b.Var("undef:net:" + ident)
		}
		onStack[ident] = true
		ast, err := refParseNetExpr(a.raw)
		var v *symb.Expr
		if err != nil {
			e.report(diag.CodeEquivStructure, "netlist", fmt.Sprintf("line %d", a.line),
				fmt.Sprintf("assign to %q is outside the interpretable subset: %v", ident, err),
				"only the emitter's expression forms can be validated")
			v = e.poisonVar("net:"+ident, 0)
		} else {
			v = evalExpr(ast, a.line)
		}
		delete(onStack, ident)
		cache[ident] = v
		return v
	}
	evalExpr = func(x *refNetExpr, line int) *symb.Expr {
		switch {
		case x.isLit:
			return e.b.Const(x.lit)
		case x.ident != "":
			return evalIdent(x.ident)
		}
		args := make([]*symb.Expr, len(x.args))
		for i, a := range x.args {
			args[i] = evalExpr(a, line)
		}
		return e.b.Apply(x.op, args...)
	}

	res := make(map[string]*symb.Expr, len(outs))
	for i, p := range outs {
		if ctx.Err() != nil {
			return res, false
		}
		res[gos[i]] = evalIdent(p)
	}
	return res, false
}
