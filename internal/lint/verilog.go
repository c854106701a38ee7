package lint

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"repro/internal/diag"
	"repro/internal/op"
)

// verilog.go is a small reader for the structural-Verilog subset
// internal/emit produces: one module, scalar/vector port and net
// declarations, continuous assigns, and always-blocks whose bodies are
// nonblocking assignments (possibly behind if/else or case items). It
// reconstructs enough structure — declarations with widths, drivers,
// uses, and each continuous assign's expression — for the netlist and
// equiv analyzers to re-check the emitted text without trusting the
// emitter.
//
// The reader walks the text line by line, without splitting or copying
// it, and interns every identifier: each distinct name gets a dense
// netID on first sight, and everything else the module holds indexes
// by it. Names stay substrings of the text.

// netID is an identifier's dense index in its netModule.
type netID int32

type netKind uint8

const (
	netUndeclared netKind = iota
	netInput
	netOutput
	netWire
	netReg
)

// netInfo is what the module knows about one identifier.
type netInfo struct {
	name  string
	width int
	line  int32   // line of the first declaration
	kind  netKind // netUndeclared until a declaration names it
	// The identifier's drivers: the first and last continuous assign to
	// it (indexes into assigns, chained through netAssign.next) and its
	// first procedural write (an index into procs); -1 when none.
	firstCont, lastCont, firstProc int32
}

type netAssign struct {
	raw      string // right-hand-side text, trimmed, without the ";"
	caseItem int    // procs: the "N: begin" case item enclosing it; -1 outside any
	lhs      netID
	rhsIdent netID // the right-hand side when it is one bare identifier, else -1
	lo, hi   int32 // the identifiers the right-hand side reads: reads[lo:hi]
	next     int32 // continuous assigns: the next one to the same lhs, -1 when last
	line     int32
	expr     netExpr // continuous assigns: the right-hand side, tokenized once
}

// netExpr is a continuous assign's right-hand side in the emitted
// subset: a bare operand, a unary operator applied to an operand, or a
// binary operator between two operands. An operand is a net id, or the
// literal lits[^a] when a is negative. n is the operand count; 0 means
// the text is outside the subset and exprErr holds why.
type netExpr struct {
	args [2]netID
	op   uint8 // an op.Kind; op.Invalid for a bare operand
	n    uint8
}

func (x *netExpr) kind() op.Kind { return op.Kind(x.op) }

// netModule is a parsed netlist. It is read-only once parseNetlist
// returns: the analyzers of one lint run read it concurrently.
type netModule struct {
	name string
	// slots is an open-addressing table of id+1 by the name's hash, 0
	// for an empty slot, at most half full.
	slots   []int32
	seed    maphash.Seed
	nets    []netInfo   // by id
	order   []netID     // declaration order, for deterministic reports
	assigns []netAssign // continuous (assign ... = ...)
	procs   []netAssign // procedural (... <= ...)
	reads   []netID     // backing store of every assign's read ids
	lits    []int64     // literal operands of the netExprs
	exprErr map[int32]error
}

// netlistParses counts parseNetlist calls, so a test can show that one
// lint run parses its netlist once.
var netlistParses atomic.Int64

// parseNetlist parses the emitted text, reporting HL0505 duplicate
// declarations and HL0508 unparseable constructs as it goes.
func parseNetlist(text string) (*netModule, diag.List) {
	netlistParses.Add(1)
	// Size the tables from the text: the emitter declares each port and
	// wire with "wire " and each register with "reg ", one net to a line,
	// and a declaration line takes at least 8 bytes.
	nAssign := strings.Count(text, "assign ")
	nProc := strings.Count(text, "<=")
	nNets := max(min(strings.Count(text, "wire ")+strings.Count(text, "reg "), len(text)/8), 16)
	m := &netModule{
		slots:   make([]int32, 2<<bits.Len(uint(nNets))),
		seed:    maphash.MakeSeed(),
		nets:    make([]netInfo, 0, nNets),
		order:   make([]netID, 0, nNets),
		assigns: make([]netAssign, 0, nAssign),
		procs:   make([]netAssign, 0, nProc),
		reads:   make([]netID, 0, 2*nAssign+nProc),
	}
	var out diag.List
	report := func(code string, sev diag.Severity, line int, msg string) {
		out = append(out, diag.Diagnostic{
			Code: code, Severity: sev, Artifact: "netlist",
			Loc: fmt.Sprintf("line %d", line), Message: msg,
		})
	}
	declare := func(name string, kind netKind, width, line int) {
		id := m.intern(name)
		d := &m.nets[id]
		if d.kind != netUndeclared {
			report(diag.CodeNetDupDecl, diag.Error, line,
				fmt.Sprintf("identifier %q declared twice (lines %d and %d)", name, d.line, line))
			return
		}
		d.kind, d.width, d.line = kind, width, int32(line)
		m.order = append(m.order, id)
	}

	inHeader := false
	caseItem := -1 // current "N: begin" item of the enclosing case, -1 outside
	for start, ln := 0, 1; start <= len(text); ln++ {
		line := text[start:]
		if k := strings.IndexByte(line, '\n'); k >= 0 {
			line = line[:k]
		}
		start += len(line) + 1
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
		case inHeader && (hasKeyword(line, "input") || hasKeyword(line, "output")):
			kind := netInput
			if hasKeyword(line, "output") {
				kind = netOutput
			}
			name, width, ok := parsePortDecl(line)
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse port declaration %q", line))
				continue
			}
			declare(name, kind, width, ln)
			if strings.Contains(line, ");") {
				inHeader = false
			}
		case inHeader && strings.HasPrefix(line, ");"):
			inHeader = false
		case hasKeyword(line, "wire") || hasKeyword(line, "reg"):
			kind := netWire
			if hasKeyword(line, "reg") {
				kind = netReg
			}
			name, width, ok := parseNetDecl(line)
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse declaration %q", line))
				continue
			}
			declare(name, kind, width, ln)
		case strings.HasPrefix(line, "assign "):
			body := strings.TrimSuffix(strings.TrimPrefix(line, "assign "), ";")
			lhs, rhs, ok := strings.Cut(body, "=")
			if !ok {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot parse assign %q", line))
				continue
			}
			m.addAssign(strings.TrimSpace(lhs), rhs, ln)
		case strings.Contains(line, "<="):
			k := strings.Index(line, "<=")
			// The target is the identifier immediately before "<="; any
			// earlier identifiers belong to an if/else condition.
			lhs := lastIdent(line[:k])
			if lhs == "" {
				report(diag.CodeNetParse, diag.Warn, ln, fmt.Sprintf("cannot find assignment target in %q", line))
				continue
			}
			m.addProc(lhs, line[k+2:], caseItem, ln)
		case isStructuralLine(line):
			// Block structure the value checks don't need — always headers,
			// begin/end, endmodule — except that case scaffolding positions
			// the register writes: "N: begin" opens item N, endcase/default
			// closes it.
			switch {
			case strings.HasPrefix(line, "endcase"), strings.HasPrefix(line, "default"):
				caseItem = -1
			default:
				if k := strings.Index(line, ":"); k > 0 {
					if n, bad := atoiSafe(strings.TrimSpace(line[:k])); !bad {
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

// intern returns the id of the named identifier, giving a new name the
// next id.
func (m *netModule) intern(name string) netID {
	mask := uint64(len(m.slots) - 1)
	for i := maphash.String(m.seed, name) & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			id := netID(len(m.nets))
			m.nets = append(m.nets, netInfo{name: name, firstCont: -1, lastCont: -1, firstProc: -1})
			m.slots[i] = int32(id) + 1
			if 2*len(m.nets) > len(m.slots) {
				m.rehash(2 * len(m.slots))
			}
			return id
		}
		if m.nets[s-1].name == name {
			return netID(s - 1)
		}
	}
}

// rehash rebuilds the slot table at the given power-of-two size.
func (m *netModule) rehash(size int) {
	m.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := range m.nets {
		i := maphash.String(m.seed, m.nets[id].name) & mask
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = int32(id) + 1
	}
}

// setWrite fills in an assignment: it interns the target and the
// identifiers the right-hand side reads.
func (m *netModule) setWrite(a *netAssign, lhs, rhs string, line int) {
	// Anything after a stray ";" is not part of the expression.
	if s := strings.IndexByte(rhs, ';'); s >= 0 {
		rhs = rhs[:s]
	}
	*a = netAssign{
		raw: strings.TrimSpace(rhs), caseItem: -1, lhs: m.intern(lhs),
		rhsIdent: -1, next: -1, line: int32(line),
	}
	a.lo = int32(len(m.reads))
	m.appendReads(rhs)
	a.hi = int32(len(m.reads))
	if a.hi-a.lo == 1 && isIdent(a.raw) {
		a.rhsIdent = m.reads[a.lo]
	}
}

// addAssign records a continuous assign and tokenizes its right-hand
// side.
func (m *netModule) addAssign(lhs, rhs string, line int) {
	i := int32(len(m.assigns))
	m.assigns = append(m.assigns, netAssign{})
	a := &m.assigns[i]
	m.setWrite(a, lhs, rhs, line)
	if err := m.parseExpr(a); err != nil {
		if m.exprErr == nil {
			m.exprErr = make(map[int32]error)
		}
		m.exprErr[i] = err
	}
	d := &m.nets[a.lhs]
	if d.firstCont < 0 {
		d.firstCont = i
	} else {
		m.assigns[d.lastCont].next = i
	}
	d.lastCont = i
}

// addProc records a procedural write inside the given case item.
func (m *netModule) addProc(lhs, rhs string, caseItem, line int) {
	i := int32(len(m.procs))
	m.procs = append(m.procs, netAssign{})
	p := &m.procs[i]
	m.setWrite(p, lhs, rhs, line)
	p.caseItem = caseItem
	if d := &m.nets[p.lhs]; d.firstProc < 0 {
		d.firstProc = i
	}
}

// rhs returns the ids the assignment's right-hand side reads.
func (m *netModule) rhs(a *netAssign) []netID { return m.reads[a.lo:a.hi] }

// parsePortDecl parses "input  wire [31:0] x," / "output wire y".
func parsePortDecl(line string) (name string, width int, ok bool) {
	line = strings.TrimRight(strings.TrimSpace(line), ",")
	return declFields(strings.TrimSuffix(line, ");"))
}

// parseNetDecl parses "wire [31:0] w_x;" / "reg [2:0] state;".
func parseNetDecl(line string) (name string, width int, ok bool) {
	return declFields(strings.TrimSuffix(strings.TrimSpace(line), ";"))
}

// declFields reads a declaration's whitespace-separated fields (split
// as strings.Fields splits): the last names the net, and the last
// "[hi:lo]" range between the first and the last gives its width.
func declFields(s string) (name string, width int, ok bool) {
	width = 1
	n := 0
	for {
		f, rest := nextField(s)
		if f == "" {
			break
		}
		if n >= 2 { // name is a middle field
			if w, isRange := parseRange(name); isRange {
				width = w
			}
		}
		name, s = f, rest
		n++
	}
	if n < 2 || !isIdent(name) {
		return "", 0, false
	}
	return name, width, true
}

// nextField returns s's first whitespace-separated field and the text
// after it, with unicode.IsSpace deciding what is whitespace.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if r, size := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
			i += size
		} else {
			break
		}
	}
	j := i
	for j < len(s) {
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
		} else if r, size := utf8.DecodeRuneInString(s[j:]); !unicode.IsSpace(r) {
			j += size
		} else {
			break
		}
	}
	return s[i:j], s[j:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseRange turns "[31:0]" into a width of 32.
func parseRange(s string) (int, bool) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, false
	}
	body := s[1 : len(s)-1]
	hi, lo, ok := strings.Cut(body, ":")
	if !ok {
		return 0, false
	}
	h, herr := atoiSafe(hi)
	l, lerr := atoiSafe(lo)
	if herr || lerr || h < l {
		return 0, false
	}
	return h - l + 1, true
}

func atoiSafe(s string) (int, bool) {
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

func isStructuralLine(line string) bool {
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
		if _, bad := atoiSafe(strings.TrimSpace(line[:k])); !bad {
			return true
		}
	}
	return false
}

// hasKeyword reports whether line begins with the keyword kw as a whole
// word: "reg" begins "reg [2:0] state;" but not "regx <= o;".
func hasKeyword(line, kw string) bool {
	return strings.HasPrefix(line, kw) && (len(line) == len(kw) || !isIdentChar(line[len(kw)]))
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentChar(s[i]) {
			return false
		}
	}
	return true
}

// nextIdent returns the first identifier an expression reads at or
// after i, skipping numeric and based literals like 7 and 32'd0, and
// the index just past it; "" when there is none.
func nextIdent(expr string, i int) (string, int) {
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == '\'': // based literal: skip the base letter and the value
			i++
			if i < len(expr) {
				i++
			}
			for i < len(expr) && isIdentChar(expr[i]) {
				i++
			}
		case c >= '0' && c <= '9':
			for i < len(expr) && isIdentChar(expr[i]) {
				i++
			}
		case isIdentStart(c):
			j := i
			for j < len(expr) && isIdentChar(expr[j]) {
				j++
			}
			return expr[i:j], j
		default:
			i++
		}
	}
	return "", i
}

// appendReads interns the identifiers expr reads onto m.reads.
func (m *netModule) appendReads(expr string) {
	for id, i := nextIdent(expr, 0); id != ""; id, i = nextIdent(expr, i) {
		m.reads = append(m.reads, m.intern(id))
	}
}

// lastIdent returns the last identifier expr reads, "" when none.
func lastIdent(expr string) string {
	last := ""
	for id, i := nextIdent(expr, 0); id != ""; id, i = nextIdent(expr, i) {
		last = id
	}
	return last
}

// parseExpr parses a continuous assign's right-hand side into a.expr.
// It accepts exactly the shapes internal/emit produces — IDENT,
// LITERAL, UNOP OPERAND, OPERAND BINOP OPERAND, with decimal or
// 'd-based literals — and returns anything else as an error.
func (m *netModule) parseExpr(a *netAssign) error {
	ts, err := tokenizeNetExpr(a.raw)
	if err != nil {
		return err
	}
	toks := ts.tok[:min(ts.n, len(ts.tok))]
	reads := m.rhs(a)
	// operand turns an atom into a netExpr operand. In an expression of
	// the subset, the tokenizer's identifiers are the reads in order.
	operand := func(t netToken) netID {
		if t.kind == tokLit {
			m.lits = append(m.lits, t.val)
			return ^netID(len(m.lits) - 1)
		}
		id := reads[0]
		reads = reads[1:]
		return id
	}
	switch ts.n {
	case 1:
		if toks[0].kind != tokOp {
			a.expr = netExpr{args: [2]netID{operand(toks[0])}, n: 1}
			return nil
		}
	case 2:
		var k op.Kind
		switch toks[0].text {
		case "-":
			k = op.Neg
		case "~":
			k = op.Not
		}
		if k != op.Invalid && toks[1].kind != tokOp {
			a.expr = netExpr{args: [2]netID{operand(toks[1])}, op: uint8(k), n: 1}
			return nil
		}
	case 3:
		if toks[0].kind != tokOp && toks[1].kind == tokOp && toks[2].kind != tokOp {
			x := operand(toks[0])
			a.expr = netExpr{args: [2]netID{x, operand(toks[2])}, op: uint8(toks[1].op), n: 2}
			return nil
		}
	}
	return fmt.Errorf("expression %q is outside the emitted subset", a.raw)
}

type netTokenKind int

const (
	tokIdent netTokenKind = iota
	tokLit
	tokOp
)

type netToken struct {
	kind netTokenKind
	text string
	val  int64   // tokLit: the value
	op   op.Kind // tokOp: the binary operation the symbol names
}

// netTokens is a right-hand side's token count and its first three
// tokens: no expression in the emitted subset has more.
type netTokens struct {
	tok [3]netToken
	n   int
}

func (ts *netTokens) add(t netToken) {
	if ts.n < len(ts.tok) {
		ts.tok[ts.n] = t
	}
	ts.n++
}

// netExprOp returns the operator symbol s starts with and the binary
// operation it names, or "" when s starts with none. Of the symbols
// << >> <= >= == != + - * / & | ^ ~ < > the longest that matches wins,
// so "<=" is never read as "<".
func netExprOp(s string) (string, op.Kind) {
	if len(s) > 1 {
		switch s[:2] {
		case "<<":
			return "<<", op.Shl
		case ">>":
			return ">>", op.Shr
		case "<=":
			return "<=", op.Le
		case ">=":
			return ">=", op.Ge
		case "==":
			return "==", op.Eq
		case "!=":
			return "!=", op.Ne
		}
	}
	switch s[0] {
	case '+':
		return "+", op.Add
	case '-':
		return "-", op.Sub
	case '*':
		return "*", op.Mul
	case '/':
		return "/", op.Div
	case '&':
		return "&", op.And
	case '|':
		return "|", op.Or
	case '^':
		return "^", op.Xor
	case '~':
		return "~", op.Not
	case '<':
		return "<", op.Lt
	case '>':
		return ">", op.Gt
	}
	return "", op.Invalid
}

func tokenizeNetExpr(raw string) (netTokens, error) {
	var ts netTokens
	i := 0
	for i < len(raw) {
		c := raw[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case isIdentStart(c):
			j := i
			for j < len(raw) && isIdentChar(raw[j]) {
				j++
			}
			ts.add(netToken{kind: tokIdent, text: raw[i:j]})
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
					return netTokens{}, fmt.Errorf("unsupported literal base in %q", raw)
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
					return netTokens{}, fmt.Errorf("malformed based literal in %q", raw)
				}
				ts.add(netToken{kind: tokLit, val: v})
				i = k
				continue
			}
			v := int64(0)
			for _, d := range raw[i:j] {
				v = v*10 + int64(d-'0')
			}
			ts.add(netToken{kind: tokLit, val: v})
			i = j
		default:
			matched, k := netExprOp(raw[i:])
			if matched == "" {
				return netTokens{}, fmt.Errorf("unexpected character %q in %q", string(c), raw)
			}
			ts.add(netToken{kind: tokOp, text: matched, op: k})
			i += len(matched)
		}
	}
	if ts.n == 0 {
		return netTokens{}, fmt.Errorf("empty expression")
	}
	return ts, nil
}
