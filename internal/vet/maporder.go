package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/diag"
)

// maporder enforces the determinism invariant behind bit-identical
// sweeps and replayable traces: in the packages whose computation
// reaches synthesis results, map iteration order must never influence
// an observable outcome. Go randomizes that order per process, so a
// `for range` over a map in scheduler code is a latent nondeterminism
// bug unless the loop provably cannot observe the order.
//
// A range-over-map in a critical package is accepted when:
//
//   - the loop body is order-insensitive: every statement is a
//     commutative accumulation (+=, -=, *=, |=, &=, ^=, ++, --), a
//     keyed write (m[k] = v), a delete, or an if/continue composed of
//     the same — the fold's result is independent of visit order; or
//   - a variable the loop writes is sorted later in the same function
//     (sort.* / slices.Sort*), restoring a canonical order; or
//   - the site carries //hls:orderok with a justification.
//
// Test files are exempt: the invariant protects synthesis results, not
// assertion order.
var maporderAnalyzer = &Analyzer{
	Name:  "maporder",
	Doc:   "range over a map in a determinism-critical package without sort or order-insensitive fold",
	Codes: []string{diag.CodeVetMapOrder, diag.CodeVetHatchReason},
	Run:   runMaporder,
}

// criticalPkgs are the packages whose computation reaches synthesis
// results. Everything under them is replayed by traces, hashed into
// sweep baselines, or compared bit-for-bit across parallelism settings.
var criticalPkgs = map[string]bool{
	// dfg mints the signal IDs every package below indexes by: an ID
	// assigned in map order would differ from process to process.
	"repro/internal/dfg":      true,
	"repro/internal/sched":    true,
	"repro/internal/mfs":      true,
	"repro/internal/mfsa":     true,
	"repro/internal/grid":     true,
	"repro/internal/rtl":      true,
	"repro/internal/liapunov": true,
	"repro/internal/symb":     true,
	"repro/internal/core":     true,
	// canon's hashes are cache keys shared across processes: any
	// order-dependence would split identical requests across buckets.
	"repro/internal/canon": true,
	// Netlist bytes are golden-pinned, compared across processes and
	// served by hlsd as cached response bytes; the controller's state
	// tables are what emit prints.
	"repro/internal/emit": true,
	"repro/internal/ctrl": true,
	// sim's first error, its order and its text, end up in certificate
	// bytes that hlsd caches.
	"repro/internal/sim": true,
	// Lint findings are certificate bytes that hlsd caches, and they are
	// the lint gate's error text.
	"repro/internal/lint": true,
}

func runMaporder(p *Pass) {
	if !criticalPkgs[strings.TrimSuffix(p.PkgPath, "_test")] {
		return
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMaporderFunc(p, fd.Body)
		}
	}
}

func checkMaporderFunc(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if p.Hatched(rs, "orderok") {
			return true
		}
		if orderInsensitiveBody(p, rs.Body.List) {
			return true
		}
		if sortedAfter(p, body, rs) {
			return true
		}
		p.Reportf(rs.Pos(), diag.CodeVetMapOrder,
			"range over map %s: iteration order is randomized per process; sort the keys, make the fold order-insensitive, or annotate //hls:orderok <why>",
			exprString(rs.X))
		return true
	})
}

// orderInsensitiveBody reports whether every statement is a commutative
// fold step, so the loop's effect is independent of visitation order.
func orderInsensitiveBody(p *Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.IncDecStmt:
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				// Commutative, associative accumulation.
			case token.ASSIGN:
				// Keyed writes only: each iteration touches its own slot.
				for _, lhs := range s.Lhs {
					if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); !ok {
						return false
					}
				}
			default:
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltinCall(p.Info, call, "delete") {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !orderInsensitiveBody(p, s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !orderInsensitiveBody(p, e.List) {
					return false
				}
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortedAfter reports whether a variable the loop writes is passed to a
// sorting call after the loop in the enclosing function body —
// collect-then-sort, the canonical deterministic idiom.
func sortedAfter(p *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) bool {
	written := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if obj := rootObj(p.Info, lhs); obj != nil {
				written[obj] = true
			}
		}
		return true
	})
	if len(written) == 0 {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return true
		}
		obj := calleeObj(p.Info, call)
		if !isSortFunc(obj) {
			return true
		}
		for _, arg := range call.Args {
			if o := rootObj(p.Info, arg); o != nil && written[o] {
				found = true
			}
		}
		return true
	})
	return found
}

// isSortFunc recognizes the standard sorting entry points.
func isSortFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Slice" ||
			fn.Name() == "SliceStable" || fn.Name() == "Strings" ||
			fn.Name() == "Ints" || fn.Name() == "Float64s" || fn.Name() == "Stable"
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// rootObj resolves an expression to the object of its root identifier:
// `x`, `x.f`, `x[i]`, `*x`, `x[i:j]` all root at x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a short source-ish form of e for messages.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
