package vet

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/diag"
)

// noalloc turns the PR-5 allocation pins (TestFrameAlgebraAllocs,
// TestEWFScheduleAllocs) from runtime measurements into source-level
// proof obligations: a function marked //hls:noalloc must contain no
// heap-allocating construct, and may only call callees that are
// themselves vetted.
//
// Flagged constructs (HV0041): make, new, append, function literals
// (closure capture), `go` statements, map/slice composite literals,
// &-taken composite literals, non-constant string concatenation,
// string<->[]byte/[]rune conversions, and interface boxing at call
// sites (a concrete value passed to an interface parameter).
//
// Flagged calls (HV0042): any callee that is not a builtin, not a
// func-typed value (the caller supplied it — its cost is the caller's
// contract, as with Table.ScanPlaceable's yield), not math/bits (compiler
// intrinsics), and not a same-package function itself marked
// //hls:noalloc. Cross-package callees cannot be verified from a
// single-package unit, so they must be annotated //hls:allocok with the
// reason they are trusted.
//
// panic(...) subtrees are exempt: the panic path is cold by definition
// and already the worst case.
//
// Escape hatch: //hls:allocok <why> on the offending line (an
// intentional single allocation, a grow path, a cold fallback).
var noallocAnalyzer = &Analyzer{
	Name:  "noalloc",
	Doc:   "//hls:noalloc functions contain no heap-allocating constructs and call only vetted callees",
	Codes: []string{diag.CodeVetAllocOp, diag.CodeVetAllocCall, diag.CodeVetHatchReason},
	Run:   runNoalloc,
}

// noallocCallAllowlist names packages whose calls compile to intrinsics
// or guaranteed-stack code.
var noallocCallAllowlist = map[string]bool{
	"math/bits": true,
}

func runNoalloc(p *Pass) {
	// Pass 1: collect the marked functions, so same-package calls
	// between vetted hot-path functions are allowed.
	marked := map[types.Object]bool{}
	var decls []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !p.funcMarked(fd, "noalloc") {
				continue
			}
			decls = append(decls, fd)
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				marked[obj] = true
			}
		}
	}
	for _, fd := range decls {
		checkNoalloc(p, fd, marked)
	}
}

func checkNoalloc(p *Pass, fd *ast.FuncDecl, marked map[types.Object]bool) {
	flag := func(n ast.Node, what string) {
		if !p.Hatched(n, "allocok") {
			p.Reportf(n.Pos(), diag.CodeVetAllocOp,
				"%s in //hls:noalloc function %s: this allocates; restructure onto scratch space or annotate //hls:allocok <why>",
				what, fd.Name.Name)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			flag(n, "go statement")
			return false
		case *ast.FuncLit:
			flag(n, "function literal")
			return false
		case *ast.CompositeLit:
			switch p.Info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				flag(n, "map literal")
			case *types.Slice:
				flag(n, "slice literal")
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, lit := ast.Unparen(n.X).(*ast.CompositeLit); lit {
					flag(n, "address of composite literal")
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := p.Info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					flag(n, "string concatenation")
				}
			}
			return true
		case *ast.CallExpr:
			return checkNoallocCall(p, fd, n, marked, flag)
		}
		return true
	})
}

// checkNoallocCall vets one call expression; its return value tells the
// walk whether to descend into the call's children.
func checkNoallocCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, marked map[types.Object]bool, flag func(ast.Node, string)) bool {
	// Conversions.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := p.Info.TypeOf(call.Args[0])
			switch {
			case isStringType(to) && isByteOrRuneSlice(from),
				isByteOrRuneSlice(to) && isStringType(from):
				flag(call, "string/slice conversion")
			case types.IsInterface(to.Underlying()) && from != nil && !types.IsInterface(from.Underlying()):
				flag(call, "conversion to interface (boxing)")
			}
		}
		return true
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call, "make")
			case "new":
				flag(call, "new")
			case "append":
				flag(call, "append")
			case "panic":
				// The panic path is cold; do not descend into its
				// argument (typically a fmt.Sprintf).
				return false
			}
			return true
		}
	}
	// Interface boxing at argument positions.
	if sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature); ok && !call.Ellipsis.IsValid() {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			at := p.Info.TypeOf(arg)
			if pt == nil || at == nil || !types.IsInterface(pt.Underlying()) || types.IsInterface(at.Underlying()) {
				continue
			}
			if tv, ok := p.Info.Types[arg]; ok && tv.IsNil() {
				continue
			}
			flag(arg, "interface boxing of argument")
		}
	}
	// The callee itself.
	obj := calleeObj(p.Info, call)
	switch obj := obj.(type) {
	case nil:
		// A func-typed value (yield callbacks, stored closures): invoking
		// it does not allocate; its body is the supplier's contract.
		return true
	case *types.Var:
		return true
	case *types.Func:
		if marked[obj] {
			return true
		}
		if pkg := obj.Pkg(); pkg != nil && noallocCallAllowlist[pkg.Path()] {
			return true
		}
		if !p.Hatched(call, "allocok") {
			p.Reportf(call.Pos(), diag.CodeVetAllocCall,
				"//hls:noalloc function %s calls %s, which is not vetted: mark the callee //hls:noalloc (same package) or annotate the call //hls:allocok <why>",
				fd.Name.Name, obj.Name())
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
