// Package scope holds the shared type- and path-matching helpers the
// pimento analyzers use to decide what code they apply to.
//
// Package matching is by slash-aligned path *suffix* ("internal/corpus"
// matches both "repro/internal/corpus" in the real tree and the bare
// "internal/corpus" fixture packages under testdata/src), so the same
// analyzer binary checks the repository and its own test fixtures
// without knowing the module path.
package scope

import (
	"go/ast"
	"go/types"
	"strings"
)

// ServingPkgs is the request-path substrate: every package a live
// search, mutation, or profile request executes through. The ctxbg,
// snapshotonce and budgetedgo invariants apply here; offline harnesses
// (internal/inex, internal/experiments) and parsing layers are
// deliberately out of scope.
var ServingPkgs = []string{
	"internal/corpus",
	"internal/engine",
	"internal/lru",
	"internal/plan",
	"internal/server",
	"internal/registry",
	"internal/sched",
	"internal/algebra",
	"internal/twig",
}

// PathMatches reports whether pkgPath equals suffix or ends with
// "/"+suffix (slash-aligned, so "internal/corpus" does not match
// "internal/corpusx").
func PathMatches(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// PathAny reports whether pkgPath matches any suffix.
func PathAny(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if PathMatches(pkgPath, s) {
			return true
		}
	}
	return false
}

// Named unwraps pointers and aliases down to a named type, returning
// its package path and name. ok is false for unnamed types and types
// from the universe scope.
func Named(t types.Type) (pkgPath, name string, ok bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() == nil {
				return "", obj.Name(), false
			}
			return obj.Pkg().Path(), obj.Name(), true
		default:
			return "", "", false
		}
	}
}

// MethodCall resolves call as a method call, returning the receiver's
// named type (package path + type name) and the method name. ok is
// false for ordinary function calls, conversions, and calls through
// unnamed receiver types. Interface method calls resolve to the
// interface's own type.
func MethodCall(info *types.Info, call *ast.CallExpr) (recvPkg, recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", "", false
	}
	recvPkg, recvType, ok = Named(selection.Recv())
	if !ok {
		return "", "", "", false
	}
	return recvPkg, recvType, sel.Sel.Name, true
}

// FuncCall resolves call as a call of a package-level function,
// returning the function's package path and name. ok is false for
// method calls, calls of local function values, conversions and
// builtins.
func FuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// pkg.Func — reject method calls (those have a Selection).
		if _, isMethod := info.Selections[fun]; isMethod {
			return "", "", false
		}
		id = fun.Sel
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[id].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
