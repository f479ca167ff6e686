package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces grove's cancellation-threading discipline over the module
// call graph. Three rules, in order of directness:
//
//  1. A function that receives a context.Context must thread it: passing
//     context.Background() or context.TODO() to a callee from inside a
//     context-carrying function severs the caller's deadline and
//     cancellation.
//
//  2. A context-carrying function must use the context-aware variant of a
//     callee when one exists: calling Store.Match(g) where
//     MatchContext(ctx, g) is declared silently drops ctx on the floor even
//     though no Background() appears at the call site.
//
//  3. context.Background()/TODO() are banned in library code reachable from
//     the *Context API facades (any function whose name ends in "Context"
//     and accepts a ctx): on those paths a root context always masks a
//     caller deadline. Elsewhere in library code a root context is legal
//     only in the convenience-wrapper shape — a function with no ctx
//     parameter passing Background() directly as a call argument to a
//     context-accepting callee (e.g. `func (s *Store) Match(g) { return
//     s.MatchContext(context.Background(), g) }`). Any other creation —
//     stored in a variable, returned, captured — needs a reasoned
//     //grovevet:ignore ctxflow pragma.
//
// The analyzer skips main packages (cmd/, examples/): binaries own their
// root contexts.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "context.Context must thread through context-carrying call paths",
	RunModule: runCtxFlow,
}

func runCtxFlow(pass *ModulePass) {
	cg := pass.Module.CallGraph()
	reach := cg.Reachable(cg.ContextFacades())
	for _, fi := range cg.Funcs {
		if fi.Pkg.Name == "main" {
			continue
		}
		w := &ctxWalker{pass: pass, cg: cg, fi: fi, reachable: reach[fi]}
		w.walk(fi.Decl.Body, fi.CtxParamName)
	}
}

type ctxWalker struct {
	pass      *ModulePass
	cg        *CallGraph
	fi        *FuncInfo
	reachable bool // fi is reachable from a *Context facade
}

// walk scans one scope. ctxName is the context parameter visible in this
// scope ("" = none, "_" = accepted but discarded); a nested function literal
// that declares its own context parameter opens a fresh scope, one that does
// not inherits the encloser's (it closes over ctx).
func (w *ctxWalker) walk(body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctxName
			if own := ctxParamName(n.Type); own != "" {
				inner = own
			}
			w.walk(n.Body, inner)
			return false
		case *ast.CallExpr:
			w.call(n, ctxName)
		}
		return true
	})
}

func (w *ctxWalker) call(call *ast.CallExpr, ctxName string) {
	info := w.fi.Pkg.Info
	if isCtxRootCall(call) {
		w.rootCall(call, ctxName)
		return
	}
	if ctxName == "" || ctxName == "_" {
		return
	}
	// Rule 2: context-carrying scope calling a ctx-less module callee that
	// has a context-aware sibling.
	callee := w.cg.Lookup(usedFunc(info, call))
	if callee == nil || callee.CtxParamName != "" {
		return
	}
	name := callee.Decl.Name.Name
	if strings.HasSuffix(name, "Context") {
		return
	}
	if sib := w.cg.Sibling(callee, name+"Context"); sib != nil && sib.CtxParamName != "" {
		w.pass.Reportf(call.Pos(),
			"%s is called from a context-carrying function but drops ctx; call %s(ctx, ...) instead",
			name, name+"Context")
	}
}

// rootCall handles one context.Background()/TODO() creation site.
func (w *ctxWalker) rootCall(call *ast.CallExpr, ctxName string) {
	fun := types.ExprString(call.Fun)
	switch {
	case ctxName != "" && ctxName != "_":
		// Rule 1.
		w.pass.Reportf(call.Pos(),
			"%s() inside a function that already receives %q severs cancellation; pass %s through",
			fun, ctxName, ctxName)
	case w.reachable:
		// Rule 3, strong form.
		w.pass.Reportf(call.Pos(),
			"%s() in library code reachable from the *Context API facades masks caller deadlines; thread the caller's ctx",
			fun)
	case !w.wrapperShaped(call):
		// Rule 3, weak form.
		w.pass.Reportf(call.Pos(),
			"%s() creates a root context outside the convenience-wrapper shape; thread a ctx or add a //grovevet:ignore ctxflow pragma naming why this is a root",
			fun)
	}
}

// wrapperShaped reports whether the Background()/TODO() call is passed
// directly as an argument to a context-accepting callee — the recognized
// convenience-facade idiom.
func (w *ctxWalker) wrapperShaped(root *ast.CallExpr) bool {
	found := false
	ast.Inspect(w.fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		outer, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range outer.Args {
			if unparen(arg) == root {
				found = sigAcceptsContext(w.fi.Pkg.Info, outer) ||
					calleeAcceptsCtxSyntactically(w.cg, w.fi.Pkg.Info, outer)
				return false
			}
		}
		return true
	})
	return found
}

// calleeAcceptsCtxSyntactically is the fixture-friendly fallback for
// wrapperShaped: when the outer call's type did not resolve, a module callee
// with a declared ctx parameter still counts.
func calleeAcceptsCtxSyntactically(cg *CallGraph, info *types.Info, call *ast.CallExpr) bool {
	callee := cg.Lookup(usedFunc(info, call))
	return callee != nil && callee.CtxParamName != ""
}

// isCtxRootCall matches context.Background() and context.TODO().
func isCtxRootCall(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context"
}
