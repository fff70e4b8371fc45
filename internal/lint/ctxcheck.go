package lint

import "go/ast"

// CtxCheck enforces the ctx-first API contract from PR 4 (DESIGN.md
// section 8): library code never mints its own root context, so every
// operation stays cancellable from the caller down.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc: `enforce the ctx-first API contract in library packages

Library packages (everything that is not a main package or a _test.go
file) must not call context.Background() or context.TODO(): a root
context minted mid-stack silently detaches the operation from its
caller's deadline and cancellation. Context parameters must come first
in the parameter list, and a context argument must never be a nil
literal.`,
	Run: runCtxCheck,
}

func runCtxCheck(pass *Pass) error {
	pkg := pass.Pkg
	if pkg.isMain() {
		return nil
	}
	for _, file := range pkg.Files {
		if isTestFile(pkg.fileName(file.Pos())) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCtxCall(pass, n)
			case *ast.FuncDecl:
				checkCtxParamFirst(pass, n.Type)
			case *ast.FuncLit:
				checkCtxParamFirst(pass, n.Type)
			}
			return true
		})
	}
	return nil
}

// checkCtxCall flags context.Background()/context.TODO() calls and nil
// literals passed where a callee expects a context first.
func checkCtxCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if fn := calleeFunc(info, call); fn != nil && funcPkgPath(fn) == "context" {
		switch fn.Name() {
		case "Background", "TODO":
			pass.Reportf(call.Pos(),
				"context.%s() in library code detaches the operation from its caller's cancellation; accept a ctx parameter instead", fn.Name())
		}
	}
	sig := calleeSignature(info, call)
	if sig == nil || sig.Params().Len() == 0 || len(call.Args) == 0 {
		return
	}
	if !isContextType(sig.Params().At(0).Type()) {
		return
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.IsNil() {
		pass.Reportf(call.Args[0].Pos(),
			"nil context passed to a context-aware callee; propagate the caller's ctx")
	}
}

// checkCtxParamFirst flags signatures that accept a context anywhere but
// the first parameter.
func checkCtxParamFirst(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	info := pass.Pkg.Info
	pos := 0
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(tv.Type) && pos > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter")
		}
		pos += n
	}
}
