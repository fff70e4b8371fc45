package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// RetryDefault enforces the accounting-preserving default-off contract
// from PR 6: the paper's formula (3)/(4) experiments count every read, so
// retries only ever turn on at an explicit caller opt-in —
// never silently inside library or example code.
var RetryDefault = &Analyzer{
	Name: "retrydefault",
	Doc: `keep retries off by default

Library packages and examples must not construct an enabled
RetryPolicy (MaxAttempts > 1), and must not reference DefaultRetryPolicy
from function bodies: either silently changes the read accounting the
paper experiments pin down. Enabling resilience is a
deployment decision made by the caller (CLI flags, server config), so
command main packages outside examples/ and _test.go files are exempt.
Package-level re-exports of DefaultRetryPolicy remain allowed: they are
the opt-in surface itself.`,
	Run: runRetryDefault,
}

func runRetryDefault(pass *Pass) error {
	pkg := pass.Pkg
	// Commands are where a human explicitly turns resilience on; examples
	// are documentation and must model the default-off contract.
	if pkg.isMain() && !pkg.isExample() {
		return nil
	}
	for _, file := range pkg.Files {
		if isTestFile(pkg.fileName(file.Pos())) {
			continue
		}
		// Package-level specs named Default* are the opt-in surface itself
		// (the store definition and root-package re-exports); everything
		// inside them is exempt. Any other site is wiring and reports.
		exempt := make(map[ast.Node]bool)
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || !allDefaultNames(vs.Names) {
					continue
				}
				ast.Inspect(vs, func(n ast.Node) bool {
					if n != nil {
						exempt[n] = true
					}
					return true
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if exempt[n] {
				return true
			}
			switch n := n.(type) {
			case *ast.Ident:
				if isDefaultRetryPolicy(pass, n) {
					pass.Reportf(n.Pos(),
						"DefaultRetryPolicy referenced in library/example code enables retries silently; take a policy from the caller instead")
				}
			case *ast.CompositeLit:
				checkResilienceLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// allDefaultNames reports whether every name in the spec starts with
// "Default" — the naming convention marking a declared opt-in surface.
func allDefaultNames(names []*ast.Ident) bool {
	for _, n := range names {
		if len(n.Name) < len("Default") || n.Name[:len("Default")] != "Default" {
			return false
		}
	}
	return len(names) > 0
}

// isDefaultRetryPolicy reports whether id names a variable called
// DefaultRetryPolicy (the store definition or any package's re-export).
func isDefaultRetryPolicy(pass *Pass, id *ast.Ident) bool {
	if id.Name != "DefaultRetryPolicy" {
		return false
	}
	obj := pass.Pkg.Info.Uses[id]
	_, isVar := obj.(*types.Var)
	return isVar
}

// checkResilienceLiteral flags composite literals that enable retries.
func checkResilienceLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return
	}
	typeName := named.Obj().Name()
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if typeName == "RetryPolicy" && key.Name == "MaxAttempts" && !constAtMost(pass, kv.Value, 1) {
			pass.Reportf(kv.Pos(),
				"RetryPolicy with MaxAttempts > 1 in library/example code enables retries silently; the default-off contract keeps the paper's read accounting exact")
		}
	}
}

// constAtMost reports whether expr is a compile-time constant <= limit.
// Non-constant expressions report false: a library wiring a variable
// policy is exactly the silent-enablement the rule exists to surface.
func constAtMost(pass *Pass, expr ast.Expr, limit int64) bool {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return false
	}
	return v <= limit
}
