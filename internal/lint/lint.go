// Package lint is secvet's analysis engine: a small, dependency-free
// counterpart of golang.org/x/tools/go/analysis that enforces this
// repository's invariants (see DESIGN.md section 11). The container this
// project builds in has no module proxy, so the framework is grown from
// the standard library. The go command is the only driver: under `go vet
// -vettool` it hands over one compilation unit at a time, which
// unitchecker.go typechecks against compiler export data; analyzers are
// written against the Pass API below.
//
// An intentional violation is silenced in place with a directive comment
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above it. The reason is mandatory:
// a directive without one is not honored, so every exception in the tree
// documents why it is one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is the one-paragraph rule statement shown by `secvet help`.
	Doc string
	// Run reports violations against the pass and returns a hard error
	// only when the analyzer itself cannot operate.
	Run func(*Pass) error
}

// All returns secvet's analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxCheck,
		ErrWrap,
		PoolCheck,
		LockHeld,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Package is one loaded, typechecked compilation unit.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	FileNames  []string
	Types      *types.Package
	Info       *types.Info
}

// Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer and collects reports.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	allows map[string][]allowDirective // file name -> directives
	diags  *[]Diagnostic
}

// Reportf records a violation at pos unless an allow directive for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allowed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfRegion records a violation at pos unless an allow directive
// covers either pos or the region anchor (for region-scoped rules like
// lockheld, one directive at the Lock site silences the whole held
// region — the lock is the design decision, not each call under it).
func (p *Pass) ReportfRegion(pos, anchor token.Pos, format string, args ...any) {
	if p.allowed(p.Pkg.Fset.Position(anchor)) {
		return
	}
	p.Reportf(pos, format, args...)
}

// allowed reports whether a //lint:allow directive for this analyzer
// covers the diagnostic's line (same line or the line above).
func (p *Pass) allowed(pos token.Position) bool {
	for _, d := range p.allows[pos.Filename] {
		if d.analyzer != p.Analyzer.Name {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	line     int
}

// allowRE matches `//lint:allow <analyzer> <reason>`; the reason must be
// non-empty or the directive is ignored.
var allowRE = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_-]+)\s+\S`)

// parseAllows collects allow directives per file.
func parseAllows(pkg *Package) map[string][]allowDirective {
	out := make(map[string][]allowDirective)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[pos.Filename] = append(out[pos.Filename], allowDirective{
					analyzer: m[1],
					line:     pos.Line,
				})
			}
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics in file/line order.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := parseAllows(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, allows: allows, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// --- shared helpers for analyzers ---

// isTestFile reports whether the file name is a _test.go file.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// fileOf returns the *ast.File containing pos.
func (pkg *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// fileName returns the file name of the file containing pos.
func (pkg *Package) fileName(pos token.Pos) string {
	return pkg.Fset.Position(pos).Filename
}

// isMain reports whether the package is a main package (command or
// example binary).
func (pkg *Package) isMain() bool {
	return pkg.Types != nil && pkg.Types.Name() == "main"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves the called function object of a call expression,
// if it is a statically known *types.Func.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeSignature returns the signature of the called expression, for
// both static and dynamic (function value) calls. Type conversions and
// builtin calls return nil.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// funcFrom reports the package path and name of fn's origin, handling
// methods (pkg of the receiver's type).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
