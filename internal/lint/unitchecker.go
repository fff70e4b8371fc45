package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// vetConfig mirrors the JSON config file the go command hands a
// -vettool for each package (see cmd/go/internal/work and
// golang.org/x/tools/go/analysis/unitchecker, whose protocol this
// reimplements on the standard library).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunVetTool executes one `go vet -vettool` package unit described by the
// config file: it typechecks the unit against the compiler's export data,
// runs every analyzer, prints surviving diagnostics to w, and returns
// their count. secvet exchanges no facts between packages, so the vetx
// output is written as an empty placeholder the go command can cache.
func RunVetTool(cfgFile string, analyzers []*Analyzer, w io.Writer) (int, error) {
	raw, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, fmt.Errorf("lint: reading vet config: %w", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return 0, fmt.Errorf("lint: parsing vet config %s: %w", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("secvet: no facts\n"), 0o666); err != nil {
			return 0, fmt.Errorf("lint: writing vetx output: %w", err)
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return 0, nil // only gc export data is readable here
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, f := range cfg.GoFiles {
		parsed, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, fmt.Errorf("lint: parsing %s: %w", f, err)
		}
		files = append(files, parsed)
		names = append(names, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := typecheckFiles(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoVersion, files, names)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}

	diags, err := RunAnalyzers(analyzers, []*Package{pkg})
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}

// typecheckFiles typechecks one compilation unit from already-parsed
// files.
func typecheckFiles(fset *token.FileSet, imp types.Importer, importPath, dir, goVersion string, files []*ast.File, names []string) (*Package, error) {
	info := newTypesInfo()
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(error) {}, // keep going; first hard error returned below
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		FileNames:  names,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// newTypesInfo returns a types.Info with every map analyzers consume.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
