package sec_test

// Documentation checks, run by the CI docs job: every exported identifier
// in the root package carries a doc comment, every relative link in the
// repository's markdown files resolves to a real file, and every example
// has a row in examples/README.md.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsEveryExportedSymbolDocumented parses the root package and fails
// for any exported type, function, method, constant, or variable without
// a doc comment (on the declaration, its group, or its spec).
func TestDocsEveryExportedSymbolDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["sec"]
	if !ok {
		t.Fatalf("root package sec not found (got %v)", pkgs)
	}
	var undocumented []string
	report := func(pos token.Pos, name string) {
		undocumented = append(undocumented, fset.Position(pos).String()+": "+name)
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc.Text() == "" {
					report(d.Pos(), "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
							report(s.Pos(), "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
								report(s.Pos(), "value "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	for _, miss := range undocumented {
		t.Errorf("undocumented exported symbol: %s", miss)
	}
}

var markdownLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsMarkdownLinksResolve walks every *.md in the repository and
// checks that relative links point at files (or directories) that exist.
// External links (http, https, mailto) and pure anchors are skipped.
func TestDocsMarkdownLinksResolve(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(raw), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") || strings.HasPrefix(link, "#") {
				continue
			}
			if i := strings.IndexByte(link, '#'); i >= 0 {
				link = link[:i]
			}
			target := filepath.Join(filepath.Dir(md), link)
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: broken link %q (%v)", md, m[1], err)
			}
		}
	}
}

// TestDocsEveryExampleListed requires a row in examples/README.md, linking
// its main.go, for every directory under examples/. The link check above
// fails on a row whose directory is gone.
func TestDocsEveryExampleListed(t *testing.T) {
	readme, err := os.ReadFile("examples/README.md")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !strings.Contains(string(readme), "| ["+d.Name()+"]("+d.Name()+"/main.go) |") {
			t.Errorf("examples/%s has no row in examples/README.md", d.Name())
		}
	}
}
