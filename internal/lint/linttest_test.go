package lint

import (
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools/go/analysis/analysistest
// in miniature: each testdata/<analyzer> directory is a self-contained
// module whose sources carry `// want "substring"` markers on the lines
// where the analyzer must report, and nowhere else. Fixtures run through
// the one driver secvet has, `go vet -vettool`. A fixture run fails
// on both missed and unexpected diagnostics, so the positive and negative
// cases live side by side in the same files.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type wantMark struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants scans every .go file under dir for want markers.
func collectWants(t *testing.T, dir string) []*wantMark {
	t.Helper()
	var wants []*wantMark
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &wantMark{file: path, line: i + 1, substr: m[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixture %s: %v", dir, err)
	}
	return wants
}

// matchWant consumes the first unmatched marker covering the diagnostic.
func matchWant(wants []*wantMark, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			strings.Contains(d.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// secvet is cmd/secvet built from this checkout, once per test binary;
// TestMain removes it.
var secvet struct {
	once     sync.Once
	dir, bin string
	err      error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if secvet.dir != "" {
		_ = os.RemoveAll(secvet.dir)
	}
	os.Exit(code)
}

func secvetBinary(t *testing.T) string {
	t.Helper()
	secvet.once.Do(func() {
		if secvet.dir, secvet.err = os.MkdirTemp("", "secvet"); secvet.err != nil {
			return
		}
		secvet.bin = filepath.Join(secvet.dir, "secvet")
		out, err := exec.Command("go", "build", "-o", secvet.bin, "github.com/secarchive/sec/cmd/secvet").CombinedOutput()
		if err != nil {
			secvet.err = fmt.Errorf("%w\n%s", err, out)
		}
	})
	if secvet.err != nil {
		t.Fatalf("building secvet: %v", secvet.err)
	}
	return secvet.bin
}

// diagRE matches one diagnostic line as go vet relays it.
var diagRE = regexp.MustCompile(`^(.+):(\d+):(\d+): (.*) \[([a-z]+)\]$`)

// vet runs `go vet -vettool=secvet ./...` in dir - the way CI runs secvet,
// test units included - and returns the diagnostics it reports. Any other
// output, or a failure that reports none, fails the test.
func vet(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+secvetBinary(t), "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue // blank, or the package header go vet prints
		}
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("go vet in %s: %v\n%s", dir, err, out)
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		row, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, Diagnostic{
			Analyzer: m[5],
			Pos:      token.Position{Filename: file, Line: row, Column: col},
			Message:  m[4],
		})
	}
	if err != nil && len(diags) == 0 {
		t.Fatalf("go vet in %s failed without a diagnostic: %v\n%s", dir, err, out)
	}
	return diags
}

// runFixture vets testdata/<name> as its own module and checks the
// diagnostics against the want markers exactly: every one from the named
// analyzer, on a marked line.
func runFixture(t *testing.T, name string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want markers; a fixture must assert something", name)
	}
	for _, d := range vet(t, dir) {
		if d.Analyzer != name || !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic containing %q was reported", w.file, w.line, w.substr)
		}
	}
}

func TestCtxCheckFixture(t *testing.T)  { runFixture(t, CtxCheck.Name) }
func TestErrWrapFixture(t *testing.T)   { runFixture(t, ErrWrap.Name) }
func TestPoolCheckFixture(t *testing.T) { runFixture(t, PoolCheck.Name) }
func TestLockHeldFixture(t *testing.T)  { runFixture(t, LockHeld.Name) }

// TestModuleClean is the secvet gate: go vet -vettool over the module,
// test units included, reports nothing, so any diagnostic is a
// regression introduced by the change under test, not pre-existing noise.
func TestModuleClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test caches a pass on the files the test process itself touches,
	// and go vet reads the module in a child process: stat every Go file
	// here, so an edit anywhere in the module runs the test again.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vet(t, root) {
		t.Errorf("module is expected to be secvet-clean, got: %s", d)
	}
}

// TestLookup pins the analyzer registry: every analyzer is reachable by
// name and unknown names miss.
func TestLookup(t *testing.T) {
	for _, a := range All() {
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not return the registered analyzer", a.Name)
		}
	}
	if Lookup("nosuch") != nil {
		t.Error("Lookup of an unknown name should return nil")
	}
}

// TestAllowRequiresReason pins the directive grammar: no reason, no
// suppression.
func TestAllowRequiresReason(t *testing.T) {
	for directive, ok := range map[string]bool{
		"//lint:allow lockheld serialized by design": true,
		"//lint:allow lockheld":                      false,
		"//lint:allow":                               false,
		"// lint:allow lockheld reason":              false,
	} {
		if got := allowRE.MatchString(directive); got != ok {
			t.Errorf("allowRE.MatchString(%q) = %v, want %v", directive, got, ok)
		}
	}
}
