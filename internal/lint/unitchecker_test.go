package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeVetConfig materializes a vet config file the way `go vet
// -vettool` would for a single-file, import-free package.
func writeVetConfig(t *testing.T, cfg vetConfig) string {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunVetTool(t *testing.T) {
	dir := t.TempDir()
	// An import-free unit: poolcheck matches GetBuffers by its package's
	// name, so a package named erasure that drops an acquisition trips it.
	src := `package erasure

type Buffers struct{}

func (*Buffers) Release() {}

func GetBuffers() *Buffers { return &Buffers{} }

func leak() {
	GetBuffers()
}
`
	file := filepath.Join(dir, "p.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "p.vetx")
	cfgFile := writeVetConfig(t, vetConfig{
		ID:         "p",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "p",
		GoFiles:    []string{file},
		VetxOutput: vetx,
	})

	var out strings.Builder
	n, err := RunVetTool(cfgFile, All(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("got %d diagnostics, want 1; output:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "poolcheck") {
		t.Errorf("diagnostic should come from poolcheck, got:\n%s", out.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetx placeholder was not written: %v", err)
	}
}

func TestRunVetToolVetxOnly(t *testing.T) {
	vetx := filepath.Join(t.TempDir(), "p.vetx")
	cfgFile := writeVetConfig(t, vetConfig{
		ID:         "p",
		Compiler:   "gc",
		ImportPath: "p",
		VetxOnly:   true,
		VetxOutput: vetx,
	})
	var out strings.Builder
	n, err := RunVetTool(cfgFile, All(), &out)
	if err != nil || n != 0 {
		t.Fatalf("VetxOnly unit should analyze nothing, got n=%d err=%v", n, err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetx placeholder was not written: %v", err)
	}
}

func TestRunVetToolTypecheckFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "broken.go")
	if err := os.WriteFile(file, []byte("package p\n\nfunc f() int { return q }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := vetConfig{
		ID:         "p",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "p",
		GoFiles:    []string{file},
	}

	var out strings.Builder
	if _, err := RunVetTool(writeVetConfig(t, base), All(), &out); err == nil {
		t.Error("typecheck failure should surface as an error by default")
	}

	lenient := base
	lenient.SucceedOnTypecheckFailure = true
	n, err := RunVetTool(writeVetConfig(t, lenient), All(), &out)
	if err != nil || n != 0 {
		t.Errorf("SucceedOnTypecheckFailure should swallow the failure, got n=%d err=%v", n, err)
	}
}
