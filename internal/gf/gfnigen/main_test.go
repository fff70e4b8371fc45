package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckedInKernelsAreGenerated keeps the kernels package gf builds from
// equal to what this generator writes: an edit to either side alone fails
// here, and go generate in internal/gf brings them back together.
func TestCheckedInKernelsAreGenerated(t *testing.T) {
	for name, want := range map[string][]byte{"gfni_amd64.s": asm(), "gfni_amd64.go": decls()} {
		got, err := os.ReadFile(filepath.Join("..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("internal/gf/%s differs from the generator's output; run go generate ./internal/gf", name)
		}
	}
}
