package main

import (
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/lint"
)

// TestVetToolHandshake pins the protocol surface the go command depends
// on: the -V=full identity line (folded into the build cache key) and
// the -flags JSON array.
func TestVetToolHandshake(t *testing.T) {
	var out, errOut strings.Builder
	if code := lint.Main([]string{"-V=full"}, &out, &errOut); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "secvet version ") {
		t.Errorf("-V=full must print a `secvet version ...` line, got %q", out.String())
	}

	out.Reset()
	if code := lint.Main([]string{"-flags"}, &out, &errOut); code != 0 {
		t.Fatalf("-flags exited %d", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-flags must print an empty JSON array, got %q", out.String())
	}
}

func TestHelp(t *testing.T) {
	var out, errOut strings.Builder
	if code := lint.Main([]string{"help"}, &out, &errOut); code != 0 {
		t.Fatalf("help exited %d", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("help output does not mention analyzer %q", a.Name)
		}
	}

	out.Reset()
	if code := lint.Main([]string{"help", "ctxcheck"}, &out, &errOut); code != 0 {
		t.Fatalf("help ctxcheck exited %d", code)
	}
	if !strings.Contains(out.String(), "ctx-first") {
		t.Errorf("help ctxcheck should print the rule statement, got %q", out.String())
	}

	if code := lint.Main([]string{"help", "nosuch"}, &out, &errOut); code != 1 {
		t.Errorf("help for an unknown analyzer should exit 1, got %d", code)
	}
}

// TestUsageError: secvet has one driver, the go command; package patterns
// and bare invocations are usage errors.
func TestUsageError(t *testing.T) {
	for _, args := range [][]string{{"./..."}, nil, {"-V=full", "./..."}} {
		var out, errOut strings.Builder
		if code := lint.Main(args, &out, &errOut); code != 1 {
			t.Errorf("secvet %q exited %d, want 1", args, code)
		}
		if !strings.Contains(errOut.String(), "usage:") || out.Len() != 0 {
			t.Errorf("secvet %q: stdout %q, stderr %q; want usage on stderr only", args, out.String(), errOut.String())
		}
	}
}
