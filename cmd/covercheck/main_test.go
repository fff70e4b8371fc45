package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile drops contents into a temp dir and returns the path.
func writeFile(t *testing.T, name, contents string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const sampleProfile = `mode: set
example.com/m/pkga/a.go:10.2,12.3 3 1
example.com/m/pkga/a.go:14.2,16.3 1 0
example.com/m/pkgb/b.go:5.2,7.3 2 1
example.com/m/pkgb/b.go:9.2,11.3 2 1
`

func TestCoverageByPackage(t *testing.T) {
	blocks, err := parseProfile(writeFile(t, "cover.out", sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	pct := coverageByPackage(blocks)
	if got := pct["example.com/m/pkga"]; got != 75 {
		t.Errorf("pkga = %.1f%%, want 75%%", got)
	}
	if got := pct["example.com/m/pkgb"]; got != 100 {
		t.Errorf("pkgb = %.1f%%, want 100%%", got)
	}
}

// With -coverpkg, the same block shows up once per test binary; counts
// merge, so a block covered by ANY binary counts as covered.
func TestParseProfileMergesDuplicateBlocks(t *testing.T) {
	profile := `mode: set
example.com/m/pkga/a.go:10.2,12.3 3 0
example.com/m/pkga/a.go:10.2,12.3 3 1
example.com/m/pkga/a.go:14.2,16.3 1 0
example.com/m/pkga/a.go:14.2,16.3 1 0
`
	blocks, err := parseProfile(writeFile(t, "cover.out", profile))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("merged to %d blocks, want 2", len(blocks))
	}
	if got := coverageByPackage(blocks)["example.com/m/pkga"]; got != 75 {
		t.Errorf("merged pkga = %.1f%%, want 75%%", got)
	}
}

func TestRunPassesAtFloor(t *testing.T) {
	profile := writeFile(t, "cover.out", sampleProfile)
	floors := writeFile(t, "floors.json", `{"example.com/m/pkga": 75.0, "example.com/m/pkgb": 90.0}`)
	var out strings.Builder
	if err := run(profile, floors, "", &out); err != nil {
		t.Fatalf("coverage at floor must pass: %v", err)
	}
	if !strings.Contains(out.String(), "pkga") || !strings.Contains(out.String(), "pkgb") {
		t.Errorf("report missing a package:\n%s", out.String())
	}
}

func TestRunFailsBelowFloor(t *testing.T) {
	profile := writeFile(t, "cover.out", sampleProfile)
	floors := writeFile(t, "floors.json", `{"example.com/m/pkga": 80.0}`)
	var out strings.Builder
	err := run(profile, floors, "", &out)
	if err == nil {
		t.Fatal("75%% against an 80%% floor must fail")
	}
	if !strings.Contains(err.Error(), "pkga") || !strings.Contains(err.Error(), "80.0") {
		t.Errorf("failure does not name the package and floor: %v", err)
	}
}

func TestRunFailsOnMissingPackage(t *testing.T) {
	profile := writeFile(t, "cover.out", sampleProfile)
	floors := writeFile(t, "floors.json", `{"example.com/m/pkgc": 10.0}`)
	var out strings.Builder
	if err := run(profile, floors, "", &out); err == nil || !strings.Contains(err.Error(), "not in profile") {
		t.Fatalf("package absent from profile must fail the gate, got %v", err)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no colons here\n",
		"a.go:1.2,3.4 nonsense 1\n",
		"a.go:1.2,3.4 1\n",
	} {
		if _, err := parseProfile(writeFile(t, "cover.out", bad)); err == nil {
			t.Errorf("profile %q accepted", bad)
		}
	}
}

// A "path@variant" floor replaces the plain one only under its variant.
func TestRunPicksVariantFloors(t *testing.T) {
	profile := writeFile(t, "cover.out", sampleProfile)
	floors := writeFile(t, "floors.json", `{"example.com/m/pkga": 80.0, "example.com/m/pkga@slow": 70.0, "example.com/m/pkgb@other": 101.0}`)
	var out strings.Builder
	if err := run(profile, floors, "", &out); err == nil {
		t.Fatal("without a variant, pkga's 80% floor applies and 75% must fail")
	}
	out.Reset()
	if err := run(profile, floors, "slow", &out); err != nil {
		t.Fatalf("under variant slow, pkga's 70%% floor applies: %v", err)
	}
	if !strings.Contains(out.String(), "floor 70.0%") || strings.Contains(out.String(), "pkgb") {
		t.Errorf("variant slow report:\n%s", out.String())
	}
}
