package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig2", "fig9", "census"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperimentTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "census"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# census:") || !strings.Contains(got, "non-systematic") {
		t.Errorf("unexpected output:\n%s", got)
	}
	// The Section V-A counts must appear.
	for _, v := range []string{"56", "44", "63"} {
		if !strings.Contains(got, v) {
			t.Errorf("output missing %s:\n%s", v, got)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "fig6", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Comment header + CSV header + 3 support rows.
	if len(lines) != 5 {
		t.Errorf("CSV lines = %d, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[1], "gamma,") {
		t.Errorf("CSV header = %q", lines[1])
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-run", "nope"}, &out); err == nil {
		t.Error("unknown experiment: want error")
	}
	if err := run(t.Context(), []string{"-format", "xml"}, &out); err == nil {
		t.Error("unknown format: want error")
	}
	// The pre-benchmark/ profile mode is gone, not renamed: its flag is
	// unknown.
	if err := run(t.Context(), []string{"-bench", "encode"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-bench: err = %v, want an unknown-flag error", err)
	}
}

// TestFaultDrillReport runs the -faults drill end to end and checks what
// is deterministic about its artifact: the two cases in order, and ordered
// quantiles. Latencies are machine-dependent, so no row is compared with
// another.
func TestFaultDrillReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the drill sleeps on a slowed node; skipped in -short mode")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-faults", "7", "-benchout", dir}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if report.Bench != "faults" || len(report.Results) != 2 {
		t.Fatalf("report = %+v, want the two faults rows", report)
	}
	for i, name := range []string{"clean", "slow-node"} {
		r := report.Results[i]
		if r.Name != name {
			t.Fatalf("row %d is %q, want %q", i, r.Name, name)
		}
		if r.Iterations <= 0 || !(r.P50Ns > 0 && r.P50Ns <= r.P99Ns) {
			t.Errorf("%s: implausible distribution %+v", name, r)
		}
	}
	if !strings.Contains(out.String(), "BENCH_faults.json") {
		t.Errorf("output does not name the artifact:\n%s", out.String())
	}
}
