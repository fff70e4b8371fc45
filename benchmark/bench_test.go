package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// quickSeconds scales every op count to about a hundredth: enough to run
// each phase of each workload, not enough to measure anything.
const quickSeconds = 0.15

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the metric and
// workload tables in the code in step, name by name and unit by unit.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, declared []manifestMetric, code []metricDecl, bounded bool) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(code))
			return
		}
		for i, d := range declared {
			if d.Name != code[i].name || d.Unit != code[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s in %s, the code %s in %s", kind, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s metric name %q is not a valid name", kind, d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound missing, unexpected or outside (0, 0.25]", kind, d.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEndMetrics, true)
	compare("per_layer", m.PerLayer, perLayerMetrics, false)
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(m.Workloads), len(ws))
	}
	for i, w := range m.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the op counts are tuned for %d", m.RunSeconds, refSeconds)
	}
}

// TestQuickRuns drives every workload through both modes at quick scale:
// the benchmark keeps compiling, every declared metric is emitted with its
// unit on every workload (measure checks the report against the
// declarations), every byte and read count still verifies, and the formula
// check is live on sparse_read.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloads() {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				rep, err := measure(context.Background(), config{workload: w.name, seed: 7, seconds: quickSeconds, trace: trace, out: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("%d of %d ops failed", rep.failed, rep.attempted)
				}
			})
		}
	}
}

// TestQuietest: a run reports from the replicates that lost at most
// quietShare of the CPU time to the host, and from the three that lost least
// when fewer than three did.
func TestQuietest(t *testing.T) {
	for _, c := range []struct {
		stolen []float64
		want   []int
	}{
		{[]float64{0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4}},
		{[]float64{0.2, 0.001, 0.3, 0, 0.005}, []int{3, 1, 4}},
		{[]float64{0.2, 0.1, 0.3, 0, 0.4}, []int{3, 1, 0}},
		{[]float64{0.5}, []int{0}},
	} {
		if got := quietest(c.stolen); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("quietest(%v) = %v, want %v", c.stolen, got, c.want)
		}
	}
}

// TestFormulaReads pins the benchmark's own formula (3): k reads for the
// first version, min(2*gamma, k) more per delta walked.
func TestFormulaReads(t *testing.T) {
	gammas := []int{0, 1, 4, 5, 10, 2}
	for l, want := range map[int]int{1: 10, 2: 12, 3: 20, 4: 30, 5: 40, 6: 44} {
		if got := formulaReads(gammas, l, 10); got != want {
			t.Errorf("formulaReads(l=%d) = %d, want %d", l, got, want)
		}
	}
}

// TestSparseEditChangesExactlyGamma checks the generator's edits against
// its own block comparison: gamma blocks differ, no more, no fewer.
func TestSparseEditChangesExactlyGamma(t *testing.T) {
	rng := newRNG(3, streamEdit, 0)
	const block = 512
	object := make([]byte, codeK*block)
	rng.Read(object)
	for gamma := 1; gamma <= codeK; gamma++ {
		before := append([]byte(nil), object...)
		sparseEdit(rng, object, block, gamma)
		changed := 0
		for b := 0; b < codeK; b++ {
			if string(before[b*block:(b+1)*block]) != string(object[b*block:(b+1)*block]) {
				changed++
			}
		}
		if changed != gamma {
			t.Errorf("edit with gamma %d changed %d blocks", gamma, changed)
		}
	}
}

// TestPlansRepeat: the same seed gives the same ops and payload bytes, a
// different seed different ones, for every workload and both client counts.
func TestPlansRepeat(t *testing.T) {
	for _, w := range workloads() {
		for _, clients := range []int{1, 2} {
			digest := func(seed int64) uint64 {
				return planDigest(w, w.build(seed, clients, 0.02, clients == 1))
			}
			if a, b := digest(5), digest(5); a != b {
				t.Errorf("%s with %d clients: seed 5 gave digests %x and %x", w.name, clients, a, b)
			}
			if a, b := digest(5), digest(6); a == b {
				t.Errorf("%s with %d clients: seeds 5 and 6 gave the same digest %x", w.name, clients, a)
			}
		}
	}
}

// TestStratifiedPlansCostTheSame: on sparse_read the summed formula cost of
// all planned retrieves is the same for every seed, which is what lets
// shard_reads_per_retrieve repeat across seeds.
func TestStratifiedPlansCostTheSame(t *testing.T) {
	w, err := findWorkload("sparse_read")
	if err != nil {
		t.Fatal(err)
	}
	cost := func(seed int64) int {
		p := w.build(seed, 2, 1, false)
		total := 0
		for _, ops := range p.main {
			for _, o := range ops {
				if o.kind == opRetrieve {
					total += formulaReads(p.archives[o.arch].preload, int(o.arg), codeK)
				}
			}
		}
		return total
	}
	if a, b := cost(1), cost(2); a != b {
		t.Errorf("seeds 1 and 2 plan %d and %d shard reads", a, b)
	}
}
