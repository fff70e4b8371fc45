package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// The fault drill (-faults <seed>): retrieval of the tip of a 1-full +
// 4-sparse-delta chain with node 0 running a seeded ChaosNode that slows
// every read by ~10x the healthy p50. Two cases land in BENCH_faults.json:
// a clean cluster, and the slow node, which the warmup read meets and marks
// slow so that every measured read plans its rows last and reads around it.
// Tail latency is the product here, so the results carry p50/p99 alongside
// the mean.

// benchResult is one measured case of the drill.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// The latency distribution: tail latency is the whole point of the
	// drill, so the mean alone would hide the straggler.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// benchReport is the BENCH_faults.json document.
type benchReport struct {
	Bench       string        `json:"bench"`
	Description string        `json:"description"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Results     []benchResult `json:"results"`
}

// faultChain builds the canonical 1-full + 4-sparse-delta chain over the
// given nodes.
func faultChain(ctx context.Context, nodes []sec.StorageNode) (*sec.Archive, error) {
	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         20,
		K:         10,
		BlockSize: 4096,
	}, cluster)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(ctx, v); err != nil {
		return nil, err
	}
	for j := 0; j < 4; j++ {
		next, err := sec.SparseEdit(rng, v, 4096, 2)
		if err != nil {
			return nil, err
		}
		if _, err := archive.CommitContext(ctx, next); err != nil {
			return nil, err
		}
		v = next
	}
	return archive, nil
}

// latencyProfile runs fn iters times (after one warmup call) and returns
// the mean, p50, and p99 latency in nanoseconds.
func latencyProfile(ctx context.Context, iters int, fn func() error) (mean, p50, p99 float64, err error) {
	if err := fn(); err != nil {
		return 0, 0, 0, err
	}
	samples := make([]time.Duration, 0, iters)
	var total time.Duration
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(start)
		samples = append(samples, d)
		total += d
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(q int) float64 {
		i := len(samples) * q / 100
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return float64(samples[i].Nanoseconds())
	}
	return float64(total.Nanoseconds()) / float64(len(samples)), pick(50), pick(99), nil
}

// runFaultBench measures the two fault-drill cases and writes
// BENCH_faults.json into outDir.
func runFaultBench(ctx context.Context, seed int64, outDir string, out io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating bench output dir: %w", err)
	}

	// Calibrate against a healthy cluster first so the straggler is slow
	// relative to this machine, not to a hard-coded latency.
	baseline, err := faultChain(ctx, memNodes(20, nil))
	if err != nil {
		return err
	}
	_, baseP50, _, err := latencyProfile(ctx, 20, func() error {
		_, _, err := baseline.RetrieveContext(ctx, 5)
		return err
	})
	if err != nil {
		return err
	}
	slow := 10 * time.Duration(baseP50)
	if slow < 5*time.Millisecond {
		slow = 5 * time.Millisecond
	}

	slowRule := func() *faults.ChaosNode {
		chaos := faults.NewChaosNode(store.NewMemNode("slow-0"), faults.Schedule{
			Seed:  seed,
			Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: slow}},
		})
		return chaos
	}
	report := benchReport{
		Bench: "faults",
		Description: fmt.Sprintf("(20,10) BasicSEC Retrieve(5): clean vs node 0 slowed by %v (seed %d)",
			slow, seed),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	cases := []struct {
		name  string
		chaos *faults.ChaosNode
		iters int
	}{
		{"clean", nil, 40},
		{"slow-node", slowRule(), 40},
	}
	for _, c := range cases {
		archive, err := faultChain(ctx, memNodes(20, c.chaos))
		if err != nil {
			return fmt.Errorf("case %s: %w", c.name, err)
		}
		mean, p50, p99, err := latencyProfile(ctx, c.iters, func() error {
			_, _, err := archive.RetrieveContext(ctx, 5)
			return err
		})
		if err != nil {
			return fmt.Errorf("case %s: %w", c.name, err)
		}
		report.Results = append(report.Results, benchResult{
			Name:       c.name,
			Iterations: c.iters,
			NsPerOp:    mean,
			P50Ns:      p50,
			P99Ns:      p99,
		})
	}

	path := filepath.Join(outDir, "BENCH_faults.json")
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range report.Results {
		if _, err := fmt.Fprintf(out, "faults/%s: %d iters, p50 %.2fms, p99 %.2fms\n",
			r.Name, r.Iterations, r.P50Ns/1e6, r.P99Ns/1e6); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(out, "wrote %s\n", path); err != nil {
		return err
	}
	return nil
}

// memNodes builds n in-memory nodes, substituting chaos for node 0 when
// given.
func memNodes(n int, chaos *faults.ChaosNode) []sec.StorageNode {
	nodes := make([]sec.StorageNode, n)
	for i := range nodes {
		nodes[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	if chaos != nil {
		nodes[0] = chaos
	}
	return nodes
}
