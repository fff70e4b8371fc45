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
	"strings"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// Machine-readable micro-benchmarks. Unlike the paper experiments (exact,
// deterministic tables), these measure wall time of the hot paths so CI
// can track the performance trajectory; each run writes one
// BENCH_<name>.json artifact.

// benchResult is one measured case within a benchmark.
type benchResult struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MBPerS     float64 `json:"mb_per_s,omitempty"`
	BytesPerOp int64   `json:"bytes_per_op,omitempty"`
	// RPC accounting per operation, for the TCP benchmarks: how many get
	// RPCs and liveness pings one retrieval costs.
	GetRPCsPerOp  float64 `json:"get_rpcs_per_op,omitempty"`
	PingRPCsPerOp float64 `json:"ping_rpcs_per_op,omitempty"`
	// Wire accounting per operation: shard payload bytes moved between the
	// archive client and the nodes (framing excluded). These are the
	// bytes-on-wire the compression benchmark compares.
	WireBytesReadPerOp    float64 `json:"wire_bytes_read_per_op,omitempty"`
	WireBytesWrittenPerOp float64 `json:"wire_bytes_written_per_op,omitempty"`
	// CacheHitsPerOp counts decoded-version read cache hits per operation,
	// for the cached hot-read benchmark.
	CacheHitsPerOp float64 `json:"cache_hits_per_op,omitempty"`
	// Latency distribution and hedging accounting, for the fault-drill
	// benchmark (-faults): tail latency is the whole point there, so the
	// mean alone would hide the straggler.
	P50Ns       float64 `json:"p50_ns,omitempty"`
	P99Ns       float64 `json:"p99_ns,omitempty"`
	HedgesPerOp float64 `json:"hedges_per_op,omitempty"`
	// P999Ns extends the distribution to the 99.9th percentile for the
	// sustained-load benchmark, where the deep tail is the signal.
	P999Ns float64 `json:"p999_ns,omitempty"`
	// Errors counts unexpected operation failures; typed backpressure
	// (busy, conflict) is reported separately and is not an error.
	Errors int64 `json:"errors,omitempty"`
	// Busy and Conflicts count typed admission rejections for the load
	// benchmark's write paths.
	Busy      int64 `json:"busy,omitempty"`
	Conflicts int64 `json:"conflicts,omitempty"`
}

// benchNode attributes served RPCs and wire bytes to one storage node,
// for the load benchmark's per-node accounting.
type benchNode struct {
	Node         string `json:"node"`
	Requests     uint64 `json:"requests"`
	Gets         uint64 `json:"gets"`
	Puts         uint64 `json:"puts"`
	Deletes      uint64 `json:"deletes,omitempty"`
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
}

// benchReport is the BENCH_*.json document.
type benchReport struct {
	Bench       string        `json:"bench"`
	Description string        `json:"description"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Results     []benchResult `json:"results"`
	// Nodes carries per-node RPC and wire-byte attribution for the load
	// benchmark; empty elsewhere.
	Nodes []benchNode `json:"nodes,omitempty"`
}

// benchIDs lists the available benchmarks in run order.
func benchIDs() []string {
	return []string{"encode", "retrieve", "tcp-retrieve", "compress", "gateway", "load"}
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// runBenchmarks executes the selected benchmarks and writes one JSON
// artifact per benchmark into outDir.
func runBenchmarks(ctx context.Context, id, outDir string, out io.Writer) error {
	ids := benchIDs()
	if id != "all" {
		found := false
		for _, b := range ids {
			if b == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown benchmark %q (want one of %s, or 'all')", id, strings.Join(benchIDs(), ", "))
		}
		ids = []string{id}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating bench output dir: %w", err)
	}
	for _, b := range ids {
		var report benchReport
		var err error
		switch b {
		case "encode":
			report, err = benchEncode(ctx)
		case "retrieve":
			report, err = benchRetrieve(ctx)
		case "tcp-retrieve":
			report, err = benchTCPRetrieve(ctx)
		case "compress":
			report, err = benchCompress(ctx)
		case "gateway":
			report, err = benchGateway(ctx)
		case "load":
			report, err = benchLoad(ctx)
		}
		if err != nil {
			return fmt.Errorf("bench %s: %w", b, err)
		}
		path := filepath.Join(outDir, "BENCH_"+strings.ReplaceAll(b, "-", "_")+".json")
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		for _, r := range report.Results {
			if _, err := fmt.Fprintf(out, "%s/%s: %d iters, %.0f ns/op", b, r.Name, r.Iterations, r.NsPerOp); err != nil {
				return err
			}
			if r.MBPerS > 0 {
				if _, err := fmt.Fprintf(out, ", %.1f MB/s", r.MBPerS); err != nil {
					return err
				}
			}
			if r.GetRPCsPerOp > 0 {
				if _, err := fmt.Fprintf(out, ", %.1f get RPCs/op", r.GetRPCsPerOp); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(out, "wrote %s\n", path); err != nil {
			return err
		}
	}
	return nil
}

// measure runs fn repeatedly (after one warmup call) until minDuration has
// elapsed, maxIters is reached, or ctx is cancelled, returning the
// iteration count and mean ns/op.
func measure(ctx context.Context, fn func() error) (int, float64, error) {
	const (
		minDuration = 150 * time.Millisecond
		maxIters    = 2000
	)
	if err := fn(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	iters := 0
	for time.Since(start) < minDuration && iters < maxIters {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		if err := fn(); err != nil {
			return 0, 0, err
		}
		iters++
	}
	return iters, float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

func mbPerS(bytesPerOp int64, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(bytesPerOp) / nsPerOp * 1e9 / 1e6
}

// benchEncode measures (20,10) erasure encoding throughput at 64 KiB
// blocks, the coding substrate every commit pays.
func benchEncode(ctx context.Context) (benchReport, error) {
	report := benchReport{
		Bench:       "encode",
		Description: "(20,10) non-systematic Cauchy EncodeInto over 10x64KiB blocks",
		GoMaxProcs:  gomaxprocs(),
	}
	const blockSize = 64 << 10
	code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
	if err != nil {
		return report, err
	}
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]byte, 10)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
		rng.Read(blocks[i])
	}
	shards := erasure.GetBuffers(20, blockSize)
	defer shards.Release()
	iters, nsPerOp, err := measure(ctx, func() error {
		return code.EncodeInto(blocks, shards.Blocks)
	})
	if err != nil {
		return report, err
	}
	bytesPerOp := int64(10 * blockSize)
	report.Results = append(report.Results, benchResult{
		Name:       "encode-into",
		Iterations: iters,
		NsPerOp:    nsPerOp,
		BytesPerOp: bytesPerOp,
		MBPerS:     mbPerS(bytesPerOp, nsPerOp),
	})
	return report, nil
}

// chainArchive commits one full (20,10) version and four 2-sparse deltas,
// the canonical SEC chain the retrieval benchmarks read back.
func chainArchive(ctx context.Context, cluster *sec.Cluster) (*sec.Archive, int, error) {
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         20,
		K:         10,
		BlockSize: 4096,
	}, cluster)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(2))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(ctx, v); err != nil {
		return nil, 0, err
	}
	for j := 0; j < 4; j++ {
		next, err := sec.SparseEdit(rng, v, 4096, 2)
		if err != nil {
			return nil, 0, err
		}
		if _, err := archive.CommitContext(ctx, next); err != nil {
			return nil, 0, err
		}
		v = next
	}
	return archive, len(v), nil
}

// benchRetrieve measures chain-tip retrieval on in-memory nodes: the
// decode and planning cost without any wire.
func benchRetrieve(ctx context.Context) (benchReport, error) {
	report := benchReport{
		Bench:       "retrieve",
		Description: "(20,10) BasicSEC Retrieve(5) of 1 full + 4 sparse deltas on in-memory nodes",
		GoMaxProcs:  gomaxprocs(),
	}
	archive, size, err := chainArchive(ctx, sec.NewMemCluster(20))
	if err != nil {
		return report, err
	}
	iters, nsPerOp, err := measure(ctx, func() error {
		_, _, err := archive.RetrieveContext(ctx, 5)
		return err
	})
	if err != nil {
		return report, err
	}
	report.Results = append(report.Results, benchResult{
		Name:       "mem-chain",
		Iterations: iters,
		NsPerOp:    nsPerOp,
		BytesPerOp: int64(size),
		MBPerS:     mbPerS(int64(size), nsPerOp),
	})
	return report, nil
}

// benchTCPRetrieve measures the same chain retrieval over 20 loopback TCP
// nodes, reporting wall time and RPCs per retrieval. This is the benchmark
// CI tracks: a retrieval must issue one get RPC per node touched, not one
// per shard, and one liveness ping per node.
func benchTCPRetrieve(ctx context.Context) (benchReport, error) {
	report := benchReport{
		Bench:       "tcp-retrieve",
		Description: "(20,10) BasicSEC Retrieve(5) over 20 loopback TCP nodes: one get batch per node touched",
		GoMaxProcs:  gomaxprocs(),
	}
	const n = 20
	nodes := make([]sec.StorageNode, n)
	servers := make([]*transport.Server, n)
	for i := 0; i < n; i++ {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return report, err
		}
		defer srv.Close()
		client := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String())
		defer client.Close()
		nodes[i] = client
		servers[i] = srv
	}
	sumRPCs := func() (gets, pings uint64) {
		for _, srv := range servers {
			st := srv.RequestStats()
			gets += st.Gets + st.GetBatches
			pings += st.Pings
		}
		return gets, pings
	}
	cluster := sec.NewCluster(nodes)
	archive, size, err := chainArchive(ctx, cluster)
	if err != nil {
		return report, err
	}
	cluster.ResetWireStats()
	getsBefore, pingsBefore := sumRPCs()
	iters, nsPerOp, err := measure(ctx, func() error {
		_, _, err := archive.RetrieveContext(ctx, 5)
		return err
	})
	if err != nil {
		return report, err
	}
	getsAfter, pingsAfter := sumRPCs()
	// The warmup iteration is inside the RPC window too.
	ops := float64(iters + 1)
	report.Results = append(report.Results, benchResult{
		Name:               "batched",
		Iterations:         iters,
		NsPerOp:            nsPerOp,
		BytesPerOp:         int64(size),
		MBPerS:             mbPerS(int64(size), nsPerOp),
		GetRPCsPerOp:       float64(getsAfter-getsBefore) / ops,
		PingRPCsPerOp:      float64(pingsAfter-pingsBefore) / ops,
		WireBytesReadPerOp: float64(cluster.WireStats().BytesRead) / ops,
	})
	return report, nil
}

// benchCompress measures the wire effect of compressed differential
// erasure codes (DESIGN.md section 12) on a low-redundancy archive, where
// the saving is largest: a (12,10) code stores a gamma=1 delta as 12
// plain shards but only gamma+n-k = 3 compressed ones. Commit and
// retrieve wire bytes are reported for both modes on in-memory nodes,
// then a cached hot read is measured over loopback TCP, where a warm
// decoded-version cache must serve repeats with zero get RPCs.
func benchCompress(ctx context.Context) (benchReport, error) {
	report := benchReport{
		Bench:       "compress",
		Description: "(12,10) BasicSEC gamma=1 chain: plain vs compressed delta wire bytes, and TCP hot reads from the decoded-version cache",
		GoMaxProcs:  gomaxprocs(),
	}
	const (
		blockSize = 4096
		deltas    = 8
	)
	for _, mode := range []struct {
		name     string
		compress bool
	}{
		{"plain", false},
		{"compressed", true},
	} {
		cluster := sec.NewMemCluster(12)
		archive, err := sec.NewArchive(sec.ArchiveConfig{
			Name:           "bench-compress",
			Scheme:         sec.BasicSEC,
			Code:           sec.NonSystematicCauchy,
			N:              12,
			K:              10,
			BlockSize:      blockSize,
			CompressDeltas: mode.compress,
		}, cluster)
		if err != nil {
			return report, err
		}
		rng := rand.New(rand.NewSource(3))
		v := make([]byte, archive.Capacity())
		rng.Read(v)
		if _, err := archive.CommitContext(ctx, v); err != nil {
			return report, err
		}
		// Commit wire bytes: the anchor full version is identical in both
		// modes, so the window covers only the delta commits.
		cluster.ResetWireStats()
		start := time.Now()
		for j := 0; j < deltas; j++ {
			next, err := sec.SparseEdit(rng, v, blockSize, 1)
			if err != nil {
				return report, err
			}
			if _, err := archive.CommitContext(ctx, next); err != nil {
				return report, err
			}
			v = next
		}
		elapsed := time.Since(start)
		report.Results = append(report.Results, benchResult{
			Name:                  "commit-" + mode.name,
			Iterations:            deltas,
			NsPerOp:               float64(elapsed.Nanoseconds()) / deltas,
			WireBytesWrittenPerOp: float64(cluster.WireStats().BytesWritten) / deltas,
		})
		cluster.ResetWireStats()
		iters, nsPerOp, err := measure(ctx, func() error {
			_, _, err := archive.RetrieveContext(ctx, archive.Versions())
			return err
		})
		if err != nil {
			return report, err
		}
		report.Results = append(report.Results, benchResult{
			Name:               "retrieve-" + mode.name,
			Iterations:         iters,
			NsPerOp:            nsPerOp,
			BytesPerOp:         int64(len(v)),
			MBPerS:             mbPerS(int64(len(v)), nsPerOp),
			WireBytesReadPerOp: float64(cluster.WireStats().BytesRead) / float64(iters+1),
		})
	}
	// Cached hot reads over TCP: one warming retrieval fills the
	// decoded-version cache; every repeat must be served from memory.
	const n = 12
	nodes := make([]sec.StorageNode, n)
	servers := make([]*transport.Server, n)
	for i := 0; i < n; i++ {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return report, err
		}
		defer srv.Close()
		client := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String())
		defer client.Close()
		nodes[i] = client
		servers[i] = srv
	}
	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:           "bench-compress-tcp",
		Scheme:         sec.BasicSEC,
		Code:           sec.NonSystematicCauchy,
		N:              n,
		K:              10,
		BlockSize:      blockSize,
		CompressDeltas: true,
		ReadCacheBytes: 8 << 20,
	}, cluster)
	if err != nil {
		return report, err
	}
	rng := rand.New(rand.NewSource(4))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(ctx, v); err != nil {
		return report, err
	}
	for j := 0; j < 4; j++ {
		next, err := sec.SparseEdit(rng, v, blockSize, 1)
		if err != nil {
			return report, err
		}
		if _, err := archive.CommitContext(ctx, next); err != nil {
			return report, err
		}
		v = next
	}
	tip := archive.Versions()
	if _, _, err := archive.RetrieveContext(ctx, tip); err != nil {
		return report, err
	}
	sumGets := func() (gets uint64) {
		for _, srv := range servers {
			st := srv.RequestStats()
			gets += st.Gets + st.GetBatches
		}
		return gets
	}
	getsBefore := sumGets()
	hitsBefore, _ := archive.ReadCacheStats()
	iters, nsPerOp, err := measure(ctx, func() error {
		_, _, err := archive.RetrieveContext(ctx, tip)
		return err
	})
	if err != nil {
		return report, err
	}
	getsAfter := sumGets()
	hitsAfter, _ := archive.ReadCacheStats()
	ops := float64(iters + 1)
	report.Results = append(report.Results, benchResult{
		Name:           "tcp-hot-read-cached",
		Iterations:     iters,
		NsPerOp:        nsPerOp,
		BytesPerOp:     int64(len(v)),
		MBPerS:         mbPerS(int64(len(v)), nsPerOp),
		GetRPCsPerOp:   float64(getsAfter-getsBefore) / ops,
		CacheHitsPerOp: float64(hitsAfter.Hits-hitsBefore.Hits) / ops,
	})
	return report, nil
}
