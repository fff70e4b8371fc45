// Compression: compressed differential erasure codes plus the
// decoded-version read cache (DESIGN.md section 12). A gamma-sparse delta
// has only gamma non-zero blocks, so instead of coding k blocks of mostly
// zeros with the archive's (n,k) code, CDEC compacts the delta to its
// gamma blocks and codes them with a (gamma+n-k, gamma) code: the same
// n-k parity shards, hence the same fault tolerance, at a fraction of the
// storage and wire traffic. The effect is largest on low-redundancy codes
// - on (12,10), a one-block edit is 3 shards instead of 12.
//
// The walkthrough commits the same edit history twice - plain and
// compressed - and compares the bytes each put on the wire, verifies the
// compressed chain still survives n-k node failures, and then turns on
// the read cache to show hot re-reads costing zero node reads.
//
// Run with: go run ./examples/compression
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	sec "github.com/secarchive/sec"
)

const (
	n, k      = 12, 10
	blockSize = 512
	deltas    = 6
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// commitHistory commits one full version and a run of 1-sparse edits,
// returning the history and the wire bytes the delta commits cost.
func commitHistory(ctx context.Context, archive *sec.Archive, cluster *sec.Cluster) ([][]byte, uint64, error) {
	rng := rand.New(rand.NewSource(5))
	object := make([]byte, k*blockSize)
	rng.Read(object)
	history := [][]byte{append([]byte(nil), object...)}
	if _, err := archive.CommitContext(ctx, object); err != nil {
		return nil, 0, err
	}
	cluster.ResetWireStats() // price the deltas, not the identical anchor
	var err error
	for j := 0; j < deltas; j++ {
		object, err = sec.SparseEdit(rng, object, blockSize, 1)
		if err != nil {
			return nil, 0, err
		}
		history = append(history, append([]byte(nil), object...))
		if _, err := archive.CommitContext(ctx, object); err != nil {
			return nil, 0, err
		}
	}
	return history, cluster.WireStats().BytesWritten, nil
}

func run(ctx context.Context, w io.Writer) error {
	// The same history, committed plain and committed compressed.
	plainCluster := sec.NewMemCluster(n)
	plain, err := sec.NewArchive(sec.ArchiveConfig{
		Name: "plain", Scheme: sec.BasicSEC, Code: sec.NonSystematicCauchy,
		N: n, K: k, BlockSize: blockSize,
	}, plainCluster)
	if err != nil {
		return err
	}
	compCluster := sec.NewMemCluster(n)
	comp, err := sec.NewArchive(sec.ArchiveConfig{
		Name: "compressed", Scheme: sec.BasicSEC, Code: sec.NonSystematicCauchy,
		N: n, K: k, BlockSize: blockSize,
		CompressDeltas: true,
		ReadCacheBytes: 8 << 20,
	}, compCluster)
	if err != nil {
		return err
	}
	_, plainBytes, err := commitHistory(ctx, plain, plainCluster)
	if err != nil {
		return err
	}
	history, compBytes, err := commitHistory(ctx, comp, compCluster)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== %d one-block edits on a (%d,%d) archive, blocksize %d\n", deltas, n, k, blockSize)
	fmt.Fprintf(w, "plain delta commits:      %6d bytes on the wire (%d shards each)\n", plainBytes, n)
	fmt.Fprintf(w, "compressed delta commits: %6d bytes on the wire (%d shards each)\n", compBytes, 1+n-k)
	fmt.Fprintf(w, "reduction: %.1fx\n", float64(plainBytes)/float64(compBytes))

	fmt.Fprintf(w, "\n== what the manifest records\n")
	for _, e := range comp.Manifest().Entries {
		switch {
		case e.Compressed:
			fmt.Fprintf(w, "v%d: compressed delta, gamma=%d, support=%v\n", e.Version, e.Gamma, e.Support)
		case e.Delta:
			fmt.Fprintf(w, "v%d: plain delta, gamma=%d\n", e.Version, e.Gamma)
		default:
			fmt.Fprintf(w, "v%d: full codeword\n", e.Version)
		}
	}

	// The small code keeps the archive's n-k parity shards, so the
	// compressed chain survives the same n-k node failures.
	if err := compCluster.Fail(1, 7); err != nil {
		return err
	}
	for v, want := range history {
		got, _, err := comp.RetrieveContext(ctx, v+1)
		if err != nil {
			return fmt.Errorf("degraded retrieve v%d: %w", v+1, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("v%d differs under %d failed nodes", v+1, n-k)
		}
	}
	fmt.Fprintf(w, "\n== all %d versions verified byte-identical with %d nodes down\n", len(history), n-k)
	compCluster.HealAll()

	// The degraded walk warmed the decoded-version cache: re-reading the
	// tip now costs zero node reads.
	tip := len(history)
	got, stats, err := comp.RetrieveContext(ctx, tip)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, history[tip-1]) {
		return fmt.Errorf("cached tip differs")
	}
	fmt.Fprintf(w, "\n== hot re-read of v%d: %d node reads, %d cache hit (%d bytes served)\n",
		tip, stats.NodeReads, stats.CacheHits, stats.CacheBytes)
	if cs, ok := comp.ReadCacheStats(); ok {
		fmt.Fprintf(w, "cache: %d versions, %d/%d bytes, %d hits, %d misses\n",
			cs.Versions, cs.Bytes, cs.Budget, cs.Hits, cs.Misses)
	}
	return nil
}
