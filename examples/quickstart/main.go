// Quickstart: store five versions of an object with SEC and read them back,
// reproducing the I/O numbers of the paper's Section III-D example.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	sec "github.com/secarchive/sec"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	const (
		n, k      = 20, 10
		blockSize = 1024
	)
	// A growable in-memory cluster stands in for the distributed back
	// end; every node counts its reads.
	cluster := sec.NewMemCluster(n)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "quickstart",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}
	baseline, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "baseline",
		Scheme:    sec.NonDifferential,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}

	// Version 1 is arbitrary content; versions 2..5 modify 3, 8, 3 and 6
	// of the 10 blocks (the paper's gamma sequence).
	rng := rand.New(rand.NewSource(42))
	version := make([]byte, archive.Capacity())
	rng.Read(version)
	gammas := []int{3, 8, 3, 6}
	fmt.Fprintln(w, "committing 5 versions (gammas 3, 8, 3, 6)...")
	for v := 0; v < 5; v++ {
		if v > 0 {
			version, err = sec.SparseEdit(rng, version, blockSize, gammas[v-1])
			if err != nil {
				return err
			}
		}
		info, err := archive.CommitContext(ctx, version)
		if err != nil {
			return err
		}
		if _, err := baseline.CommitContext(ctx, version); err != nil {
			return err
		}
		what := "full version"
		if info.StoredDelta {
			what = fmt.Sprintf("delta with gamma=%d", info.Gamma)
		}
		fmt.Fprintf(w, "  v%d stored as %s (%d shard writes)\n", info.Version, what, info.ShardWrites)
	}

	fmt.Fprintln(w, "\nreads to retrieve each version (paper Fig. 9):")
	fmt.Fprintln(w, "  l    SEC    non-differential")
	for l := 1; l <= 5; l++ {
		content, stats, err := archive.RetrieveContext(ctx, l)
		if err != nil {
			return err
		}
		_, base, err := baseline.RetrieveContext(ctx, l)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d    %2d     %2d   (%d bytes, %d sparse reads)\n",
			l, stats.NodeReads, base.NodeReads, len(content), stats.SparseReads)
	}

	_, all, err := archive.RetrieveAllContext(ctx, 5)
	if err != nil {
		return err
	}
	_, baseAll, err := baseline.RetrieveAllContext(ctx, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwhole archive: SEC %d reads vs non-differential %d reads (%.0f%% saving)\n",
		all.NodeReads, baseAll.NodeReads,
		float64(baseAll.NodeReads-all.NodeReads)/float64(baseAll.NodeReads)*100)
	return nil
}
