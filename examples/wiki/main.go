// Wiki: an article revision history (the paper's Wikipedia motivation).
// Each revision rewrites one paragraph-sized span, so deltas are sparse at
// the block level and SEC retrieves the history with far fewer reads than
// re-encoding every revision.
//
// Run with: go run ./examples/wiki
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
		n, k      = 12, 6
		blockSize = 512 // article capacity: 3 KiB
		revisions = 8
	)
	rng := rand.New(rand.NewSource(7))
	article, err := sec.NewTextDocument(rng, k*blockSize)
	if err != nil {
		return err
	}

	cluster := sec.NewMemCluster(n)
	history, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "wiki/article",
		Scheme:    sec.BasicSEC,
		Code:      sec.SystematicCauchy, // data shards readable verbatim
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "article: %d bytes in %d blocks of %d\n\n", article.Len(), k, blockSize)
	if _, err := history.CommitContext(ctx, article.Bytes()); err != nil {
		return err
	}
	fmt.Fprintln(w, "rev 1: initial import (stored in full)")
	for rev := 2; rev <= revisions; rev++ {
		// An editor rewrites a ~200-byte span: a sentence or two.
		start, end, err := article.Revise(rng, 150+rng.Intn(100))
		if err != nil {
			return err
		}
		info, err := history.CommitContext(ctx, article.Bytes())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "rev %d: edited bytes [%d,%d) -> delta gamma=%d, %d shard writes\n",
			rev, start, end, info.Gamma, info.ShardWrites)
	}

	fmt.Fprintln(w, "\nreading back the whole history:")
	versions, stats, err := history.RetrieveAllContext(ctx, revisions)
	if err != nil {
		return err
	}
	if string(versions[revisions-1]) != string(article.Bytes()) {
		return fmt.Errorf("latest revision does not match the working copy")
	}
	fmt.Fprintf(w, "  %d revisions reconstructed with %d node reads (%d sparse, %d full objects)\n",
		len(versions), stats.NodeReads, stats.SparseReads, stats.FullReads)
	fmt.Fprintf(w, "  non-differential baseline would need %d reads\n", revisions*k)
	saving := float64(revisions*k-stats.NodeReads) / float64(revisions*k) * 100
	fmt.Fprintf(w, "  SEC saves %.0f%% of the I/O\n", saving)

	// Vandalism check: diff two revisions.
	v3, _, err := history.RetrieveContext(ctx, 3)
	if err != nil {
		return err
	}
	v4, _, err := history.RetrieveContext(ctx, 4)
	if err != nil {
		return err
	}
	changed := 0
	for i := range v3 {
		if v3[i] != v4[i] {
			changed++
		}
	}
	fmt.Fprintf(w, "\nrev 3 -> rev 4 changed %d bytes (localized edit)\n", changed)
	return nil
}
