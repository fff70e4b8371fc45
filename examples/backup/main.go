// Backup: nightly incremental backups of a disk image (the paper's cloud
// backup motivation). Reversed SEC keeps the newest backup cheap to
// restore - the common case - while older backups cost one extra sparse
// read per night they lie in the past.
//
// Run with: go run ./examples/backup
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

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	const (
		files    = 16
		fileSize = 256 // image capacity: 4 KiB
		n, k     = 32, 16
		nights   = 6
	)
	rng := rand.New(rand.NewSource(99))
	image, err := sec.NewBackupImage(rng, files, fileSize)
	if err != nil {
		return err
	}

	cluster := sec.NewMemCluster(n)
	backups, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "backup/laptop",
		Scheme:    sec.ReversedSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: fileSize, // one block per file: churn = sparsity
	}, cluster)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "image: %d files x %d bytes; (n,k)=(%d,%d) reversed SEC\n\n", files, fileSize, n, k)
	if _, err := backups.CommitContext(ctx, image.Bytes()); err != nil {
		return err
	}
	fmt.Fprintln(w, "night 1: full backup")
	for night := 2; night <= nights; night++ {
		touched, err := image.Churn(rng, 1+rng.Intn(3))
		if err != nil {
			return err
		}
		info, err := backups.CommitContext(ctx, image.Bytes())
		if err != nil {
			return err
		}
		// The commit queued the previous night's full image; free it.
		_, orphans, err := backups.ReclaimSupersededContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "night %d: files %v changed -> delta gamma=%d (orphaned shards: %d)\n",
			night, touched, info.Gamma, orphans)
	}

	fmt.Fprintln(w, "\nrestore costs (node reads):")
	for l := nights; l >= 1; l-- {
		content, stats, err := backups.RetrieveContext(ctx, l)
		if err != nil {
			return err
		}
		marker := ""
		if l == nights {
			if !bytes.Equal(content, image.Bytes()) {
				return fmt.Errorf("latest restore does not match the live image")
			}
			marker = "  <- latest: just k reads"
		}
		fmt.Fprintf(w, "  backup %d: %2d reads (%d sparse)%s\n", l, stats.NodeReads, stats.SparseReads, marker)
	}

	planned, err := backups.PlannedReads(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nformula (3) predicts %d reads for the oldest backup - matching the measurement\n", planned)
	return nil
}
