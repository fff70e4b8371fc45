// Compaction: the chain-lifecycle walkthrough. A Reversed SEC archive
// accumulates a deep delta chain (the paper's worst case for reading old
// versions: every retrieval of version 1 walks the whole chain backwards
// from the latest full codeword), then CompactToContext bounds the chain:
// over-deep versions are rebased onto the anchor with merged deltas - or
// promoted to full checkpoints when the merge comes out dense - and the
// superseded delta codewords are physically deleted from the nodes by the
// reclaim that follows (an owner that persists the manifest runs it after
// the persist; here there is nothing to persist).
//
// The walkthrough prints, for each phase, the chain shape, the measured
// node reads for the oldest version, and the cluster's shard population,
// then demonstrates the proactive alternative: the same workload under
// CheckpointEvery and MaxChainLength, where commits keep the chain bounded
// on their own.
//
// Run with: go run ./examples/compaction
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	sec "github.com/secarchive/sec"
)

const (
	n, k      = 20, 10
	blockSize = 256
	versions  = 9
	maxChain  = 4
)

func main() {
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	cluster := sec.NewMemCluster(n)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.ReversedSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}

	// Commit a 9-version history: each version edits one block, so every
	// delta is 1-sparse and the chain becomes 1 full + 8 deltas.
	rng := rand.New(rand.NewSource(1))
	object := make([]byte, k*blockSize)
	rng.Read(object)
	history := [][]byte{append([]byte(nil), object...)}
	if _, err := archive.CommitContext(ctx, object); err != nil {
		return err
	}
	for j := 1; j < versions; j++ {
		object, err = sec.SparseEdit(rng, object, blockSize, 1)
		if err != nil {
			return err
		}
		history = append(history, append([]byte(nil), object...))
		if _, err := archive.CommitContext(ctx, object); err != nil {
			return err
		}
		if _, _, err := archive.ReclaimSupersededContext(ctx); err != nil { // the old tip's full
			return err
		}
	}
	fmt.Printf("== before compaction\n")
	if err := report(ctx, cluster, archive); err != nil {
		return err
	}

	// Bound the chain to 4 deltas. Versions 1..4 sat 5..8 hops from the
	// anchor; each gets a merged delta straight off the tip (or a full
	// checkpoint, had the merge come out dense).
	info, err := archive.CompactToContext(ctx, maxChain)
	if err != nil {
		return err
	}
	deleted, orphans, err := archive.ReclaimSupersededContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\n== compacted to max chain %d\n", info.MaxChainLength)
	fmt.Printf("rebased versions %v, promoted %v\n", info.Rebased, info.Promoted)
	fmt.Printf("wrote %d shards, deleted %d superseded shards (%d orphaned), spent %d maintenance reads\n",
		info.ShardWrites, deleted, orphans, info.NodeReads)
	if err := report(ctx, cluster, archive); err != nil {
		return err
	}

	// Every version is still byte-identical.
	for v, want := range history {
		got, _, err := archive.RetrieveContext(ctx, v+1)
		if err != nil {
			return fmt.Errorf("retrieve v%d: %w", v+1, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("v%d differs after compaction", v+1)
		}
	}
	fmt.Printf("all %d versions verified byte-identical\n", len(history))

	// The proactive variant: the same workload with the lifecycle
	// configured up front. CheckpointEvery places full codewords as the
	// chain grows; MaxChainLength auto-compacts if it still gets too deep.
	auto, err := sec.NewArchive(sec.ArchiveConfig{
		Name:            "auto",
		Scheme:          sec.ReversedSEC,
		Code:            sec.NonSystematicCauchy,
		N:               n,
		K:               k,
		BlockSize:       blockSize,
		CheckpointEvery: maxChain,
		MaxChainLength:  maxChain,
	}, cluster)
	if err != nil {
		return err
	}
	for _, version := range history {
		if _, err := auto.CommitContext(ctx, version); err != nil {
			return err
		}
		if _, _, err := auto.ReclaimSupersededContext(ctx); err != nil {
			return err
		}
	}
	fmt.Printf("\n== same history with CheckpointEvery=%d and MaxChainLength=%d\n", maxChain, maxChain)
	return report(ctx, cluster, auto)
}

// report prints the chain shape and the measured cost of the oldest
// version.
func report(ctx context.Context, cluster *sec.Cluster, archive *sec.Archive) error {
	for _, e := range archive.Manifest().Entries {
		kind := "   "
		switch {
		case e.Full && e.Delta:
			kind = "F+D"
		case e.Full:
			kind = "F  "
		case e.Delta:
			kind = "  D"
		}
		depth, err := archive.ChainDepth(e.Version)
		if err != nil {
			return err
		}
		extra := ""
		if e.Base != 0 && e.Base != e.Version-1 {
			extra = fmt.Sprintf(" (merged delta against v%d)", e.Base)
		}
		if e.Checkpoint {
			extra += " (checkpoint)"
		}
		fmt.Printf("  v%d %s depth=%d gamma=%d%s\n", e.Version, kind, depth, e.Gamma, extra)
	}
	cluster.ResetStats()
	if _, stats, err := archive.RetrieveContext(ctx, 1); err != nil {
		return err
	} else if got := cluster.TotalStats(); int(got.Reads) != stats.NodeReads {
		return fmt.Errorf("accounting drift: %d node reads vs %d reported", got.Reads, stats.NodeReads)
	} else {
		fmt.Printf("oldest version costs %d node reads\n", stats.NodeReads)
	}
	return nil
}
