package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// RepairReport summarizes a node repair pass.
type RepairReport struct {
	// ShardsChecked counts the shards of this archive the node is
	// supposed to hold.
	ShardsChecked int
	// ShardsHealthy counts shards found intact.
	ShardsHealthy int
	// ShardsRepaired counts shards reconstructed from surviving nodes
	// and rewritten.
	ShardsRepaired int
	// NodeReads counts shard reads performed on other nodes to
	// reconstruct the missing ones (the repair traffic).
	NodeReads int
}

// RepairNodeContext reconstructs every shard of this archive that the
// given cluster node should hold but does not — the maintenance operation
// run after replacing a failed device — under the context's deadline and
// cancellation (the pass stops at the first cancelled read, returning the
// partial report). Missing and corrupt shards are rebuilt by decoding the
// affected object from k surviving shards and re-encoding; the node must
// be available to receive the rebuilt shards. Damage on other nodes is
// tolerated per shard: reconstruction draws on any k intact surviving
// shards, not just the first k live nodes.
//
// The paper's static-resilience analysis assumes "no further remedial
// actions"; RepairNodeContext is the remedial action that restores the
// archive to full redundancy afterwards.
func (a *Archive) RepairNodeContext(ctx context.Context, node int) (RepairReport, error) {
	//lint:allow lockheld repair reads the whole chain; the read lock keeps compaction from moving shards mid-repair
	a.mu.RLock()
	defer a.mu.RUnlock()
	var report RepairReport
	// An index outside the cluster is the caller's mistake, not a down node:
	// refuse it before the probe, whose false would read as transient.
	if _, err := a.cluster.Node(node); err != nil {
		return report, fmt.Errorf("core: repairing node %d: %w", node, err)
	}
	if !a.cluster.Available(ctx, node) {
		if err := ctx.Err(); err != nil {
			return report, fmt.Errorf("core: repairing node %d: %w", node, err)
		}
		return report, fmt.Errorf("core: repairing node %d: %w", node, store.ErrNodeDown)
	}
	err := a.eachStored(ctx, "repair", func(cw codeword) error {
		return a.repairObject(ctx, cw, node, &report)
	})
	if report.ShardsRepaired > 0 {
		a.invalidateReadCache()
	}
	return report, err
}

// repairObject checks (and if needed rebuilds) the rows of one stored
// object that live on the target node. The probe reads every such row in
// one batch against the node.
func (a *Archive) repairObject(ctx context.Context, cw codeword, node int, report *RepairReport) error {
	var rows []int
	for row := 0; row < cw.code.N(); row++ {
		if a.nodeOf(cw, row) == node {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	report.ShardsChecked += len(rows)
	for i, res := range a.cluster.GetBatch(ctx, a.rowRefs(cw, rows)) {
		switch {
		case res.Err == nil:
			report.ShardsHealthy++
			continue
		case !errors.Is(res.Err, store.ErrNotFound) && !errors.Is(res.Err, store.ErrCorrupt):
			return fmt.Errorf("core: probing %s#%d on node %d: %w", cw.id, rows[i], node, res.Err)
		}
		if err := a.rebuildShard(ctx, cw, node, rows[i], report); err != nil {
			return err
		}
	}
	return nil
}

// rebuildShard reconstructs one missing shard from k surviving shards on
// other nodes. Candidate rows are tried in order: a row whose shard turns
// out to be missing, corrupt, or freshly unreachable is skipped and the
// next live row takes its place, so repair of one node survives partial
// damage elsewhere. The decoded blocks and re-encoded codeword are
// transient, so both live in pooled buffers; steady-state repair does not
// allocate shard buffers.
func (a *Archive) rebuildShard(ctx context.Context, cw codeword, node, row int, report *RepairReport) error {
	k := cw.code.K()
	live := a.liveRows(ctx, cw, map[int]bool{row: true})
	if len(live) < k {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: rebuilding %s#%d: %w", cw.id, row, err)
		}
		return fmt.Errorf("%w: %d of %d surviving shards of %s", ErrUnavailable, len(live), k, cw.id)
	}
	rows, shards, err := a.collectIntactShards(ctx, cw, live, &report.NodeReads)
	if err != nil {
		return fmt.Errorf("core: rebuilding %s#%d: %w", cw.id, row, err)
	}
	blocks := erasure.GetBuffers(k, blockLenOf(shards))
	defer blocks.Release()
	if err := cw.code.DecodeFullInto(rows, shards, blocks.Blocks); err != nil {
		return err
	}
	encoded := erasure.GetBuffers(cw.code.N(), blockLenOf(shards))
	defer encoded.Release()
	if err := cw.code.EncodeInto(blocks.Blocks, encoded.Blocks); err != nil {
		return err
	}
	if err := a.cluster.Put(ctx, node, store.ShardID{Object: cw.id, Row: row}, encoded.Blocks[row]); err != nil {
		return fmt.Errorf("core: writing rebuilt %s#%d to node %d: %w", cw.id, row, node, err)
	}
	report.ShardsRepaired++
	return nil
}

// collectIntactShards reads candidate rows until k intact shards of equal
// length are in hand, fetching per-node batches of exactly the current
// deficit. Per-row damage (missing, corrupt, node lost since the liveness
// probe) skips that row. In the healthy case this costs exactly k reads in
// one wave; once two shard lengths disagree, every remaining candidate is
// read and only a strict-majority length group (of at least k) is trusted -
// stopping at the first k same-length shards would let a group of
// identically length-damaged shards masquerade as the object and rebuild
// garbage. Every successful node read is counted in reads, including
// shards a majority later sets aside - they are real repair traffic.
func (a *Archive) collectIntactShards(ctx context.Context, cw codeword, candidates []int, reads *int) ([]int, [][]byte, error) {
	k := cw.code.K()
	rows := make([]int, 0, len(candidates))
	shards := make([][]byte, 0, len(candidates))
	uniform := true
	next := 0
	for next < len(candidates) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var wave []int
		if uniform {
			if len(rows) >= k {
				return rows, shards, nil
			}
			wave = candidates[next:min(next+k-len(rows), len(candidates))]
		} else {
			// Lengths disagree: read everything left so the majority vote
			// sees the full picture.
			wave = candidates[next:]
		}
		next += len(wave)
		for i, res := range a.cluster.GetBatch(ctx, a.rowRefs(cw, wave)) {
			switch {
			case res.Err == nil:
			case errors.Is(res.Err, store.ErrNotFound), errors.Is(res.Err, store.ErrCorrupt),
				errors.Is(res.Err, store.ErrNodeDown), errors.Is(res.Err, store.ErrClusterTooSmall):
				continue // this row cannot help; plenty of others may
			default:
				return nil, nil, fmt.Errorf("core: reading %s#%d: %w", cw.id, wave[i], res.Err)
			}
			*reads++
			rows = append(rows, wave[i])
			shards = append(shards, res.Data)
			uniform = uniform && len(res.Data) == len(shards[0])
		}
	}
	if uniform && len(rows) >= k {
		return rows[:k], shards[:k], nil
	}
	if count, modal := modalLength(shardLengths(shards)); count >= k && 2*count > len(shards) {
		rows, shards = filterByLength(rows, shards, modal)
		return rows[:k], shards[:k], nil
	}
	return nil, nil, fmt.Errorf("%w: no length-majority of %d intact shards among %d read of %s", ErrUnavailable, k, len(shards), cw.id)
}

// shardLengths projects shards onto their lengths for modalLength.
func shardLengths(shards [][]byte) []int {
	lengths := make([]int, len(shards))
	for i, s := range shards {
		lengths[i] = len(s)
	}
	return lengths
}

// filterByLength keeps the rows whose shards have the given length,
// preserving order.
func filterByLength(rows []int, shards [][]byte, length int) ([]int, [][]byte) {
	outRows := rows[:0]
	outShards := shards[:0]
	for i, s := range shards {
		if len(s) == length {
			outRows = append(outRows, rows[i])
			outShards = append(outShards, s)
		}
	}
	return outRows, outShards
}
