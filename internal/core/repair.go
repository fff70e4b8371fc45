package core

import (
	"context"
	"fmt"

	"github.com/secarchive/sec/internal/store"
)

// RepairReport summarizes a node repair pass.
type RepairReport struct {
	// ShardsChecked counts the shards of this archive the node is
	// supposed to hold.
	ShardsChecked int
	// ShardsHealthy counts shards found intact: present, readable and as
	// long as their codeword's width.
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
// partial report). Missing, corrupt and wrong-length shards are rebuilt by
// decoding the affected object from k surviving shards and re-encoding; the
// node must be available to receive the rebuilt shards. Damage on other
// nodes is tolerated per shard: reconstruction reads the sources as every
// reader does, drawing on any k intact surviving shards, not just the first
// k live nodes.
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
	return report, err
}

// repairObject checks (and if needed rebuilds) the rows of one stored
// object that live on the target node. The probe reads every such row in
// one batch against the node; a row missing, corrupt or of the wrong length
// (getShards) is rebuilt.
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
	results := a.getRows(ctx, cw, rows)
	defer releaseAll(results)
	for i, res := range results {
		switch {
		case res.Err == nil:
			report.ShardsHealthy++
			continue
		case !rowLost(res.Err):
			return fmt.Errorf("core: probing %s#%d on node %d: %w", cw.id, rows[i], node, res.Err)
		}
		if err := a.rebuildShard(ctx, cw, rows[i], report); err != nil {
			return err
		}
	}
	return nil
}

// rebuildShard reconstructs one lost row of a codeword and writes it to its
// node. The other rows are read the way every reader reads a codeword
// (readAnyK), with the lost row dead from the start: any k of them whose
// nodes are up, rows that turn out missing, corrupt, of the wrong length or
// freshly unreachable replaced by the next, so repair of one node survives
// partial damage elsewhere. The decoded blocks are lent by the read and the
// re-encoded codeword is pooled (rewriteRows); steady-state repair does not
// allocate shard buffers.
func (a *Archive) rebuildShard(ctx context.Context, cw codeword, row int, report *RepairReport) error {
	set := newShardSet()
	set.dead[row] = true
	defer set.release()
	var held loan
	defer held.release()
	blocks, err := a.readAnyK(ctx, cw, set, &held)
	report.NodeReads += set.reads
	if err != nil {
		return fmt.Errorf("core: rebuilding %s#%d: %w", cw.id, row, err)
	}
	written, err := a.rewriteRows(ctx, cw, blocks, []int{row})
	report.ShardsRepaired += written
	return err
}
