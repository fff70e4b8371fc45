package core

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// runBatchWorkload drives one archive through commits, retrievals, damage,
// scrub, and repair, returning the concatenated retrieval accounting.
func runBatchWorkload(t *testing.T, a *Archive, cluster *store.Cluster) []RetrievalStats {
	t.Helper()
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 0)
	v3 := editBlocks(v2, a.Config().BlockSize, 1, 2)
	for _, v := range [][]byte{v1, v2, v3} {
		mustCommit(t, a, v)
	}
	var all []RetrievalStats
	for l := 1; l <= 3; l++ {
		_, stats := mustRetrieve(t, a, l)
		all = append(all, stats)
	}
	if _, stats, err := a.RetrieveAllContext(t.Context(), 3); err != nil {
		t.Fatal(err)
	} else {
		all = append(all, stats)
	}
	// Damage node 1's full-version shard and node 2 wholesale, then heal.
	n1, err := cluster.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Delete(t.Context(), store.ShardID{Object: fullID(a.cfg.Name, 1), Row: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScrubContext(t.Context(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RepairNodeContext(t.Context(), 2); err != nil {
		t.Fatal(err)
	}
	_, stats := mustRetrieve(t, a, 3)
	all = append(all, stats)
	return all
}

// TestBatchAndPerShardPathsIdenticalStats is the differential accounting
// test: on batch-capable nodes the archive must produce exactly the same
// per-node NodeStats and retrieval accounting as on plain nodes, where the
// cluster runs every batch as a per-shard loop, for an identical workload
// - batching changes the wire plan, never the I/O metric.
func TestBatchAndPerShardPathsIdenticalStats(t *testing.T) {
	run := func(cluster *store.Cluster) (store.NodeStats, []RetrievalStats, *store.Cluster) {
		a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
		if err != nil {
			t.Fatal(err)
		}
		stats := runBatchWorkload(t, a, cluster)
		return cluster.TotalStats(), stats, cluster
	}
	batchedTotal, batchedStats, batchedCluster := run(store.NewMemCluster(0))
	perShardTotal, perShardStats, perShardCluster := run(newPlainMemCluster())
	if batchedTotal != perShardTotal {
		t.Errorf("cluster totals diverge:\n  batched   %+v\n  per-shard %+v", batchedTotal, perShardTotal)
	}
	for i := 0; i < batchedCluster.Size() && i < perShardCluster.Size(); i++ {
		bn, _ := batchedCluster.Node(i)
		pn, _ := perShardCluster.Node(i)
		if bn.Stats() != pn.Stats() {
			t.Errorf("node %d stats diverge:\n  batched   %+v\n  per-shard %+v", i, bn.Stats(), pn.Stats())
		}
	}
	if len(batchedStats) != len(perShardStats) {
		t.Fatalf("retrieval count diverges: %d vs %d", len(batchedStats), len(perShardStats))
	}
	for i := range batchedStats {
		b, p := batchedStats[i], perShardStats[i]
		if b.NodeReads != p.NodeReads || b.SparseReads != p.SparseReads || b.FullReads != p.FullReads {
			t.Errorf("retrieval %d accounting diverges:\n  batched   %+v\n  per-shard %+v", i, b, p)
		}
	}
}

// TestPartialFailureRefetchesOnlyMissingRows: when one row of a read
// batch fails, the rows already fetched must be kept and only the deficit
// re-fetched - not the whole plan restarted. The read count proves it:
// k successful reads total, not (k-1) wasted + k fresh.
func TestPartialFailureRefetchesOnlyMissingRows(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{7}, a.Capacity())
	mustCommit(t, a, v1)
	// Remove one shard the first read plan will want: its node stays live,
	// so the liveness probe cannot see the damage coming.
	n0, err := cluster.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Delete(t.Context(), store.ShardID{Object: fullID(a.cfg.Name, 1), Row: 0}); err != nil {
		t.Fatal(err)
	}
	cluster.ResetStats()
	got, stats, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("content mismatch after partial failure")
	}
	k := a.Config().K
	if stats.NodeReads != k {
		t.Errorf("NodeReads = %d, want %d (partial results retained)", stats.NodeReads, k)
	}
	if got := int(cluster.TotalStats().Reads); got != k {
		t.Errorf("cluster reads = %d, want %d: successful fetches were discarded and re-read", got, k)
	}
}
