package core

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

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
