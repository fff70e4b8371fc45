package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// chaosCluster builds an n-node Mem cluster whose first node is wrapped in
// a ChaosNode, initially injecting nothing.
func chaosCluster(n int) (*store.Cluster, *faults.ChaosNode) {
	nodes := make([]store.Node, n)
	chaos := faults.NewChaosNode(store.NewMemNode("node-0"), faults.Schedule{})
	nodes[0] = chaos
	for i := 1; i < n; i++ {
		nodes[i] = store.NewMemNode("node-" + string(rune('0'+i)))
	}
	return store.NewCluster(nodes), chaos
}

// TestReclaimUnderPartitionNeverDeletesLiveCodewords injects a partition
// into the window between compaction's manifest swap and the deferred
// reclaim - exactly where a crashed or isolated deleter would strand the
// archive - and proves the two-phase GC contract: whatever the reclaim
// manages to delete, every version stays byte-identical, partitioned or
// healed, because only superseded codewords are ever touched.
func TestReclaimUnderPartitionNeverDeletesLiveCodewords(t *testing.T) {
	cfg := testConfig(OptimizedSEC, erasure.SystematicCauchy)
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	rand.New(rand.NewSource(4)).Read(object)
	versions := [][]byte{append([]byte(nil), object...)}
	mustCommit(t, a, object)
	for j := 0; j < 4; j++ {
		object = editBlocks(object, cfg.BlockSize, j%cfg.K)
		versions = append(versions, append([]byte(nil), object...))
		mustCommit(t, a, object)
	}
	checkAll := func(when string) {
		t.Helper()
		for l, want := range versions {
			got, _, err := a.RetrieveContext(t.Context(), l+1)
			if err != nil {
				t.Fatalf("%s: retrieve v%d: %v", when, l+1, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: v%d bytes diverged", when, l+1)
			}
		}
	}

	// Phase one: compact, swapping the manifest and queueing the
	// superseded delta codewords for a later reclaim.
	info, err := a.CompactToContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.SupersededShards == 0 {
		t.Fatal("compaction superseded nothing; scenario needs a queued reclaim")
	}
	checkAll("after manifest swap")

	// The partition lands before phase two: node 0 is unreachable while
	// the reclaim runs, so its deletes fail and stay queued as orphans.
	chaos.SetSchedule(faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultPartition}},
	})
	deleted, orphans, err := a.ReclaimSupersededContext(t.Context())
	if err != nil {
		t.Fatalf("reclaim under partition: %v", err)
	}
	if orphans == 0 {
		t.Error("partitioned node produced no orphaned deletes")
	}
	t.Logf("reclaim under partition: deleted=%d orphans=%d", deleted, orphans)
	checkAll("under partition") // n-k tolerance covers the lost node

	// Heal and drain the queue: the orphans are reclaimed, and the live
	// chain is still intact - the GC only ever deleted superseded shards.
	chaos.SetSchedule(faults.Schedule{})
	if _, orphans, err = a.ReclaimSupersededContext(t.Context()); err != nil {
		t.Fatalf("reclaim after heal: %v", err)
	}
	if orphans != 0 {
		t.Errorf("%d orphans left after healed reclaim", orphans)
	}
	checkAll("after healed reclaim")
}
