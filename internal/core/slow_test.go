package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// slowLatency is how long every get at a slowed node takes: well over the
// slow-node floor, so one sample marks the node slow against a Mem cluster.
const slowLatency = 20 * time.Millisecond

// slowReads makes every Get/GetBatch on the node take slowLatency.
func slowReads(chaos *faults.ChaosNode) {
	chaos.SetSchedule(faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: slowLatency}},
	})
}

// markSlow retrieves every version once, checking its bytes, so the reads
// that touch the slowed node 0 mark it slow, and fails the test unless they
// did. It returns each version's read count.
func markSlow(t *testing.T, a *Archive, cluster *store.Cluster, versions [][]byte) []int {
	t.Helper()
	reads := make([]int, len(versions))
	for l, want := range versions {
		got, stats := mustRetrieve(t, a, l+1)
		if !bytes.Equal(got, want) {
			t.Errorf("version %d: wrong bytes while meeting the slow node", l+1)
		}
		reads[l] = stats.NodeReads
	}
	if !store.Slow(cluster.Health())[0] {
		h, _ := cluster.NodeHealth(0)
		t.Fatalf("node 0 not marked slow after reading every version: %+v", h)
	}
	return reads
}

// TestSlowNodeChainRetrievalByteIdentical reads a chain - a full codeword, a
// gamma = 1 delta, a gamma = 2 delta and a delta that changed nothing - of
// every scheme over every code kind with node 0 slowed. Once the first reads
// have marked it slow, every version reads back byte-identical, at the read
// count it had before, and without one get at node 0: full reads, sparse
// plans and CDEC deltas all find their rows elsewhere in a (6,3) or (10,5)
// code that has lost nothing.
func TestSlowNodeChainRetrievalByteIdentical(t *testing.T) {
	for _, shape := range testShapes {
		for _, scheme := range allSchemes {
			for _, kind := range allCodeKinds {
				t.Run(fmt.Sprintf("%v/%v%s", scheme, kind, shape.suffix), func(t *testing.T) {
					cfg := testConfig(scheme, kind)
					cfg.N, cfg.K = shape.n, shape.k
					cluster, chaos := chaosCluster(cfg.N)
					a, err := New(cfg, cluster)
					if err != nil {
						t.Fatal(err)
					}
					v1 := make([]byte, a.Capacity())
					rand.New(rand.NewSource(2)).Read(v1)
					v2 := editBlocks(v1, cfg.BlockSize, 0)
					v3 := editBlocks(v2, cfg.BlockSize, 1, 2)
					versions := [][]byte{v1, v2, v3, v3}
					for _, v := range versions {
						mustCommit(t, a, v)
					}

					slowReads(chaos)
					reads := markSlow(t, a, cluster, versions)
					delayed := chaos.InjectionStats().Delayed
					for l, want := range versions {
						got, stats := mustRetrieve(t, a, l+1)
						if !bytes.Equal(got, want) {
							t.Errorf("version %d: wrong bytes with node 0 read last", l+1)
						}
						if stats.NodeReads != reads[l] {
							t.Errorf("version %d: %d node reads with node 0 read last, want %d as when it was read", l+1, stats.NodeReads, reads[l])
						}
					}
					if got := chaos.InjectionStats().Delayed - delayed; got != 0 {
						t.Errorf("node 0 served %d gets after it was marked slow, want 0", got)
					}
				})
			}
		}
	}
}

// TestRepairSourcesAvoidSlowNode rebuilds a wiped node while node 0 is
// marked slow: each shard is rebuilt from k rows on other nodes, at k reads
// apiece and without one get at node 0. The slow node is still read when
// nothing else can serve: with three other nodes failed, every version
// decodes from node 0, the rebuilt node and one more.
func TestRepairSourcesAvoidSlowNode(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	v2 := editBlocks(v1, cfg.BlockSize, 0)
	v3 := editBlocks(v2, cfg.BlockSize, 1, 2)
	versions := [][]byte{v1, v2, v3}
	for _, v := range versions {
		mustCommit(t, a, v)
	}

	slowReads(chaos)
	markSlow(t, a, cluster, versions)
	const wiped = 3
	if deleted := wipeArchiveShards(t, a, cluster, wiped); deleted != 3 { // x1, z2, z3
		t.Fatalf("deleted %d shards, want 3", deleted)
	}
	delayed := chaos.InjectionStats().Delayed
	report, err := a.RepairNodeContext(t.Context(), wiped)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 3 || report.NodeReads != 3*cfg.K {
		t.Errorf("report = %+v, want 3 shards repaired from %d reads", report, 3*cfg.K)
	}
	if got := chaos.InjectionStats().Delayed - delayed; got != 0 {
		t.Errorf("node 0 served %d gets during the repair, want 0", got)
	}

	if err := cluster.Fail(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	for l, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("version %d: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after repair", l+1)
		}
	}
	if chaos.InjectionStats().Delayed == delayed {
		t.Error("node 0 served no get with only it, the rebuilt node and one more up")
	}
}

// TestSparseReplanKeepsRowMarkedSlow reads a gamma = 1 delta whose prefetched
// sparse rows are 0 and 1 while node 0 is slowed and node 1 has died unseen:
// the prefetch batch marks node 0 slow and finds node 1 down. The re-plan
// keeps row 0, already in hand, and reads one more row, so the delta costs
// 2 reads and the version k + 2 = 5, as with node 0 fast.
func TestSparseReplanKeepsRowMarkedSlow(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cluster, chaos := chaosCluster(cfg.N)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, a.Capacity())
	rand.New(rand.NewSource(3)).Read(v1)
	v2 := editBlocks(v1, cfg.BlockSize, 0)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	if _, stats := mustRetrieve(t, a, 2); stats.NodeReads != 5 {
		t.Fatalf("healthy read: %d node reads, want 5", stats.NodeReads)
	}

	slowReads(chaos)
	node1, err := cluster.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	node1.(*store.MemNode).SetFailed(true) // behind the cluster's back: nothing doubts it
	got, stats := mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("wrong bytes")
	}
	if !store.Slow(cluster.Health())[0] {
		h, _ := cluster.NodeHealth(0)
		t.Fatalf("node 0 not marked slow by the read: %+v", h)
	}
	if stats.NodeReads != 5 || stats.SparseReads != 1 {
		t.Errorf("read of v2: %d node reads (%d sparse), want 5 (1 sparse): %+v", stats.NodeReads, stats.SparseReads, stats.Objects)
	}
}
