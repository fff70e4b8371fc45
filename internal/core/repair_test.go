package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// wipeArchiveShards simulates replacing a failed device with an empty one:
// every shard the archive's stored codewords place on the node, rebased
// deltas included, is deleted. It returns how many were there.
func wipeArchiveShards(t *testing.T, a *Archive, cluster *store.Cluster, node int) int {
	t.Helper()
	nd, err := cluster.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for v := 1; v <= a.Versions(); v++ {
		for _, cw := range mustStored(t, a, v) {
			for row := 0; row < cw.code.N(); row++ {
				if a.nodeOf(cw, row) == node && nd.Delete(t.Context(), store.ShardID{Object: cw.id, Row: row}) == nil {
					deleted++
				}
			}
		}
	}
	return deleted
}

func TestRepairNodeRestoresRedundancy(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 0)
	v3 := editBlocks(v2, a.Config().BlockSize, 1, 2)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)

	// Device 3 dies and is replaced by an empty node.
	deleted := wipeArchiveShards(t, a, cluster, 3)
	if deleted != 3 { // one shard per stored object (x1, z2, z3)
		t.Fatalf("deleted %d shards, want 3", deleted)
	}

	report, err := a.RepairNodeContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsChecked != 3 || report.ShardsRepaired != 3 || report.ShardsHealthy != 0 {
		t.Errorf("report = %+v", report)
	}
	if report.NodeReads != 3*3 {
		t.Errorf("repair traffic = %d reads, want 9 (k per object)", report.NodeReads)
	}

	// The rebuilt shards are bit-identical: kill n-k other nodes and
	// retrieve everything through paths that must use node 3.
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for l, want := range [][]byte{v1, v2, v3} {
		got, _, err := a.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("version %d: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after repair", l+1)
		}
	}
}

// TestRepairNodeRefusesIndexOutsideCluster: a node index the cluster does
// not have is refused as such, naming the index and the cluster size, before
// any probe - not reported as a down node, which retries treat as transient.
func TestRepairNodeRefusesIndexOutsideCluster(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cluster, _, pings := pingCountedCluster(cfg.N, nil)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, a, bytes.Repeat([]byte{8}, a.Capacity()))
	for _, node := range []int{-1, cfg.N} {
		pings.Store(0)
		_, err := a.RepairNodeContext(t.Context(), node)
		if !errors.Is(err, store.ErrClusterTooSmall) || errors.Is(err, store.ErrNodeDown) || store.Retryable(err) {
			t.Errorf("repair node %d: err = %v, want ErrClusterTooSmall, not ErrNodeDown", node, err)
		}
		if want := fmt.Sprintf("node index %d of %d", node, cfg.N); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("repair node %d: err = %v, want it to name %q", node, err, want)
		}
		if got := pings.Load(); got != 0 {
			t.Errorf("repair node %d sent %d pings, want 0", node, got)
		}
	}
}

func TestRepairNodeIdempotent(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(OptimizedSEC, erasure.SystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{5}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 1))
	report, err := a.RepairNodeContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 0 || report.ShardsHealthy != report.ShardsChecked {
		t.Errorf("healthy node repair report = %+v", report)
	}
	if report.NodeReads != 0 {
		t.Errorf("healthy repair produced %d reads", report.NodeReads)
	}
}

func TestRepairNodeWithSecondNodePartiallyWiped(t *testing.T) {
	// Node 3 is replaced empty; node 1 has additionally lost SOME shards
	// (partial wipe). Repairing node 3 must route around node 1's holes by
	// drawing on other surviving rows per object, not give up because the
	// first k live nodes include a damaged one.
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{21}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 0)
	v3 := editBlocks(v2, a.Config().BlockSize, 2)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)

	wipeArchiveShards(t, a, cluster, 3)
	node1, err := cluster.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 keeps x1 but loses both deltas: every object still has >= k
	// intact rows overall.
	for _, obj := range []string{"t/v2-delta", "t/v3-delta"} {
		if err := node1.Delete(t.Context(), store.ShardID{Object: obj, Row: 1}); err != nil {
			t.Fatal(err)
		}
	}

	report, err := a.RepairNodeContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsChecked != 3 || report.ShardsRepaired != 3 {
		t.Fatalf("report = %+v", report)
	}
	// Rebuilt shards are correct: force reads through node 3 (and around
	// node 1's still-missing delta shards).
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	for l, want := range [][]byte{v1, v2, v3} {
		got, _, err := a.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("version %d: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after repair around partial wipe", l+1)
		}
	}
}

func TestRepairNodeSkipsTruncatedSourceShard(t *testing.T) {
	// A length-corrupt shard on a surviving node must be passed over as a
	// reconstruction source, not fed into the decoder (mixed-length slices
	// panic or mis-decode the GF kernels).
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{33}, a.Capacity())
	mustCommit(t, a, v1)

	wipeArchiveShards(t, a, cluster, 4)
	id := store.ShardID{Object: "t/v1-full", Row: 0}
	node0, err := cluster.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := node0.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if err := node0.Put(t.Context(), id, data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}

	report, err := a.RepairNodeContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	// Verify through the rebuilt shard, avoiding the still-truncated row 0.
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("version 1 mismatch after repair around truncated source")
	}
}

func TestRepairNodeRefusesWithoutLengthMajority(t *testing.T) {
	// With the target's shard gone, two sources truncated to one identical
	// length and one source missing, only two right-length sources are
	// left, fewer than k: repair must refuse (ErrUnavailable), never decode
	// from the truncated group.
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{77}, a.Capacity())
	mustCommit(t, a, v1)
	wipeArchiveShards(t, a, cluster, 5)
	for _, row := range []int{0, 1} {
		id := store.ShardID{Object: "t/v1-full", Row: row}
		node, err := cluster.Node(row)
		if err != nil {
			t.Fatal(err)
		}
		data, err := node.Get(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Put(t.Context(), id, data[:len(data)-2]); err != nil {
			t.Fatal(err)
		}
	}
	node4, err := cluster.Node(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := node4.Delete(t.Context(), store.ShardID{Object: "t/v1-full", Row: 4}); err != nil {
		t.Fatal(err)
	}
	// Readable sources: rows 0,1 (truncated, equal length, so lost rows)
	// and 2,3 (healthy) - 2 of the k=3 a decode needs.
	if _, err := a.RepairNodeContext(t.Context(), 5); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
}

func TestRepairNodeHealsCorruptShardOnDisk(t *testing.T) {
	// On a disk-backed cluster the target node's own shard can be corrupt
	// rather than missing: the probe gets ErrCorrupt and the shard must be
	// rebuilt, also routing around a corrupt source on another node.
	cluster, err := store.NewDiskCluster(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{55}, a.Capacity())
	mustCommit(t, a, v1)

	// Bit rot on the repair target AND on one potential source node.
	if n := corruptDiskShardFiles(t, diskNodeAt(t, cluster, 3), 1); n != 1 {
		t.Fatal("no file damaged on node 3")
	}
	if n := corruptDiskShardFiles(t, diskNodeAt(t, cluster, 0), 1); n != 1 {
		t.Fatal("no file damaged on node 0")
	}
	report, err := a.RepairNodeContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsChecked != 1 || report.ShardsRepaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	// Node 3's shard is readable again.
	if _, err := cluster.Get(t.Context(), 3, store.ShardID{Object: "t/v1-full", Row: 3}); err != nil {
		t.Fatalf("repaired shard unreadable: %v", err)
	}
	// Row 0 is still corrupt; a full scrub heals it too.
	report2, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report2.ShardsCorrupt != 1 || report2.Repaired != 1 {
		t.Fatalf("scrub after repair = %+v", report2)
	}
	// Force reads through the rebuilt row 3 and verify the decode.
	if err := cluster.Fail(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("version 1 mismatch after disk repair")
	}
}

func TestRepairNodeDispersed(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.Placement = store.DispersedPlacement{N: cfg.N}
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{7}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 2))
	// Node 8 belongs to the delta's group (object 1, row 2).
	deleted := wipeArchiveShards(t, a, cluster, 8)
	if deleted != 1 {
		t.Fatalf("deleted %d, want 1", deleted)
	}
	report, err := a.RepairNodeContext(t.Context(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 1 {
		t.Errorf("report = %+v", report)
	}
	// Node 0 belongs to x1's group only.
	report, err = a.RepairNodeContext(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsChecked != 1 || report.ShardsHealthy != 1 {
		t.Errorf("report = %+v", report)
	}
}
