package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// lengthArchive commits one random full version to an (n, 3) archive over
// MemNodes, blocks of 4 bytes, and truncates the shards of its rows by one
// byte each.
func lengthArchive(t *testing.T, n int, truncated ...int) (*Archive, *store.Cluster, []byte) {
	t.Helper()
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.N = n
	cluster := store.NewMemCluster(0)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, a.Capacity())
	rand.New(rand.NewSource(int64(n))).Read(v1)
	mustCommit(t, a, v1)
	for _, row := range truncated {
		truncateShard(t, cluster, row, store.ShardID{Object: "t/v1-full", Row: row}, 1)
	}
	return a, cluster, v1
}

// TestReadSkipsWrongLengthRows: n-k rows of a (6,3) codeword one byte short
// are n-k lost rows, and the other k read it back.
func TestReadSkipsWrongLengthRows(t *testing.T) {
	a, _, v1 := lengthArchive(t, 6, 0, 1, 2)
	got, stats, err := a.RetrieveContext(t.Context(), 1)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("v1 with rows 0-2 truncated: err = %v, bytes equal %v", err, bytes.Equal(got, v1))
	}
	if stats.NodeReads != 3 {
		t.Errorf("v1 read with %d node reads, want 3: a wrong-length row is no read", stats.NodeReads)
	}
}

// TestRepairRebuildsAroundWrongLengthRows: with rows 0-2 of a (9,3) codeword
// one byte short and node 8 wiped, repair rebuilds row 8 from right-length
// rows only, BlockSize bytes long, and v1 reads back through it.
func TestRepairRebuildsAroundWrongLengthRows(t *testing.T) {
	a, cluster, v1 := lengthArchive(t, 9, 0, 1, 2)
	node, _ := cluster.Node(8)
	node.(*store.MemNode).Wipe()
	report, err := a.RepairNodeContext(t.Context(), 8)
	if err != nil || report.ShardsRepaired != 1 || report.NodeReads != 3 {
		t.Fatalf("repair of node 8: %+v, %v; want 1 shard rebuilt from 3 reads", report, err)
	}
	if row, err := node.Get(t.Context(), store.ShardID{Object: "t/v1-full", Row: 8}); err != nil || len(row) != a.cfg.BlockSize {
		t.Fatalf("rebuilt row 8 is %d bytes (%v), want %d", len(row), err, a.cfg.BlockSize)
	}
	// Rows 0 (truncated), 6, 7 and 8 are live: the read passes over row 0 and
	// decodes from 6, 7 and the rebuilt 8.
	if err := cluster.Fail(1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("v1 through the rebuilt row: err = %v, bytes equal %v", err, bytes.Equal(got, v1))
	}
}

// TestRepairRebuildsWrongLengthTarget: a truncated shard on the node being
// repaired is damage, not a healthy shard, and is rebuilt.
func TestRepairRebuildsWrongLengthTarget(t *testing.T) {
	a, cluster, v1 := lengthArchive(t, 6, 4)
	report, err := a.RepairNodeContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RepairReport{ShardsChecked: 1, ShardsRepaired: 1, NodeReads: 3}); report != want {
		t.Fatalf("repair of node 4 = %+v, want %+v", report, want)
	}
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("v1 through the rebuilt row 4: err = %v, bytes equal %v", err, bytes.Equal(got, v1))
	}
}

// lendingNode is a MemNode whose get batches lend what they return: each
// shard read comes with a Release that counts its return.
type lendingNode struct {
	*store.MemNode
	lent, returned *atomic.Int64
}

func (n *lendingNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	results := n.MemNode.GetBatch(ctx, ids)
	for i := range results {
		if results[i].Err == nil {
			n.lent.Add(1)
			results[i].Release = func() { n.returned.Add(1) }
		}
	}
	return results
}

// TestGetBatchCallersReturnWhatTheyAreLent holds every GetBatch caller in
// core to the lending contract of store.ShardResult: a scrub with and
// without repair (over a truncated shard, which the length check gives
// back), a node repair and manifest recovery each return every shard they
// were lent, once.
func TestGetBatchCallersReturnWhatTheyAreLent(t *testing.T) {
	ctx := t.Context()
	var lent, returned atomic.Int64
	cluster := store.NewGrowableCluster(func(i int) store.Node {
		return &lendingNode{MemNode: store.NewMemNode(fmt.Sprintf("lend-%d", i)), lent: &lent, returned: &returned}
	})
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{5}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, a.cfg.BlockSize, 1))
	if _, err := a.PublishContext(ctx, true); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, a, editBlocks(v1, a.cfg.BlockSize, 2))
	if _, err := a.PublishContext(ctx, false); err != nil { // a record beyond the snapshot, for recovery to replay
		t.Fatal(err)
	}
	gen := a.Manifest().Generation
	check := func(what string, op func() error) {
		t.Helper()
		lent0, returned0 := lent.Load(), returned.Load()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if l, r := lent.Load()-lent0, returned.Load()-returned0; l == 0 || l != r {
			t.Errorf("%s was lent %d shards and returned %d, want the same non-zero count", what, l, r)
		}
	}
	check("scrub", func() error { _, err := a.ScrubContext(ctx, false); return err })
	truncateShard(t, cluster, 2, store.ShardID{Object: "t/v1-full", Row: 2}, 1)
	check("repairing scrub", func() error {
		report, err := a.ScrubContext(ctx, true)
		if err == nil && report.Repaired != 1 {
			t.Errorf("repairing scrub rewrote %d shards, want 1", report.Repaired)
		}
		return err
	})
	node, _ := cluster.Node(1)
	node.(*lendingNode).Wipe()
	check("node repair", func() error {
		report, err := a.RepairNodeContext(ctx, 1)
		if err == nil && report.ShardsRepaired != 3 {
			t.Errorf("node repair rebuilt %d shards, want 3", report.ShardsRepaired)
		}
		return err
	})
	check("manifest recovery", func() error {
		m, snapshot, err := manifestFromCluster(ctx, "t", cluster)
		if err == nil && (m.Generation != gen || snapshot >= gen) {
			t.Errorf("recovered generation %d from snapshot %d, want %d from an earlier one", m.Generation, snapshot, gen)
		}
		return err
	})
}
