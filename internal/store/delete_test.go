package store

import (
	"context"
	"errors"
	"testing"
)

// deleteBatchNodes returns one instance of every local node
// implementation, preloaded with the given shards.
func deleteBatchNodes(t *testing.T, ids []ShardID) map[string]Node {
	t.Helper()
	mem := NewMemNode("mem")
	disk, err := NewDiskNode("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]Node{"mem": mem, "disk": disk}
	for _, n := range nodes {
		for i, id := range ids {
			if err := n.Put(t.Context(), id, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes
}

func TestDeleteBatchRemovesShards(t *testing.T) {
	ids := []ShardID{
		{Object: "a/v1-delta", Row: 0},
		{Object: "a/v1-delta", Row: 1},
		{Object: "a/v2-delta", Row: 0},
	}
	for name, n := range deleteBatchNodes(t, ids) {
		for i, err := range n.DeleteBatch(t.Context(), ids[:2]) {
			if err != nil {
				t.Errorf("%s: delete %d: %v", name, i, err)
			}
		}
		if _, err := n.Get(t.Context(), ids[0]); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: deleted shard still readable (err=%v)", name, err)
		}
		if data, err := n.Get(t.Context(), ids[2]); err != nil || len(data) != 1 {
			t.Errorf("%s: surviving shard damaged: %v/%v", name, data, err)
		}
		if got := n.Stats().Deletes; got != 2 {
			t.Errorf("%s: deletes counted = %d, want 2", name, got)
		}
	}
}

func TestDeleteBatchPerShardNotFound(t *testing.T) {
	ids := []ShardID{{Object: "o", Row: 0}}
	for name, n := range deleteBatchNodes(t, ids) {
		errs := n.DeleteBatch(t.Context(), []ShardID{
			{Object: "o", Row: 0},
			{Object: "ghost", Row: 9},
		})
		if errs[0] != nil {
			t.Errorf("%s: present shard: %v", name, errs[0])
		}
		if !errors.Is(errs[1], ErrNotFound) {
			t.Errorf("%s: absent shard err = %v, want ErrNotFound", name, errs[1])
		}
		if got := n.Stats().Deletes; got != 1 {
			t.Errorf("%s: deletes counted = %d, want 1", name, got)
		}
	}
}

func TestDeleteBatchOnFailedNode(t *testing.T) {
	ids := []ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	for name, n := range deleteBatchNodes(t, ids) {
		n.(FaultInjector).SetFailed(true)
		for i, err := range n.DeleteBatch(t.Context(), ids) {
			if !errors.Is(err, ErrNodeDown) {
				t.Errorf("%s: delete %d on failed node = %v, want ErrNodeDown", name, i, err)
			}
		}
		n.(FaultInjector).SetFailed(false)
		if _, err := n.Get(t.Context(), ids[0]); err != nil {
			t.Errorf("%s: shard lost despite failed delete: %v", name, err)
		}
	}
}

func TestDeleteBatchHonorsContext(t *testing.T) {
	ids := []ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	for name, n := range deleteBatchNodes(t, ids) {
		ctx, cancel := context.WithCancel(t.Context())
		cancel()
		for i, err := range n.DeleteBatch(ctx, ids) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: delete %d under cancelled ctx = %v, want Canceled", name, i, err)
			}
			if errors.Is(err, ErrNodeDown) {
				t.Errorf("%s: delete %d misattributes cancellation to node health", name, i)
			}
		}
		if _, err := n.Get(t.Context(), ids[0]); err != nil {
			t.Errorf("%s: shard deleted despite cancelled batch: %v", name, err)
		}
	}
}

func TestClusterDeleteBatchGroupsByNode(t *testing.T) {
	c := NewMemCluster(3)
	var refs []ShardRef
	for node := 0; node < 3; node++ {
		for row := 0; row < 2; row++ {
			ref := ShardRef{Node: node, ID: ShardID{Object: "o", Row: node*2 + row}}
			if err := c.Put(t.Context(), ref.Node, ref.ID, []byte{1}); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	for i, err := range c.DeleteBatch(t.Context(), refs) {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for _, ref := range refs {
		if _, err := c.Get(t.Context(), ref.Node, ref.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("shard %v on node %d survived the batch (err=%v)", ref.ID, ref.Node, err)
		}
	}
	// Out-of-range nodes fail per shard without sinking the batch.
	errs := c.DeleteBatch(t.Context(), []ShardRef{{Node: 99, ID: ShardID{Object: "o"}}})
	if !errors.Is(errs[0], ErrClusterTooSmall) {
		t.Errorf("out-of-range node err = %v, want ErrClusterTooSmall", errs[0])
	}
}

func TestDiskDeleteBatchDurableAfterReopen(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskNode("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	for _, id := range ids {
		if err := disk.Put(t.Context(), id, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, err := range disk.DeleteBatch(t.Context(), ids) {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDiskNode("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Len(); got != 0 {
		t.Errorf("%d shard files survived delete batch + reopen", got)
	}
}
