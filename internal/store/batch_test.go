package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
)

func batchIDs(object string, rows ...int) []ShardID {
	ids := make([]ShardID, len(rows))
	for i, r := range rows {
		ids[i] = ShardID{Object: object, Row: r}
	}
	return ids
}

// batchableNodes returns one instance of every node implementation that
// should serve batches natively, plus its name.
func batchableNodes(t *testing.T) map[string]Node {
	t.Helper()
	disk, err := NewDiskNode("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Node{"mem": NewMemNode("mem"), "disk": disk}
}

func TestBatchNodeRoundTrip(t *testing.T) {
	for name, n := range batchableNodes(t) {
		t.Run(name, func(t *testing.T) {
			ids := batchIDs("obj", 0, 1, 2, 3)
			data := [][]byte{{1}, {2, 2}, {3, 3, 3}, nil}
			for i, err := range n.PutBatch(t.Context(), ids, data) {
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			results := n.GetBatch(t.Context(), ids)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("get %d: %v", i, res.Err)
				}
				if !bytes.Equal(res.Data, data[i]) {
					t.Errorf("shard %d = %v, want %v", i, res.Data, data[i])
				}
			}
			// A missing row fails alone; its neighbors still succeed.
			mixed := n.GetBatch(t.Context(), batchIDs("obj", 1, 9, 2))
			if mixed[0].Err != nil || mixed[2].Err != nil {
				t.Errorf("present rows failed: %v, %v", mixed[0].Err, mixed[2].Err)
			}
			if !errors.Is(mixed[1].Err, ErrNotFound) {
				t.Errorf("missing row err = %v, want ErrNotFound", mixed[1].Err)
			}
		})
	}
}

// TestBatchStatsMatchPerShard is the accounting contract: a batch of m
// shards must move NodeStats exactly as m individual operations would.
func TestBatchStatsMatchPerShard(t *testing.T) {
	for name, n := range batchableNodes(t) {
		t.Run(name, func(t *testing.T) {
			ids := batchIDs("obj", 0, 1, 2, 3, 4)
			data := make([][]byte, len(ids))
			for i := range data {
				data[i] = bytes.Repeat([]byte{byte(i)}, 10+i)
			}
			// Per-shard reference run.
			for i, id := range ids {
				if err := n.Put(t.Context(), id, data[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range ids {
				if _, err := n.Get(t.Context(), id); err != nil {
					t.Fatal(err)
				}
			}
			want := n.Stats()
			n.ResetStats()
			// Batched run over the same shards.
			for i, err := range n.PutBatch(t.Context(), ids, data) {
				if err != nil {
					t.Fatalf("batched put %d: %v", i, err)
				}
			}
			for i, res := range n.GetBatch(t.Context(), ids) {
				if res.Err != nil {
					t.Fatalf("batched get %d: %v", i, res.Err)
				}
			}
			if got := n.Stats(); got != want {
				t.Errorf("batched stats = %+v, per-shard stats = %+v", got, want)
			}
			// Failed entries must not count: one missing row in a batch.
			n.ResetStats()
			_ = n.GetBatch(t.Context(), batchIDs("obj", 0, 99))
			if got := n.Stats().Reads; got != 1 {
				t.Errorf("reads with one missing row = %d, want 1", got)
			}
		})
	}
}

func TestBatchOnFailedNode(t *testing.T) {
	for name, n := range batchableNodes(t) {
		t.Run(name, func(t *testing.T) {
			ids := batchIDs("obj", 0, 1)
			data := [][]byte{{1}, {2}}
			n.(FaultInjector).SetFailed(true)
			for _, err := range n.PutBatch(t.Context(), ids, data) {
				if !errors.Is(err, ErrNodeDown) {
					t.Errorf("put on failed node: %v, want ErrNodeDown", err)
				}
			}
			for _, res := range n.GetBatch(t.Context(), ids) {
				if !errors.Is(res.Err, ErrNodeDown) {
					t.Errorf("get on failed node: %v, want ErrNodeDown", res.Err)
				}
			}
			if got := n.Stats(); got != (NodeStats{}) {
				t.Errorf("failed-node batch moved stats: %+v", got)
			}
		})
	}
}

func TestDiskBatchCorruptStatusPerShard(t *testing.T) {
	disk, err := NewDiskNode("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := batchIDs("obj", 0, 1, 2)
	for i, id := range ids {
		if err := disk.Put(t.Context(), id, []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rot exactly one shard file; the batch must report ErrCorrupt for that
	// row only.
	files, err := disk.ShardFiles()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	results := disk.GetBatch(t.Context(), ids)
	var corrupt, healthy int
	for _, res := range results {
		switch {
		case res.Err == nil:
			healthy++
		case errors.Is(res.Err, ErrCorrupt):
			corrupt++
		default:
			t.Errorf("unexpected batch error: %v", res.Err)
		}
	}
	if corrupt != 1 || healthy != 2 {
		t.Errorf("corrupt=%d healthy=%d, want 1 and 2", corrupt, healthy)
	}
}

func TestClusterBatchGroupsByNode(t *testing.T) {
	c := NewMemCluster(3)
	refs := []ShardRef{
		{Node: 0, ID: ShardID{Object: "o", Row: 0}},
		{Node: 1, ID: ShardID{Object: "o", Row: 1}},
		{Node: 0, ID: ShardID{Object: "o", Row: 2}},
		{Node: 2, ID: ShardID{Object: "o", Row: 3}},
	}
	data := [][]byte{{0}, {1}, {2}, {3}}
	for i, err := range c.PutBatch(t.Context(), refs, data) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	results := c.GetBatch(t.Context(), refs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("get %d: %v", i, res.Err)
		}
		if !bytes.Equal(res.Data, data[i]) {
			t.Errorf("shard %d = %v, want %v", i, res.Data, data[i])
		}
	}
	// Node 0 served two shards, nodes 1 and 2 one each.
	for i, want := range []uint64{2, 1, 1} {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Stats().Reads; got != want {
			t.Errorf("node %d reads = %d, want %d", i, got, want)
		}
	}
}

func TestClusterBatchMixedNodeKinds(t *testing.T) {
	// A cluster mixing a disk node, a memory node, a failed node and an
	// index beyond it: per-shard results must be independent and aligned.
	disk, err := NewDiskNode("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	failing := NewMemNode("down")
	failing.SetFailed(true)
	c := NewCluster([]Node{disk, NewMemNode("mem"), failing})
	refs := []ShardRef{
		{Node: 1, ID: ShardID{Object: "o", Row: 0}},
		{Node: 0, ID: ShardID{Object: "o", Row: 1}},
		{Node: 2, ID: ShardID{Object: "o", Row: 2}},
		{Node: 7, ID: ShardID{Object: "o", Row: 3}},
	}
	data := [][]byte{{10}, {11}, {12}, {13}}
	errs := c.PutBatch(t.Context(), refs, data)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("healthy puts failed: %v, %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrNodeDown) {
		t.Errorf("failed-node put err = %v, want ErrNodeDown", errs[2])
	}
	if !errors.Is(errs[3], ErrClusterTooSmall) {
		t.Errorf("out-of-range put err = %v, want ErrClusterTooSmall", errs[3])
	}
	results := c.GetBatch(t.Context(), refs)
	for i := 0; i < 2; i++ {
		if results[i].Err != nil || !bytes.Equal(results[i].Data, data[i]) {
			t.Errorf("shard %d = %v/%v, want %v", i, results[i].Data, results[i].Err, data[i])
		}
	}
	if !errors.Is(results[2].Err, ErrNodeDown) {
		t.Errorf("failed-node get err = %v, want ErrNodeDown", results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrClusterTooSmall) {
		t.Errorf("out-of-range get err = %v, want ErrClusterTooSmall", results[3].Err)
	}
}

func TestClusterBatchEmpty(t *testing.T) {
	c := NewMemCluster(1)
	if got := c.GetBatch(t.Context(), nil); len(got) != 0 {
		t.Errorf("empty GetBatch = %v", got)
	}
	if got := c.PutBatch(t.Context(), nil, nil); len(got) != 0 {
		t.Errorf("empty PutBatch = %v", got)
	}
}

func TestDiskBatchDurableAfterReopen(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskNode("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := batchIDs("o", 0, 1, 2, 3, 4, 5, 6, 7)
	data := make([][]byte, len(ids))
	for i := range data {
		data[i] = []byte(fmt.Sprintf("shard-%d", i))
	}
	for i, err := range disk.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDiskNode("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range reopened.GetBatch(t.Context(), ids) {
		if res.Err != nil || !bytes.Equal(res.Data, data[i]) {
			t.Errorf("reopened shard %d = %v/%v", i, res.Data, res.Err)
		}
	}
}
