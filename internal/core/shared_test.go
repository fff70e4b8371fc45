package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"sync"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// hashingNode is a MemNode that remembers the hash of every shard as it was
// put. MemNode hands readers the shard it stores, so a reader that wrote
// into what it was handed would change the stored bytes; changed finds it.
type hashingNode struct {
	*store.MemNode
	mu   sync.Mutex
	puts map[store.ShardID][sha256.Size]byte
}

func newHashingNode(i int) store.Node {
	return &hashingNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i)), puts: make(map[store.ShardID][sha256.Size]byte)}
}

func (n *hashingNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	errs := n.MemNode.PutBatch(ctx, ids, data)
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, err := range errs {
		if err == nil {
			n.puts[ids[i]] = sha256.Sum256(data[i])
		}
	}
	return errs
}

func (n *hashingNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	errs := n.MemNode.DeleteBatch(ctx, ids)
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, err := range errs {
		if err == nil {
			delete(n.puts, ids[i])
		}
	}
	return errs
}

func (n *hashingNode) Wipe() {
	n.MemNode.Wipe()
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.puts)
}

// stored lists the shards the node holds that were put through the cluster,
// with the hash each was put with.
func (n *hashingNode) stored() map[store.ShardID][sha256.Size]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return maps.Clone(n.puts)
}

// changed lists the stored shards whose bytes are no longer those put.
func (n *hashingNode) changed(t *testing.T) []store.ShardID {
	t.Helper()
	var changed []store.ShardID
	for id, sum := range n.stored() {
		data, err := n.MemNode.Get(t.Context(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sha256.Sum256(data) != sum {
			changed = append(changed, id)
		}
	}
	return changed
}

// TestReadersNeverWriteStoredShards holds every reader of node memory to
// the read-only contract of store.Node.GetBatch, on every census kind: with
// each shard hashed as it was put, reads of every version healthy and with
// each node down in turn, a whole-prefix read, a scrub, a node rebuilt by
// repair, a compaction with its reclaim, and a commit on a reopened archive
// (which restores its latest-version cache from shards) leave every stored
// shard the bytes it was put with.
func TestReadersNeverWriteStoredShards(t *testing.T) {
	for _, kind := range censusKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			kind.cfg.ReadCacheBytes = 1 << 20
			a, cluster, versions := censusChain(t, kind.cfg, store.NewGrowableCluster(newHashingNode))
			ctx := t.Context()
			readAll := func(at string) {
				t.Helper()
				for v, want := range versions {
					if got, _, err := a.RetrieveContext(ctx, v+1); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: v%d err = %v, bytes equal %v", at, v+1, err, bytes.Equal(got, want))
					}
				}
				if _, _, err := a.RetrieveAllContext(ctx, len(versions)); err != nil {
					t.Fatalf("%s: RetrieveAll: %v", at, err)
				}
			}
			readAll("healthy")
			for node := 0; node < cluster.Size(); node++ {
				if err := cluster.Fail(node); err != nil {
					t.Fatal(err)
				}
				readAll(fmt.Sprintf("node %d down", node))
				cluster.HealAll()
			}
			if report, err := a.ScrubContext(ctx, true); err != nil || report.ShardsCorrupt+report.ShardsMissing != 0 {
				t.Fatalf("scrub: %+v, %v", report, err)
			}
			wiped, _ := cluster.Node(0)
			wiped.(*hashingNode).Wipe()
			if report, err := a.RepairNodeContext(ctx, 0); err != nil || report.ShardsRepaired == 0 {
				t.Fatalf("repair of the wiped node 0: %+v, %v", report, err)
			}
			if _, err := a.CompactToContext(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := a.ReclaimSupersededContext(ctx); err != nil {
				t.Fatal(err)
			}
			readAll("compacted")
			reopened, err := core.Open(a.Manifest(), cluster)
			if err != nil {
				t.Fatal(err)
			}
			mustCommit(t, reopened, editBlocks(versions[len(versions)-1], 4, 0))
			for i := 0; i < cluster.Size(); i++ {
				node, _ := cluster.Node(i)
				if changed := node.(*hashingNode).changed(t); len(changed) > 0 {
					t.Errorf("node %d: stored shards %v changed after they were put", i, changed)
				}
			}
		})
	}
}
