package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// wipeableNode is a memory node that can be made to answer as its empty
// replacement would - every shard not found - and then be given its shards
// back, so one chain serves every pattern of wiped nodes.
type wipeableNode struct {
	*store.MemNode
	wiped bool
}

func (n *wipeableNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if !n.wiped {
		return n.MemNode.GetBatch(ctx, ids)
	}
	results := make([]store.ShardResult, len(ids))
	for i, id := range ids {
		results[i].Err = &store.ShardError{Node: n.ID(), Shard: id, Op: "get", Err: store.ErrNotFound}
	}
	return results
}

// replicaChain commits a chain the way a gateway publishes it: every commit
// a record, and a fold (the snapshot, then the records it replaces deleted)
// after the first half, so the nodes end holding a snapshot and the records
// of the commits since. It returns the archive, its cluster and nodes, and
// the versions.
func replicaChain(t *testing.T, cfg core.Config, commits int) (*core.Archive, *store.Cluster, []*wipeableNode, [][]byte) {
	t.Helper()
	var nodes []*wipeableNode
	cluster := store.NewGrowableCluster(func(i int) store.Node {
		n := &wipeableNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i))}
		nodes = append(nodes, n)
		return n
	})
	cfg.Name, cfg.Scheme, cfg.BlockSize = "replicas", core.BasicSEC, 4
	a, err := core.CreateContext(t.Context(), cfg.Name, cfg.Spec(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	object := make([]byte, a.Capacity())
	rng.Read(object)
	var versions [][]byte
	for v := 1; v <= commits; v++ {
		if v > 1 {
			object = editBlocks(object, cfg.BlockSize, rng.Intn(cfg.K))
		}
		versions = append(versions, object)
		mustCommit(t, a, object)
		if _, err := a.PublishContext(t.Context(), v == (commits+1)/2); err != nil {
			t.Fatalf("publishing commit %d: %v", v, err)
		}
	}
	return a, cluster, nodes, versions
}

// TestReplicaCensus holds the manifest objects on the nodes - a snapshot and
// the records published since it - to the data's own fault tolerance, on
// every pattern: with the root lost, recovery from the nodes reads every
// acknowledged version back byte-identical under any n-k wiped nodes and
// under any n-k down nodes, and refuses, with the node error and never a
// shorter manifest, under any n-k+1 down. Each object is on n-k+1 nodes,
// so keeping only n-k copies fails the census at the patterns that wipe or
// down exactly one object's holders.
func TestReplicaCensus(t *testing.T) {
	ns := erasure.NonSystematicCauchy
	for _, kind := range []struct {
		name    string
		cfg     core.Config
		commits int
		// patterns counts the wiped, the down and the refused patterns:
		// those of at most n-k nodes twice, then those of n-k+1.
		patterns [3]int
	}{
		{"(12,10)", core.Config{Code: ns, N: 12, K: 10}, 5, [3]int{79, 79, 220}},
		{"(6,3)", core.Config{Code: ns, N: 6, K: 3}, 5, [3]int{42, 42, 15}},
		{"dispersed(6,3)", core.Config{Code: ns, N: 6, K: 3, Placement: store.DispersedPlacement{N: 6}}, 2, [3]int{299, 299, 495}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			a, cluster, nodes, versions := replicaChain(t, kind.cfg, kind.commits)
			want := a.Manifest()
			if snap := snapshotOn(t, nodes, a.Name()); snap == 0 || snap >= want.Generation {
				t.Fatalf("a snapshot of generation %d under generation %d: want a fold behind records", snap, want.Generation)
			}
			tolerance := kind.cfg.N - kind.cfg.K
			var got [3]int
			for mask := 0; mask < 1<<len(nodes); mask++ {
				var pattern []int
				for m := mask; m != 0; m &= m - 1 {
					pattern = append(pattern, bits.TrailingZeros(uint(m)))
				}
				switch {
				case len(pattern) <= tolerance:
					got[0]++
					for _, node := range pattern {
						nodes[node].wiped = true
					}
					recoverAll(t, fmt.Sprintf("wiped %v", pattern), cluster, want, versions)
					for _, node := range pattern {
						nodes[node].wiped = false
					}
					got[1]++
					if err := cluster.Fail(pattern...); err != nil {
						t.Fatal(err)
					}
					recoverAll(t, fmt.Sprintf("down %v", pattern), cluster, want, versions)
				case len(pattern) == tolerance+1:
					got[2]++
					if err := cluster.Fail(pattern...); err != nil {
						t.Fatal(err)
					}
					if b, err := core.OpenContext(t.Context(), a.Name(), cluster, nil); !errors.Is(err, store.ErrNodeDown) {
						t.Fatalf("down %v: recovered %v (err %v), want ErrNodeDown", pattern, b, err)
					}
				}
				cluster.HealAll()
			}
			if got != kind.patterns {
				t.Errorf("%v patterns (wiped, down, refused), want %v", got, kind.patterns)
			}
		})
	}
}

// snapshotOn returns the largest generation of the snapshots of the named
// archive the nodes hold.
func snapshotOn(t *testing.T, nodes []*wipeableNode, name string) (gen uint64) {
	t.Helper()
	for _, n := range nodes {
		raw, err := n.Get(t.Context(), store.ShardID{Object: name + "/manifest"})
		if err != nil {
			continue
		}
		var m core.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		gen = max(gen, m.Generation)
	}
	return gen
}

// recoverAll reopens the archive from the nodes alone and reads every
// version back.
func recoverAll(t *testing.T, at string, cluster *store.Cluster, want core.Manifest, versions [][]byte) {
	t.Helper()
	b, err := core.OpenContext(t.Context(), want.Name, cluster, nil)
	if err != nil {
		t.Fatalf("%s: recovering from the nodes: %v", at, err)
	}
	want.Generation += 2 // a load from the nodes skips two generations
	if got := b.Manifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovered generation %d with %d versions, want generation %d with %d", at, got.Generation, len(got.Entries), want.Generation, len(want.Entries))
	}
	for v, object := range versions {
		got, _, err := b.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, object) {
			t.Fatalf("%s: version %d: err = %v, byte-identical: %v", at, v+1, err, bytes.Equal(got, object))
		}
	}
}
