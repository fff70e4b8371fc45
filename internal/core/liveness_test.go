package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// pingCounted wraps a node and counts the liveness pings it answers.
type pingCounted struct {
	store.Node
	pings *atomic.Int64
}

func (n pingCounted) Available(ctx context.Context) bool {
	n.pings.Add(1)
	return n.Node.Available(ctx)
}

// pingCountedCluster is a cluster of n MemNodes - node 0 replaced by first
// when one is given - whose nodes count their pings on one shared counter.
// The nodes come back unwrapped, for the test to reach behind the cluster.
func pingCountedCluster(n int, first store.Node) (*store.Cluster, []store.Node, *atomic.Int64) {
	pings := &atomic.Int64{}
	nodes := make([]store.Node, n)
	counted := make([]store.Node, n)
	for i := range nodes {
		nodes[i] = store.NewMemNode("node-" + string(rune('0'+i)))
		if i == 0 && first != nil {
			nodes[i] = first
		}
		counted[i] = pingCounted{Node: nodes[i], pings: pings}
	}
	return store.NewCluster(counted), nodes, pings
}

// TestLivenessSilentLossesAreSurvivedByOneRead: n-k nodes die without the
// cluster being told, laid out so that each re-plan of the read runs into
// the next one (the deficit is always fetched from the first rows believed
// live). The read finds them out one failed batch at a time and still
// returns, at k successful reads; the read after it asks exactly those nodes
// and plans around them from the start.
func TestLivenessSilentLossesAreSurvivedByOneRead(t *testing.T) {
	const n, k = 10, 4
	cluster, nodes, pings := pingCountedCluster(n, nil)
	a, err := New(Config{Name: "silent", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: 4}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{9}, a.Capacity())
	mustCommit(t, a, object)
	for row := k - 1; row < k-1+n-k; row++ { // rows 3..8: the last planned row and the next five spares
		nodes[row].(*store.MemNode).SetFailed(true)
	}
	pings.Store(0)
	got, stats := mustRetrieve(t, a, 1)
	if !bytes.Equal(got, object) {
		t.Error("content mismatch on the discovering read")
	}
	if stats.NodeReads != k {
		t.Errorf("discovering read NodeReads = %d, want %d (failed reads are not charged)", stats.NodeReads, k)
	}
	pings.Store(0)
	got, stats = mustRetrieve(t, a, 1)
	if !bytes.Equal(got, object) || stats.NodeReads != k {
		t.Errorf("second read: NodeReads = %d (want %d), content ok = %v", stats.NodeReads, k, bytes.Equal(got, object))
	}
	if got := pings.Load(); got != n-k {
		t.Errorf("second read sent %d pings, want %d (the doubted nodes, once)", got, n-k)
	}
}

// parkedReads is a MemNode whose batch reads, while armed, announce
// themselves and then wait for their context to end.
type parkedReads struct {
	*store.MemNode
	armed   atomic.Bool
	entered chan struct{}
}

func (n *parkedReads) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if n.armed.Load() {
		n.entered <- struct{}{}
		<-ctx.Done()
	}
	return n.MemNode.GetBatch(ctx, ids)
}

// TestLivenessCancelledWalkDoubtsNobody: a walk cancelled while a node's
// batch is in flight says nothing about that node, so the next healthy read
// still sends no ping.
func TestLivenessCancelledWalkDoubtsNobody(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	parked := &parkedReads{MemNode: store.NewMemNode("node-0"), entered: make(chan struct{}, 1)}
	cluster, _, pings := pingCountedCluster(cfg.N, parked)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{4}, a.Capacity())
	mustCommit(t, a, object)

	parked.armed.Store(true)
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	go func() {
		_, _, err := a.RetrieveContext(ctx, 1)
		done <- err
	}()
	<-parked.entered // node 0's batch of the walk is in flight
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retrieve = %v, want context.Canceled", err)
	}
	parked.armed.Store(false)

	pings.Store(0)
	if got, _ := mustRetrieve(t, a, 1); !bytes.Equal(got, object) {
		t.Error("content mismatch after the cancelled walk")
	}
	if got := pings.Load(); got != 0 {
		t.Errorf("the read after a cancelled walk sent %d pings, want 0", got)
	}
}

// getCounted wraps a node and counts the get batches it is sent.
type getCounted struct {
	store.Node
	gets *atomic.Int64
}

func (n getCounted) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	n.gets.Add(1)
	return n.Node.GetBatch(ctx, ids)
}

// TestLivenessMaintenanceAsksADeadNodeOncePerWalk: a node that crashed
// without the cluster being told costs a maintenance walk the retry rule's
// batches once, on the first codeword it meets; from then on each
// codeword's probe round finds the node down and sends it nothing. A scrub
// counts the node's rows unreachable, and a repair of another node then
// rebuilds every row from k reads on the others.
func TestLivenessMaintenanceAsksADeadNodeOncePerWalk(t *testing.T) {
	const n, k, versions, dead, wiped = 12, 10, 50, 3, 5
	gets := make([]atomic.Int64, n)
	nodes := make([]store.Node, n)
	for i := range nodes {
		nodes[i] = getCounted{Node: store.NewMemNode(fmt.Sprintf("node-%d", i)), gets: &gets[i]}
	}
	cluster := store.NewCluster(nodes)
	a, err := New(Config{Name: "walk", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: 64}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{5}, a.Capacity())
	for v := range versions {
		object = editBlocks(object, 64, v%k)
		mustCommit(t, a, object)
	}
	nodes[dead].(getCounted).Node.(*store.MemNode).SetFailed(true)

	gets[dead].Store(0)
	scrub, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ScrubReport{ShardsChecked: versions * (n - 1), ShardsUnreachable: versions}); scrub != want {
		t.Errorf("scrub report = %+v, want %+v", scrub, want)
	}
	if got := gets[dead].Load(); got > 3 {
		t.Errorf("the scrub sent the dead node %d get batches, want at most 3 (one retry round)", got)
	}

	if deleted := wipeArchiveShards(t, a, cluster, wiped); deleted != versions {
		t.Fatalf("deleted %d shards, want %d", deleted, versions)
	}
	gets[dead].Store(0)
	repair, err := a.RepairNodeContext(t.Context(), wiped)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RepairReport{ShardsChecked: versions, ShardsRepaired: versions, NodeReads: versions * k}); repair != want {
		t.Errorf("repair report = %+v, want %+v", repair, want)
	}
	if got := gets[dead].Load(); got > 3 {
		t.Errorf("the repair sent the dead node %d get batches, want at most 3 (one retry round)", got)
	}
}
