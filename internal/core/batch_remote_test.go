// These tests drive archives over real transport servers, so they live in
// an external test package: transport imports core for the gateway
// protocol, and an internal test package may not close that import cycle.
package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

var (
	testConfig   = core.TestConfigForExternal
	mustCommit   = core.MustCommitForExternal
	mustRetrieve = core.MustRetrieveForExternal
	editBlocks   = core.EditBlocksForExternal
	fullID       = core.FullIDForExternal
	deltaID      = core.DeltaIDForExternal
)

// TestMain runs the suite with every served connection overwriting its
// request buffer once the request has been handled, every pooled frame
// overwritten once the walk that read it released its shards, and every set
// of decoded blocks once the read that was lent it released it: the tests
// pass only if no node and no archive kept a slice of any of them.
func TestMain(m *testing.M) {
	transport.ScribbleRequests = true
	transport.ScribbleReleasedFrames = true
	erasure.ScribbleReleasedBuffers = true
	os.Exit(m.Run())
}

// remoteCluster starts one transport server per backing node and returns a
// cluster of RemoteNode clients, with a 5 s operation timeout unless opts say
// otherwise, plus the servers for RPC accounting.
func remoteCluster(t *testing.T, backing []store.Node, opts ...transport.ClientOption) (*store.Cluster, []*transport.Server) {
	t.Helper()
	nodes := make([]store.Node, len(backing))
	servers := make([]*transport.Server, len(backing))
	for i, b := range backing {
		srv := transport.NewServer(b)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String(),
			append([]transport.ClientOption{transport.WithTimeout(5 * time.Second)}, opts...)...)
		t.Cleanup(func() { _ = client.Close() })
		nodes[i] = client
		servers[i] = srv
	}
	return store.NewCluster(nodes), servers
}

func sumRequests(servers []*transport.Server) transport.RequestStats {
	var total transport.RequestStats
	for _, s := range servers {
		st := s.RequestStats()
		total.Pings += st.Pings
		total.GetBatches += st.GetBatches
		total.GetBatchShards += st.GetBatchShards
		total.PutBatches += st.PutBatches
		total.PutBatchShards += st.PutBatchShards
	}
	return total
}

// TestRemoteRetrieveOneRPCPerNode is the wire-cost contract end to end: a
// retrieval over TCP nodes must issue one get RPC per node touched, not
// one per shard; and a read of many versions (subtest) costs the RPCs of a
// read of one.
func TestRemoteRetrieveOneRPCPerNode(t *testing.T) {
	backing := make([]store.Node, 6)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	cluster, servers := remoteCluster(t, backing)
	a, err := core.New(testConfig(core.NonDifferential, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{3}, a.Capacity())
	mustCommit(t, a, v1)
	before := sumRequests(servers)
	if before.PutBatches != 6 || before.PutBatchShards != 6 {
		t.Errorf("commit used %d put batches carrying %d shards, want 6 and 6 (one per node)", before.PutBatches, before.PutBatchShards)
	}
	got, stats := mustRetrieve(t, a, 1)
	if !bytes.Equal(got, v1) {
		t.Error("content mismatch over TCP")
	}
	after := sumRequests(servers)
	k := a.Config().K
	if stats.NodeReads != k {
		t.Errorf("NodeReads = %d, want %d", stats.NodeReads, k)
	}
	if batches := after.GetBatches - before.GetBatches; batches != uint64(k) {
		// Colocated placement: each touched node holds one row, so one
		// batch RPC per node = k RPCs carrying k shards total.
		t.Errorf("get-batch RPCs = %d, want %d (one per node)", batches, k)
	}
	if shards := after.GetBatchShards - before.GetBatchShards; shards != uint64(k) {
		t.Errorf("batched shards = %d, want %d", shards, k)
	}

	t.Run("whole prefix and compaction", remoteWalkOneRPCPerNode)
}

// remoteWalkOneRPCPerNode extends the wire-cost contract from one version to
// every multi-version read: the whole-prefix read of a 20-version (12,10)
// chain, and the materialise step of a compaction pass over it, each cost one
// get-batch RPC per node that holds a row they read - what a read of one
// version costs - not one round per stored delta, and no liveness ping at all:
// the commits that built the chain are what says the nodes are up.
func remoteWalkOneRPCPerNode(t *testing.T) {
	const n, k, blockSize, L = 12, 10, 16, 20
	backing := make([]store.Node, n)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	cluster, servers := remoteCluster(t, backing)
	a, err := core.New(core.Config{
		Name: "walk", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{5}, a.Capacity())
	versions := make([][]byte, L)
	for v := range versions {
		if v > 0 {
			object = editBlocks(object, blockSize, v%k, (v+3)%k) // gamma = 2
		}
		versions[v] = object
		mustCommit(t, a, object)
	}
	wantReads := k + (L-1)*4 // formula (4): k + sum of 2*gamma
	rpcs := func(what string, run func()) {
		t.Helper()
		before := sumRequests(servers)
		run()
		after := sumRequests(servers)
		if batches := after.GetBatches - before.GetBatches; batches != k {
			t.Errorf("%s issued %d get-batch RPCs, want %d (one per node read)", what, batches, k)
		}
		if shards := after.GetBatchShards - before.GetBatchShards; shards != uint64(wantReads) {
			t.Errorf("%s carried %d shards in its get batches, want %d (its node reads)", what, shards, wantReads)
		}
		if pings := after.Pings - before.Pings; pings != 0 {
			t.Errorf("%s issued %d pings, want 0 (every node was heard from)", what, pings)
		}
	}
	rpcs("RetrieveContext(20)", func() {
		got, stats := mustRetrieve(t, a, L)
		if !bytes.Equal(got, versions[L-1]) {
			t.Errorf("version %d content mismatch over TCP", L)
		}
		if stats.NodeReads != wantReads {
			t.Errorf("RetrieveContext(20) NodeReads = %d, want %d", stats.NodeReads, wantReads)
		}
	})
	rpcs("RetrieveAllContext(20)", func() {
		all, stats, err := a.RetrieveAllContext(t.Context(), L)
		if err != nil {
			t.Fatal(err)
		}
		for v := range all {
			if !bytes.Equal(all[v], versions[v]) {
				t.Errorf("prefix version %d content mismatch over TCP", v+1)
			}
		}
		if stats.NodeReads != wantReads {
			t.Errorf("RetrieveAllContext(20) NodeReads = %d, want %d", stats.NodeReads, wantReads)
		}
	})
	rpcs("CompactToContext(4)", func() {
		info, err := a.CompactToContext(t.Context(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Changed() || info.NodeReads != wantReads {
			t.Errorf("compaction = %+v, want a rewrite after %d node reads", info, wantReads)
		}
	})
	for v, want := range versions {
		if got, _ := mustRetrieve(t, a, v+1); !bytes.Equal(got, want) {
			t.Errorf("version %d content mismatch after compaction", v+1)
		}
	}
}

// TestRemoteLivenessRememberedFromTraffic follows one node of a (12,10) TCP
// cluster through dying and coming back, in pings and batches per read. A
// healthy read sends no ping. The read that meets the stopped server loses
// one batch to it, retried twice, and re-plans: right bytes, and the healthy
// read count, since only successful reads are charged and only the deficit is
// fetched again.
// Every later read pings that one node - and sends it nothing else - until
// the ping is answered, which re-admits it; the read after that pings nobody.
func TestRemoteLivenessRememberedFromTraffic(t *testing.T) {
	const n, k, blockSize, L, dead = 12, 10, 16, 6, 1
	backing := make([]store.Node, n)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	cluster, servers := remoteCluster(t, backing)
	a, err := core.New(core.Config{
		Name: "liveness", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{7}, a.Capacity())
	for v := 0; v < L; v++ {
		if v > 0 {
			object = editBlocks(object, blockSize, v%k, (v+3)%k) // gamma = 2
		}
		mustCommit(t, a, object)
	}
	wantReads := k + (L-1)*4 // formula (3), whichever rows serve it
	// read retrieves the tip and reports the pings and get-batches the
	// servers saw, and the failures the cluster charged the dead node.
	read := func(what string) (pings, batches, failures, probeFailures uint64) {
		t.Helper()
		before, health := sumRequests(servers), cluster.Health()[dead]
		got, stats := mustRetrieve(t, a, L)
		if !bytes.Equal(got, object) {
			t.Errorf("%s: content mismatch", what)
		}
		if stats.NodeReads != wantReads {
			t.Errorf("%s: NodeReads = %d, want %d", what, stats.NodeReads, wantReads)
		}
		after, healthAfter := sumRequests(servers), cluster.Health()[dead]
		return after.Pings - before.Pings, after.GetBatches - before.GetBatches,
			healthAfter.Failures - health.Failures, healthAfter.ProbeFailures - health.ProbeFailures
	}
	if pings, batches, failures, _ := read("healthy"); pings != 0 || batches != k || failures != 0 {
		t.Errorf("healthy read: %d pings, %d get-batches, %d failures; want 0, %d, 0", pings, batches, failures, k)
	}

	if err := servers[dead].Close(); err != nil {
		t.Fatal(err)
	}
	// The stopped server refuses at once, a fast failure: the cluster sends
	// the node its batch on each of its 3 attempts, each a failure charged to
	// the node besides its failed pings.
	if _, _, failures, probeFailures := read("discovering"); failures-probeFailures != 3 {
		t.Errorf("discovering read: the stopped node was charged %d batch failures, want 3", failures-probeFailures)
	}
	for i := 0; i < 2; i++ {
		// One failure and it is the ping's: no batch went to the dead node.
		if pings, batches, failures, probeFailures := read("degraded"); pings != 0 || batches != k || failures != 1 || probeFailures != 1 {
			t.Errorf("degraded read %d: %d pings and %d get-batches at live nodes, %d failures (%d of pings) at the dead one; want 0, %d, 1 (1)",
				i, pings, batches, failures, probeFailures, k)
		}
	}

	remote, err := cluster.Node(dead)
	if err != nil {
		t.Fatal(err)
	}
	restarted := transport.NewServer(backing[dead])
	if _, err := restarted.Listen(remote.(*transport.RemoteNode).Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	servers[dead] = restarted
	if pings, batches, failures, _ := read("re-admitting"); pings != 1 || batches != k || failures != 0 {
		t.Errorf("re-admitting read: %d pings, %d get-batches, %d failures; want 1, %d, 0", pings, batches, failures, k)
	}
	if got := restarted.RequestStats(); got.Pings != 1 || got.GetBatches != 1 {
		t.Errorf("restarted node served %d pings and %d get-batches, want 1 and 1 (re-admitted by the same read)", got.Pings, got.GetBatches)
	}
	if pings, batches, failures, _ := read("healthy again"); pings != 0 || batches != k || failures != 0 {
		t.Errorf("read after re-admission: %d pings, %d get-batches, %d failures; want 0, %d, 0", pings, batches, failures, k)
	}
}

// TestRemoteSlowNodeReadLast follows one node of a (12,10) TCP cluster that
// turns slow, in get-batches per read. The read that meets it pays its
// latency once, which marks it slow. Every later read plans its rows last and
// sends it nothing - at the healthy read count, and with no ping, since slow
// is not down - until the one-second re-sample interval has passed: then
// exactly one read sends it one get-batch, and the read after sends it
// nothing again.
func TestRemoteSlowNodeReadLast(t *testing.T) {
	const n, k, blockSize, L, slow = 12, 10, 16, 6, 0
	backing := make([]store.Node, n)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	chaos := faults.NewChaosNode(backing[slow], faults.Schedule{})
	backing[slow] = chaos
	cluster, servers := remoteCluster(t, backing)
	a, err := core.New(core.Config{
		Name: "slow", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{9}, a.Capacity())
	for v := 0; v < L; v++ {
		if v > 0 {
			object = editBlocks(object, blockSize, v%k, (v+3)%k) // gamma = 2
		}
		mustCommit(t, a, object)
	}
	wantReads := k + (L-1)*4 // formula (3), whichever rows serve it
	// read retrieves the tip and checks the pings and get-batches the
	// servers saw, and the get-batches the slow node's server saw.
	read := func(what string, wantSlowBatches uint64) {
		t.Helper()
		before, slowBefore := sumRequests(servers), servers[slow].RequestStats().GetBatches
		got, stats := mustRetrieve(t, a, L)
		if !bytes.Equal(got, object) {
			t.Errorf("%s: content mismatch", what)
		}
		if stats.NodeReads != wantReads {
			t.Errorf("%s: NodeReads = %d, want %d", what, stats.NodeReads, wantReads)
		}
		after, slowAfter := sumRequests(servers), servers[slow].RequestStats().GetBatches
		pings, batches, slowBatches := after.Pings-before.Pings, after.GetBatches-before.GetBatches, slowAfter-slowBefore
		if pings != 0 || batches != k || slowBatches != wantSlowBatches {
			t.Errorf("%s: %d pings, %d get-batches, %d of them at the slow node; want 0, %d, %d",
				what, pings, batches, slowBatches, k, wantSlowBatches)
		}
	}
	read("healthy", 1)
	chaos.SetSchedule(faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: 100 * time.Millisecond}},
	})
	read("meeting the slow node", 1)
	if h, _ := cluster.NodeHealth(slow); h.Latency < 50*time.Millisecond || h.Failures != 0 || !store.Slow(cluster.Health())[slow] {
		t.Errorf("slow node health = %+v, want a latency estimate marked slow and no failure", h)
	}
	read("read last", 0)
	read("still read last", 0)
	time.Sleep(time.Second) // the re-sample interval
	read("re-sampling", 1)
	read("read last again", 0)
}

// hangingNode is a MemNode that, once hung, parks every get batch, put batch
// and ping until released (or until its server cancels them): a node that
// accepts connections but does not answer.
type hangingNode struct {
	*store.MemNode
	hung    atomic.Bool
	release chan struct{}
}

func (n *hangingNode) park(ctx context.Context) {
	if n.hung.Load() {
		select {
		case <-n.release:
		case <-ctx.Done():
		}
	}
}

func (n *hangingNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	n.park(ctx)
	return n.MemNode.GetBatch(ctx, ids)
}

func (n *hangingNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	n.park(ctx)
	return n.MemNode.PutBatch(ctx, ids, data)
}

func (n *hangingNode) Available(ctx context.Context) bool {
	n.park(ctx)
	return n.MemNode.Available(ctx)
}

// TestRemoteSilentNodeAskedOncePerSecond follows one node of a (6,3) TCP
// cluster that turns silent: it accepts connections but answers no get batch
// and no ping. The read that meets it sends it one get batch, waits out one
// operation timeout, and pings nothing; every read after it in that second
// sends it nothing and waits for nothing; after a second exactly one read
// pings it, and once it answers again that ping re-admits it. Every read is
// the committed bytes.
func TestRemoteSilentNodeAskedOncePerSecond(t *testing.T) {
	const n, k, blockSize, L, silent = 6, 3, 16, 3, 0
	const opTimeout, pingTimeout = 500 * time.Millisecond, 200 * time.Millisecond
	backing := make([]store.Node, n)
	for i := range backing {
		backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	hanging := &hangingNode{MemNode: store.NewMemNode("hanging"), release: make(chan struct{})}
	backing[silent] = hanging
	cluster, servers := remoteCluster(t, backing, transport.WithTimeout(opTimeout), transport.WithPingTimeout(pingTimeout))
	a, err := core.New(core.Config{
		Name: "silent", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{5}, a.Capacity())
	for v := 0; v < L; v++ {
		if v > 0 {
			object = editBlocks(object, blockSize, v%k)
		}
		mustCommit(t, a, object)
	}
	// read retrieves the tip and checks its bytes, how long it took, and the
	// pings and get-batches the silent node's server saw.
	read := func(what string, within time.Duration, wantPings, wantBatches uint64) {
		t.Helper()
		before := servers[silent].RequestStats()
		start := time.Now()
		got, _ := mustRetrieve(t, a, L)
		elapsed := time.Since(start)
		after := servers[silent].RequestStats()
		if !bytes.Equal(got, object) {
			t.Errorf("%s: content mismatch", what)
		}
		if elapsed > within {
			t.Errorf("%s: took %v, want at most %v", what, elapsed, within)
		}
		if pings, batches := after.Pings-before.Pings, after.GetBatches-before.GetBatches; pings != wantPings || batches != wantBatches {
			t.Errorf("%s: the silent node saw %d pings and %d get-batches, want %d and %d", what, pings, batches, wantPings, wantBatches)
		}
	}
	const fast = 50 * time.Millisecond
	read("healthy", opTimeout, 0, 1)
	hanging.hung.Store(true)
	read("meeting the silent node", opTimeout*3/2, 0, 1)
	read("silent", fast, 0, 0)
	read("still silent", fast, 0, 0)
	time.Sleep(time.Second) // the re-ask interval
	read("re-ask", opTimeout, 1, 0)
	read("silent again", fast, 0, 0)
	hanging.hung.Store(false)
	close(hanging.release)
	time.Sleep(time.Second)
	read("re-admitting", opTimeout, 1, 1)
	read("heard again", opTimeout, 0, 1)
}

// TestRemoteHungNodeAskedOnceUnderRetries runs the cluster's retry rule on a
// (6,3) TCP cluster one node of which hangs: the read and the commit that
// meet it each send it one batch and return after one operation timeout. The failed batch - a get or a put - took as long
// as a slow node's, so the node is held silent and no further attempt
// re-issues its shards.
func TestRemoteHungNodeAskedOnceUnderRetries(t *testing.T) {
	const n, k, blockSize, L, hung = 6, 3, 16, 3, 0
	const opTimeout, pingTimeout = 500 * time.Millisecond, 200 * time.Millisecond
	// meet builds the archive of L versions over a healthy cluster, hangs
	// the node, runs op and checks how long it took and the batches the hung
	// node's server saw (get and put batches summed).
	meet := func(t *testing.T, op func(a *core.Archive, object []byte)) {
		backing := make([]store.Node, n)
		for i := range backing {
			backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
		}
		hanging := &hangingNode{MemNode: store.NewMemNode("hanging"), release: make(chan struct{})}
		t.Cleanup(func() { close(hanging.release) })
		backing[hung] = hanging
		cluster, servers := remoteCluster(t, backing, transport.WithTimeout(opTimeout), transport.WithPingTimeout(pingTimeout))
		a, err := core.New(core.Config{
			Name: "hung", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
		}, cluster)
		if err != nil {
			t.Fatal(err)
		}
		object := bytes.Repeat([]byte{3}, a.Capacity())
		for v := 0; v < L; v++ {
			if v > 0 {
				object = editBlocks(object, blockSize, v%k)
			}
			mustCommit(t, a, object)
		}
		hanging.hung.Store(true)
		before := servers[hung].RequestStats()
		start := time.Now()
		op(a, object)
		elapsed := time.Since(start)
		after := servers[hung].RequestStats()
		if elapsed > opTimeout*3/2 {
			t.Errorf("took %v, want at most %v", elapsed, opTimeout*3/2)
		}
		if batches := after.GetBatches + after.PutBatches - before.GetBatches - before.PutBatches; batches != 1 {
			t.Errorf("the hung node saw %d batches, want 1", batches)
		}
	}
	t.Run("read", func(t *testing.T) {
		meet(t, func(a *core.Archive, object []byte) {
			if got, _ := mustRetrieve(t, a, L); !bytes.Equal(got, object) {
				t.Error("content mismatch")
			}
		})
	})
	t.Run("commit", func(t *testing.T) {
		meet(t, func(a *core.Archive, object []byte) {
			if _, err := a.CommitContext(t.Context(), editBlocks(object, blockSize, 1)); !errors.Is(err, store.ErrNodeDown) {
				t.Errorf("commit with a row on the hung node: err = %v, want ErrNodeDown", err)
			}
		})
	})
}

// TestMixedClusterBatchedArchive runs a full commit/retrieve/damage/scrub
// cycle on a cluster mixing MemNodes, a DiskNode, and RemoteNodes behind
// real TCP servers.
func TestMixedClusterBatchedArchive(t *testing.T) {
	disk0, err := store.NewDiskNode("disk-0", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remoteMem := store.NewMemNode("remote-mem")
	remoteDisk, err := store.NewDiskNode("remote-disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remotes, servers := remoteCluster(t, []store.Node{remoteMem, remoteDisk})
	r0, _ := remotes.Node(0)
	r1, _ := remotes.Node(1)
	nodes := []store.Node{
		store.NewMemNode("mem-0"),
		disk0,
		store.NewMemNode("mem-2"),
		store.NewMemNode("mem-1"),
		r0,
		r1,
	}
	cluster := store.NewCluster(nodes)
	a, err := core.New(testConfig(core.BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{9}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 1)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	got, stats := mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("mixed-cluster retrieval mismatch")
	}
	if stats.NodeReads != 5 { // k + 2*gamma
		t.Errorf("NodeReads = %d, want 5", stats.NodeReads)
	}
	// Damage a local shard and one remote-backed shard; scrub must heal both
	// through their respective paths.
	if err := nodes[2].Delete(t.Context(), store.ShardID{Object: fullID(a.Config().Name, 1), Row: 2}); err != nil {
		t.Fatal(err)
	}
	if err := remoteMem.Delete(t.Context(), store.ShardID{Object: deltaID(a.Config().Name, 2), Row: 4}); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 2 || report.Repaired != 2 {
		t.Errorf("scrub report = %+v, want 2 missing and 2 repaired", report)
	}
	got, _ = mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("post-scrub retrieval mismatch")
	}
	_ = servers
}

// TestRemoteReadsOverPooledFrames reads chains of 96 KiB blocks over TCP
// nodes, so every get-batch response lands in the transport's frame pool and
// is overwritten the moment the walk that read it releases its shards
// (TestMain). Every version - read cold, through a fresh Open of the
// writer's manifest, again from that archive's decoded-version cache, and in
// one RetrieveAll through another fresh Open - must be its committed bytes:
// nothing decoded may alias a frame it was decoded from, and no shard may be
// read after its release.
// The chain has a full codeword, a gamma = 1 delta (sparse, or CDEC), a
// delta that changed nothing and a dense delta, over a systematic code
// whose identity rows decode by copy.
func TestRemoteReadsOverPooledFrames(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			const n, k, blockSize = 6, 3, 96 << 10
			backing := make([]store.Node, n)
			for i := range backing {
				backing[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
			}
			cluster, _ := remoteCluster(t, backing)
			a, err := core.New(core.Config{
				Name: "pooled", Scheme: core.BasicSEC, Code: erasure.SystematicCauchy, N: n, K: k, BlockSize: blockSize,
				CompressDeltas: compress, ReadCacheBytes: 16 << 20,
			}, cluster)
			if err != nil {
				t.Fatal(err)
			}
			v1 := make([]byte, a.Capacity())
			rand.New(rand.NewSource(34)).Read(v1)
			v2 := editBlocks(v1, blockSize, 1)
			versions := [][]byte{v1, v2, v2, editBlocks(v2, blockSize, 0, 1, 2)}
			for _, v := range versions {
				mustCommit(t, a, v)
			}
			// The writer cached every version it committed: read through
			// archives opened cold from its manifest instead.
			cold := func() *core.Archive {
				r, err := core.Open(a.Manifest(), cluster)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := cold()
			for l, want := range versions {
				got, stats := mustRetrieve(t, r, l+1)
				if !bytes.Equal(got, want) || stats.CacheHits != 0 {
					t.Errorf("version %d read over pooled frames: %+v, bytes equal %v", l+1, stats, bytes.Equal(got, want))
				}
				if got, stats = mustRetrieve(t, r, l+1); stats.CacheHits != 1 || !bytes.Equal(got, want) {
					t.Errorf("version %d from the cache: %+v, bytes equal %v; its blocks alias a released frame", l+1, stats, bytes.Equal(got, want))
				}
			}
			all, stats, err := cold().RetrieveAllContext(t.Context(), len(versions))
			if err != nil {
				t.Fatal(err)
			}
			if stats.CacheHits != 0 || stats.NodeReads == 0 {
				t.Errorf("RetrieveAll through a cold archive: %+v, want a walk", stats)
			}
			for v, want := range versions {
				if !bytes.Equal(all[v], want) {
					t.Errorf("RetrieveAll version %d read over pooled frames differs", v+1)
				}
			}
		})
	}
}
