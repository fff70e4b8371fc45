// These tests drive archives over real transport servers, so they live in
// an external test package: transport imports core for the gateway
// protocol, and an internal test package may not close that import cycle.
package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
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
// cluster of RemoteNode clients plus the servers for RPC accounting.
func remoteCluster(t *testing.T, backing []store.Node) (*store.Cluster, []*transport.Server) {
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
			transport.WithTimeout(5*time.Second))
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
// one batch to it and re-plans: right bytes, and the healthy read count, since
// only successful reads are charged and only the deficit is fetched again.
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
	if _, _, failures, _ := read("discovering"); failures == 0 {
		t.Error("discovering read: the stopped node was charged no failure")
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
// (TestMain). Every version - read cold while node 0 straggles behind the
// hedge delay, again from the decoded-version cache, and in one
// RetrieveAll - must be its committed bytes: nothing decoded may alias a
// frame it was decoded from, and no shard may be read after its release.
// The chain has a full codeword, a gamma = 1 delta (sparse, or CDEC), a
// delta that changed nothing and a dense delta, over a systematic code
// whose identity rows decode by copy.
func TestRemoteReadsOverPooledFrames(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			const n, k, blockSize = 6, 3, 96 << 10
			chaos := faults.NewChaosNode(store.NewMemNode("mem-0"), faults.Schedule{})
			backing := []store.Node{chaos}
			for i := 1; i < n; i++ {
				backing = append(backing, store.NewMemNode(fmt.Sprintf("mem-%d", i)))
			}
			cluster, _ := remoteCluster(t, backing)
			a, err := core.New(core.Config{
				Name: "pooled", Scheme: core.BasicSEC, Code: erasure.SystematicCauchy, N: n, K: k, BlockSize: blockSize,
				CompressDeltas: compress, ReadCacheBytes: 16 << 20, HedgeDelay: 10 * time.Millisecond,
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
			chaos.SetSchedule(faults.Schedule{
				Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: 200 * time.Millisecond}},
			})
			hedges := 0
			for l, want := range versions {
				got, stats := mustRetrieve(t, a, l+1)
				hedges += stats.Hedges
				if !bytes.Equal(got, want) {
					t.Errorf("version %d read over pooled frames differs", l+1)
				}
				if got, stats = mustRetrieve(t, a, l+1); stats.CacheHits != 1 || !bytes.Equal(got, want) {
					t.Errorf("version %d from the cache: %+v, bytes equal %v; its blocks alias a released frame", l+1, stats, bytes.Equal(got, want))
				}
			}
			all, _, err := a.RetrieveAllContext(t.Context(), len(versions))
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range versions {
				if !bytes.Equal(all[v], want) {
					t.Errorf("RetrieveAll version %d read over pooled frames differs", v+1)
				}
			}
			if hedges == 0 {
				t.Error("the straggling node was never hedged around")
			}
		})
	}
}
