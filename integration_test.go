package sec_test

// End-to-end integration: a full operational story over real TCP storage
// nodes - commits from a realistic edit workload, degraded reads under
// failures, device replacement with repair, silent-corruption scrubbing,
// and metadata recovery from the cluster itself.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// tcpCluster starts n node servers and returns the cluster plus backing
// stores for fault/corruption injection.
func tcpCluster(t *testing.T, n int) (*sec.Cluster, []*sec.MemNode) {
	t.Helper()
	nodes := make([]sec.StorageNode, n)
	backings := make([]*sec.MemNode, n)
	for i := 0; i < n; i++ {
		backings[i] = sec.NewMemNode("backing")
		srv := sec.NewNodeServer(backings[i])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := sec.DialNode("remote", addr.String(), sec.WithNodeTimeout(2*time.Second))
		t.Cleanup(func() { _ = client.Close() })
		nodes[i] = client
	}
	return sec.NewCluster(nodes), backings
}

func TestIntegrationFullLifecycleOverTCP(t *testing.T) {
	const (
		n, k      = 8, 4
		blockSize = 256
	)
	cluster, backings := tcpCluster(t, n)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "lifecycle",
		Scheme:    sec.BasicSEC,
		Code:      sec.SystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a document under localized revision, committed over TCP.
	rng := rand.New(rand.NewSource(2026))
	doc, err := sec.NewTextDocument(rng, k*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	var versions [][]byte
	commit := func() {
		t.Helper()
		if _, err := archive.CommitContext(t.Context(), doc.Bytes()); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, doc.Bytes())
	}
	commit()
	for rev := 0; rev < 5; rev++ {
		if _, _, err := doc.Revise(rng, 100); err != nil {
			t.Fatal(err)
		}
		commit()
	}
	if err := archive.SaveToClusterContext(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Phase 2: degraded reads with n-k nodes down.
	for _, i := range []int{1, 3, 5, 7} {
		backings[i].SetFailed(true)
	}
	for l, want := range versions {
		got, _, err := archive.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("degraded version %d: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded version %d mismatch", l+1)
		}
	}
	// One more failure is fatal...
	backings[0].SetFailed(true)
	if _, _, err := archive.RetrieveContext(t.Context(), 1); !errors.Is(err, sec.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// ...until the cluster heals.
	for _, b := range backings {
		b.SetFailed(false)
	}

	// Phase 3: device replacement. Node 2's disk dies; a fresh device
	// takes its place and repair rebuilds its shards over the network.
	backings[2].Wipe()
	report, err := archive.RepairNodeContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != len(versions) {
		t.Fatalf("repaired %d shards, want one per stored object (%d)", report.ShardsRepaired, len(versions))
	}

	// Phase 4: silent corruption on another node, caught by scrubbing.
	id := store.ShardID{Object: "lifecycle/v3-delta", Row: 6}
	data, err := backings[6].Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[len(data)/2] ^= 0x42
	if err := backings[6].Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	scrub, err := archive.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.ShardsCorrupt != 1 || scrub.Repaired != 1 {
		t.Fatalf("scrub report = %+v", scrub)
	}

	// Phase 5: the client machine is lost; recover metadata from the
	// cluster and read everything back through a fresh archive handle.
	recovered, err := core.LoadFromClusterContext(t.Context(), "lifecycle", cluster)
	if err != nil {
		t.Fatal(err)
	}
	all, stats, err := recovered.RetrieveAllContext(t.Context(), len(versions))
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range versions {
		if !bytes.Equal(all[l], want) {
			t.Fatalf("recovered version %d mismatch", l+1)
		}
	}
	// Localized edits keep deltas sparse: the whole history must cost
	// well below the non-differential L*k baseline.
	if baseline := len(versions) * k; stats.NodeReads >= baseline {
		t.Errorf("history read cost %d, baseline %d: no sparsity exploited", stats.NodeReads, baseline)
	}

	// Phase 6: continue the chain on the recovered handle (the cache is
	// restored from storage transparently).
	if _, _, err := doc.Revise(rng, 80); err != nil {
		t.Fatal(err)
	}
	info, err := recovered.CommitContext(t.Context(), doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != len(versions)+1 {
		t.Fatalf("continued commit got version %d", info.Version)
	}
	got, _, err := recovered.RetrieveContext(t.Context(), recovered.Versions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc.Bytes()) {
		t.Fatal("latest version mismatch after recovery")
	}
}

// diskServer is one networked, disk-backed storage node: what a secnode
// process with -data provides, run in-process so tests can kill and
// restart it.
type diskServer struct {
	t    *testing.T
	id   string
	dir  string
	addr string
	node *sec.DiskNode
	srv  *sec.NodeServer
}

// startDiskServer opens (or creates) the node directory and serves it on
// addr ("127.0.0.1:0" to pick a port).
func startDiskServer(t *testing.T, id, dir, addr string) *diskServer {
	t.Helper()
	node, err := sec.NewDiskNode(id, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := sec.NewNodeServer(node)
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &diskServer{t: t, id: id, dir: dir, addr: bound.String(), node: node, srv: srv}
	t.Cleanup(func() { _ = s.srv.Close() })
	return s
}

// kill terminates the server process-style: connections drop, nothing is
// flushed beyond what Put already made durable.
func (s *diskServer) kill() {
	s.t.Helper()
	if err := s.srv.Close(); err != nil {
		s.t.Fatal(err)
	}
}

// restart brings the node back on the same address over the same
// directory, as a restarted secnode would.
func (s *diskServer) restart() {
	s.t.Helper()
	node, err := sec.OpenDiskNode(s.id, s.dir)
	if err != nil {
		s.t.Fatal(err)
	}
	s.node = node
	s.srv = sec.NewNodeServer(node)
	if _, err := s.srv.Listen(s.addr); err != nil {
		s.t.Fatal(err)
	}
	srv := s.srv
	s.t.Cleanup(func() { _ = srv.Close() })
}

// shardFilesOf lists up to limit shard files of a disk node for direct
// damage injection.
func shardFilesOf(t *testing.T, node *sec.DiskNode, limit int) []string {
	t.Helper()
	files, err := node.ShardFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files[:min(limit, len(files))]
}

// corruptShardFiles flips a bit in up to limit shard files of a disk node,
// returning the number damaged.
func corruptShardFiles(t *testing.T, node *sec.DiskNode, limit int) int {
	t.Helper()
	files := shardFilesOf(t, node, limit)
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// deleteShardFiles removes up to limit shard files of a disk node,
// returning the number deleted.
func deleteShardFiles(t *testing.T, node *sec.DiskNode, limit int) int {
	t.Helper()
	files := shardFilesOf(t, node, limit)
	for _, path := range files {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

func TestIntegrationDurableNodesSurviveRestartAndDamage(t *testing.T) {
	const (
		n, k      = 6, 3
		blockSize = 256
	)
	base := t.TempDir()
	servers := make([]*diskServer, n)
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		servers[i] = startDiskServer(t, "node", filepath.Join(base, "node", string(rune('a'+i))), "127.0.0.1:0")
		client := sec.DialNode("remote", servers[i].addr, sec.WithNodeTimeout(2*time.Second))
		t.Cleanup(func() { _ = client.Close() })
		nodes[i] = client
	}
	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "durable",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var versions [][]byte
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	for i := 0; i < 4; i++ {
		if i > 0 {
			v, err = sec.SparseEdit(rng, v, blockSize, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := archive.CommitContext(t.Context(), v); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}

	// (a) Kill every node process and restart it over the same directory:
	// all shards must survive and serve the whole history.
	for _, s := range servers {
		s.kill()
	}
	if _, _, err := archive.RetrieveContext(t.Context(), 1); !errors.Is(err, sec.ErrUnavailable) {
		t.Fatalf("retrieve with all nodes killed = %v, want ErrUnavailable", err)
	}
	for _, s := range servers {
		s.restart()
	}
	shardsOnDisk := 0
	for _, s := range servers {
		shardsOnDisk += s.node.Len()
	}
	if want := len(versions) * n; shardsOnDisk != want {
		t.Fatalf("%d shards on disk after restart, want %d", shardsOnDisk, want)
	}
	for l, want := range versions {
		got, _, err := archive.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("version %d after restart: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d mismatch after restart", l+1)
		}
	}
	if report, err := archive.ScrubContext(t.Context(), false); err != nil || report.ShardsMissing != 0 || report.ShardsCorrupt != 0 {
		t.Fatalf("post-restart scrub = %+v, %v", report, err)
	}

	// (b) Flip a bit on node 2's disk: the node itself must detect it at
	// read time as ErrShardCorrupt, and Scrub(repair=true) must heal it.
	servers[2].kill()
	if n := corruptShardFiles(t, servers[2].node, 1); n != 1 {
		t.Fatalf("damaged %d files, want 1", n)
	}
	servers[2].restart()
	sawCorrupt := false
	for _, obj := range []string{"durable/v1-full", "durable/v2-delta", "durable/v3-delta", "durable/v4-delta"} {
		if _, err := cluster.Get(t.Context(), 2, sec.ShardID{Object: obj, Row: 2}); errors.Is(err, sec.ErrShardCorrupt) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no direct Get surfaced ErrShardCorrupt after bit flip")
	}
	report, err := archive.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("healing scrub = %+v", report)
	}
	if report, err = archive.ScrubContext(t.Context(), false); err != nil || report.ShardsCorrupt != 0 {
		t.Fatalf("post-heal scrub = %+v, %v", report, err)
	}

	// (c) Node 4's disk dies entirely while node 0 is simultaneously
	// missing SOME (not all) shards: repair of node 4 must draw on the
	// remaining intact rows per object instead of failing.
	servers[4].kill()
	if err := os.RemoveAll(servers[4].dir); err != nil {
		t.Fatal(err)
	}
	servers[4].node, err = sec.NewDiskNode("node", servers[4].dir)
	if err != nil {
		t.Fatal(err)
	}
	servers[4].srv = sec.NewNodeServer(servers[4].node)
	if _, err := servers[4].srv.Listen(servers[4].addr); err != nil {
		t.Fatal(err)
	}
	replacement := servers[4].srv
	t.Cleanup(func() { _ = replacement.Close() })
	servers[0].kill()
	if n := deleteShardFiles(t, servers[0].node, 2); n != 2 {
		t.Fatalf("deleted %d files, want 2", n)
	}
	servers[0].restart()

	repair, err := archive.RepairNodeContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if repair.ShardsRepaired != len(versions) {
		t.Fatalf("repair = %+v, want %d shards rebuilt", repair, len(versions))
	}
	// Heal node 0's holes too, then the archive is fully redundant again.
	if _, err := archive.RepairNodeContext(t.Context(), 0); err != nil {
		t.Fatal(err)
	}
	if report, err := archive.ScrubContext(t.Context(), false); err != nil ||
		report.ShardsMissing != 0 || report.ShardsCorrupt != 0 || report.ObjectsUndecodable != 0 {
		t.Fatalf("final scrub = %+v, %v", report, err)
	}
	for l, want := range versions {
		got, _, err := archive.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("final version %d: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final version %d mismatch", l+1)
		}
	}
}

// TestIntegrationCompressedChainAcrossClusterKinds commits a chain that
// mixes compressed (gamma-sparse) and plain (dense) deltas on in-memory,
// disk-backed, and TCP clusters, and verifies that every substrate
// round-trips the mixed chain byte-identically, that metadata recovered
// from the cluster itself preserves the compression markers, and that a
// warm decoded-version cache serves hot re-reads without touching nodes.
func TestIntegrationCompressedChainAcrossClusterKinds(t *testing.T) {
	const (
		n, k      = 6, 3
		blockSize = 128
	)
	clusters := map[string]func(t *testing.T) *sec.Cluster{
		"mem": func(t *testing.T) *sec.Cluster {
			nodes := make([]sec.StorageNode, n)
			for i := range nodes {
				nodes[i] = sec.NewMemNode("mem")
			}
			return sec.NewCluster(nodes)
		},
		"disk": func(t *testing.T) *sec.Cluster {
			base := t.TempDir()
			nodes := make([]sec.StorageNode, n)
			for i := range nodes {
				node, err := sec.NewDiskNode("disk", filepath.Join(base, string(rune('a'+i))))
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = node
			}
			return sec.NewCluster(nodes)
		},
		"tcp": func(t *testing.T) *sec.Cluster {
			cluster, _ := tcpCluster(t, n)
			return cluster
		},
	}
	for kind, mk := range clusters {
		t.Run(kind, func(t *testing.T) {
			cluster := mk(t)
			archive, err := sec.NewArchive(sec.ArchiveConfig{
				Name:           "mixed",
				Scheme:         sec.BasicSEC,
				Code:           sec.NonSystematicCauchy,
				N:              n,
				K:              k,
				BlockSize:      blockSize,
				CompressDeltas: true,
				ReadCacheBytes: 1 << 20,
			}, cluster)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			v := make([]byte, archive.Capacity())
			rng.Read(v)
			// gammas[j] is the sparsity of the delta producing version j+2;
			// gamma=k is a dense rewrite that must take the plain path.
			gammas := []int{1, k, 2, 1}
			versions := [][]byte{append([]byte(nil), v...)}
			compressed := []bool{false}
			if _, err := archive.CommitContext(t.Context(), v); err != nil {
				t.Fatal(err)
			}
			for _, gamma := range gammas {
				v, err = sec.SparseEdit(rng, v, blockSize, gamma)
				if err != nil {
					t.Fatal(err)
				}
				info, err := archive.CommitContext(t.Context(), v)
				if err != nil {
					t.Fatal(err)
				}
				if want := gamma < k; info.Compressed != want {
					t.Fatalf("v%d (gamma=%d): Compressed = %v, want %v", info.Version, gamma, info.Compressed, want)
				}
				versions = append(versions, append([]byte(nil), v...))
				compressed = append(compressed, info.Compressed)
			}
			if err := archive.SaveToClusterContext(t.Context()); err != nil {
				t.Fatal(err)
			}

			// The recovered handle must see the same mixed chain: the
			// compression markers live in the manifest, not the client.
			recovered, err := core.LoadFromClusterContext(t.Context(), "mixed", cluster)
			if err != nil {
				t.Fatal(err)
			}
			for l, want := range versions {
				got, stats, err := recovered.RetrieveContext(t.Context(), l+1)
				if err != nil {
					t.Fatalf("recovered version %d: %v", l+1, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("recovered version %d mismatch", l+1)
				}
				if l > 0 && compressed[l] && stats.CompressedReads == 0 {
					t.Errorf("version %d read no compressed codewords, want at least one", l+1)
				}
			}

			// Hot re-read of the tip: the chain walk above filled the
			// decoded-version cache, so this must cost zero node reads.
			tip := len(versions)
			got, stats, err := recovered.RetrieveContext(t.Context(), tip)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, versions[tip-1]) {
				t.Fatalf("cached tip mismatch")
			}
			if stats.NodeReads != 0 || stats.CacheHits != 1 {
				t.Errorf("hot tip read stats = %+v, want a pure cache hit", stats)
			}
		})
	}
}

func TestIntegrationRepositoryOverTCP(t *testing.T) {
	cluster, _ := tcpCluster(t, 6)
	repo, err := sec.NewRepository(sec.RepositoryConfig{
		Scheme:    sec.OptimizedSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 128,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"src/main.go": bytes.Repeat([]byte{'m'}, 300),
		"docs/spec":   bytes.Repeat([]byte{'d'}, 200),
	}
	if _, err := repo.CommitContext(t.Context(), "import", files); err != nil {
		t.Fatal(err)
	}
	edited := append([]byte(nil), files["src/main.go"]...)
	edited[5] = 'X'
	if _, err := repo.CommitContext(t.Context(), "fix", map[string][]byte{"src/main.go": edited}); err != nil {
		t.Fatal(err)
	}
	state, stats, err := repo.CheckoutContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state["src/main.go"], edited) || !bytes.Equal(state["docs/spec"], files["docs/spec"]) {
		t.Error("checkout state mismatch over TCP")
	}
	if stats.SparseReads == 0 {
		t.Error("expected a sparse delta read over TCP")
	}
}
