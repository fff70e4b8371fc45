package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// chain20x10 builds the acceptance scenario: a (20,10) Reversed SEC
// archive whose chain is 1 full codeword (the tip) plus 8 deltas, so the
// oldest version sits 8 delta applications from the anchor. The fulls the
// commits superseded are reclaimed, as an owner that persists would.
func chain20x10(t *testing.T, cluster *store.Cluster) (*Archive, [][]byte) {
	t.Helper()
	cfg := Config{
		Name:      "t",
		Scheme:    ReversedSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         20,
		K:         10,
		BlockSize: 8,
	}
	a, versions := buildChain(t, cluster, cfg, 42, 9, func(j int) []int { return []int{j % 3} })
	if _, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || orphans != 0 {
		t.Fatalf("reclaim: %d orphans, %v", orphans, err)
	}
	return a, versions
}

// buildChain commits a random first version and then versions 2..L, version
// j editing the blocks edit(j) of its predecessor.
func buildChain(t *testing.T, cluster *store.Cluster, cfg Config, seed int64, L int, edit func(j int) []int) (*Archive, [][]byte) {
	t.Helper()
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	rand.New(rand.NewSource(seed)).Read(object)
	versions := [][]byte{object}
	mustCommit(t, a, object)
	for j := 2; j <= L; j++ {
		object = editBlocks(object, cfg.BlockSize, edit(j-1)...)
		versions = append(versions, object)
		mustCommit(t, a, object)
	}
	return a, versions
}

// shardCount sums the shards held across a cluster's nodes.
func shardCount(t *testing.T, cluster *store.Cluster) int {
	t.Helper()
	total := 0
	for i := 0; i < cluster.Size(); i++ {
		n, err := cluster.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		switch node := n.(type) {
		case *store.MemNode:
			total += node.Len()
		case *store.DiskNode:
			total += node.Len()
		default:
			t.Fatalf("unexpected node type %T", n)
		}
	}
	return total
}

// objectGone asserts no node holds any row of the object.
func objectGone(t *testing.T, cluster *store.Cluster, a *Archive, id string, version int) {
	t.Helper()
	for row := 0; row < a.cfg.N; row++ {
		node := a.cfg.Placement.NodeFor(version-1, row)
		if _, err := cluster.Get(t.Context(), node, store.ShardID{Object: id, Row: row}); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("superseded shard %s#%d still on node %d (err=%v)", id, row, node, err)
		}
	}
}

// TestCompactAcceptance is the PR's acceptance scenario over both local
// node kinds: a (20,10) chain of 1 full + 8 deltas compacted with
// MaxChainLength=4 retrieves every historical version byte-identically,
// the oldest version costs strictly fewer node reads afterwards (asserted
// via NodeStats), and the superseded shards are physically deleted.
func TestCompactAcceptance(t *testing.T) {
	clusters := map[string]func(t *testing.T) *store.Cluster{
		"mem": func(t *testing.T) *store.Cluster { return store.NewMemCluster(20) },
		"disk": func(t *testing.T) *store.Cluster {
			c, err := store.NewDiskCluster(t.TempDir(), 20)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, mk := range clusters {
		t.Run(name, func(t *testing.T) {
			cluster := mk(t)
			a, versions := chain20x10(t, cluster)

			cluster.ResetStats()
			_, preStats, err := a.RetrieveContext(t.Context(), 1)
			if err != nil {
				t.Fatal(err)
			}
			preReads := int(cluster.TotalStats().Reads)
			if preReads != preStats.NodeReads {
				t.Fatalf("pre-compaction accounting: NodeStats %d != RetrievalStats %d", preReads, preStats.NodeReads)
			}
			if want := 10 + 8*2; preReads != want {
				t.Fatalf("pre-compaction oldest-version reads = %d, want %d", preReads, want)
			}
			supersededIDs := []string{deltaID("t", 2), deltaID("t", 3), deltaID("t", 4)}
			before := shardCount(t, cluster)

			info, err := a.CompactToContext(t.Context(), 4)
			if err != nil {
				t.Fatal(err)
			}
			// Versions 1..4 sat 8..5 deltas from the tip anchor x9; all were
			// rebased (the merged deltas stay sparse: the edits overlap).
			if want := []int{1, 2, 3, 4}; len(info.Rebased) != 4 || len(info.Promoted) != 0 {
				t.Fatalf("rebased %v promoted %v, want rebased %v", info.Rebased, info.Promoted, want)
			}
			// v2..v4 had chain deltas to supersede; v1 had no object at all.
			deleted, orphans, err := a.ReclaimSupersededContext(t.Context())
			if want := 3 * 20; err != nil || deleted != want || orphans != 0 {
				t.Fatalf("reclaim deleted %d orphaned %d shards (%v), want %d/0", deleted, orphans, err, want)
			}
			if info.PlannedReadGain <= 0 {
				t.Errorf("planned read gain = %d, want positive (deep walks replaced by single merges)", info.PlannedReadGain)
			}
			for i, id := range supersededIDs {
				objectGone(t, cluster, a, id, i+2)
			}
			if got, want := shardCount(t, cluster), before+4*20-3*20; got != want {
				t.Fatalf("cluster holds %d shards post-compaction, want %d", got, want)
			}

			// Every historical version is byte-identical.
			for v, want := range versions {
				got, _, err := a.RetrieveContext(t.Context(), v+1)
				if err != nil {
					t.Fatalf("retrieve v%d: %v", v+1, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("v%d differs after compaction", v+1)
				}
			}
			// The oldest version now reads strictly fewer shards.
			cluster.ResetStats()
			_, postStats, err := a.RetrieveContext(t.Context(), 1)
			if err != nil {
				t.Fatal(err)
			}
			postReads := int(cluster.TotalStats().Reads)
			if postReads != postStats.NodeReads {
				t.Fatalf("post-compaction accounting: NodeStats %d != RetrievalStats %d", postReads, postStats.NodeReads)
			}
			if postReads >= preReads {
				t.Fatalf("oldest-version reads = %d post-compaction, want < %d", postReads, preReads)
			}
			// And no chain is deeper than the bound.
			for v := 1; v <= a.Versions(); v++ {
				depth, err := a.ChainDepth(v)
				if err != nil {
					t.Fatal(err)
				}
				if depth > 4 {
					t.Errorf("v%d chain depth %d exceeds bound 4", v, depth)
				}
			}
		})
	}
}

// TestChainStatsMatchesPerVersionCalls pins the batched summary to the
// per-version planner and to the manifest across a compacted (non-trivial)
// graph.
func TestChainStatsMatchesPerVersionCalls(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, _ := chain20x10(t, cluster)
	if _, err := a.CompactToContext(t.Context(), 4); err != nil {
		t.Fatal(err)
	}
	entries, depths, planned, err := a.ChainStats()
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Manifest().Entries; !reflect.DeepEqual(entries, want) {
		t.Errorf("ChainStats renders %+v, the manifest holds %+v", entries, want)
	}
	for v := 1; v <= a.Versions(); v++ {
		d, err := a.ChainDepth(v)
		if err != nil {
			t.Fatal(err)
		}
		p, err := a.PlannedReads(v)
		if err != nil {
			t.Fatal(err)
		}
		if depths[v-1] != d || planned[v-1] != p {
			t.Errorf("v%d: ChainStats = (%d,%d), per-version = (%d,%d)", v, depths[v-1], planned[v-1], d, p)
		}
	}
}

// TestCompactGammaRecomputed checks the merged deltas' manifest gammas
// against a brute-force block diff of the materialized versions.
func TestCompactGammaRecomputed(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if _, err := a.CompactToContext(t.Context(), 4); err != nil {
		t.Fatal(err)
	}
	m := a.Manifest()
	for _, e := range m.Entries {
		if !e.Delta || e.Base == 0 {
			continue
		}
		baseBlocks, err := a.blocking.Split(versions[e.Base-1])
		if err != nil {
			t.Fatal(err)
		}
		verBlocks, err := a.blocking.Split(versions[e.Version-1])
		if err != nil {
			t.Fatal(err)
		}
		d, err := delta.Compute(baseBlocks, verBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if want := delta.Sparsity(d); e.Gamma != want {
			t.Errorf("v%d merged gamma = %d, brute force = %d", e.Version, e.Gamma, want)
		}
	}
}

// TestCompactPromotesDenseMergedDelta drives merged sparsity over the
// promotion limit: the version is stored as a full checkpoint instead.
func TestCompactPromotesDenseMergedDelta(t *testing.T) {
	cluster := store.NewMemCluster(6)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy) // (6,3): MaxSparseGamma = 1
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{1}, 12)
	mustCommit(t, a, object)
	var versions [][]byte
	versions = append(versions, append([]byte(nil), object...))
	// Each commit edits a distinct block, so merged deltas go dense fast.
	for j := 1; j <= 5; j++ {
		object = editBlocks(object, 4, j%3)
		versions = append(versions, append([]byte(nil), object...))
		mustCommit(t, a, object)
	}
	info, err := a.CompactToContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Promoted) == 0 {
		t.Fatalf("no promotion despite dense merged deltas: %+v", info)
	}
	m := a.Manifest()
	for _, v := range info.Promoted {
		e := m.Entries[v-1]
		if !e.Full || !e.Checkpoint || e.Delta {
			t.Errorf("promoted v%d entry = %+v, want a checkpointed full without delta", v, e)
		}
	}
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs after promotion", v+1)
		}
		depth, err := a.ChainDepth(v + 1)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 2 {
			t.Errorf("v%d depth %d exceeds bound 2", v+1, depth)
		}
	}
}

func TestCompactNoOpWithinBound(t *testing.T) {
	cluster := store.NewMemCluster(6)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{2}, 12)
	mustCommit(t, a, object)
	mustCommit(t, a, editBlocks(object, 4, 0))
	before := shardCount(t, cluster)
	info, err := a.CompactToContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Changed() || info.ShardWrites != 0 || info.SupersededShards != 0 {
		t.Errorf("no-op compaction changed state: %+v", info)
	}
	if got := shardCount(t, cluster); got != before {
		t.Errorf("shard count moved %d -> %d on a no-op", before, got)
	}
	if _, err := a.CompactToContext(t.Context(), 0); err == nil {
		t.Error("CompactToContext(0): want error")
	}
}

// TestAutoCompactionOnCommit checks that MaxChainLength keeps chains
// bounded commit after commit without explicit maintenance calls, and that
// the reclaim after each commit frees exactly what the commit queued: the
// old tip's full and what its compaction superseded.
func TestAutoCompactionOnCommit(t *testing.T) {
	cluster := store.NewMemCluster(6)
	cfg := testConfig(ReversedSEC, erasure.NonSystematicCauchy)
	cfg.MaxChainLength = 2
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{3}, 12)
	var versions [][]byte
	compactions := 0
	for j := 0; j < 8; j++ {
		if j > 0 {
			object = editBlocks(object, 4, j%3)
		}
		versions = append(versions, append([]byte(nil), object...))
		info := mustCommit(t, a, object)
		queued := 0
		if j > 0 {
			queued = cfg.N // the old tip's full
		}
		if info.Compaction != nil && info.Compaction.Changed() {
			compactions++
			queued += info.Compaction.SupersededShards
		}
		if deleted, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || deleted != queued || orphans != 0 {
			t.Fatalf("commit %d: reclaim deleted %d orphaned %d shards (%v), want %d/0", j+1, deleted, orphans, err, queued)
		}
		for v := 1; v <= a.Versions(); v++ {
			depth, err := a.ChainDepth(v)
			if err != nil {
				t.Fatal(err)
			}
			if depth > 2 {
				t.Fatalf("after commit %d: v%d depth %d exceeds bound 2", j+1, v, depth)
			}
		}
	}
	if compactions == 0 {
		t.Error("8 commits with MaxChainLength=2 never auto-compacted")
	}
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs under auto-compaction", v+1)
		}
	}
}

// TestAutoCompactionBoundsThePlannedWalk holds MaxChainLength to what a read
// does: after every commit, the planned walk of every version applies at most
// the bound's number of deltas, and ChainDepth reports that number. The chains
// are (12,10) archives of 64-byte blocks, 40 commits of 1-3 random edited
// blocks with every sixth commit dense, under every differential scheme, with
// and without CDEC. On Reversed SEC the cheapest walk can run through more
// sparse deltas than the shallowest one, so a bound on the shallowest walk
// would let reads past it. Some of these compactions take a second round of
// rewrites; after each commit's reclaim the nodes hold exactly the codewords
// the manifest names, and every version still reads back.
func TestAutoCompactionBoundsThePlannedWalk(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, scheme := range []Scheme{BasicSEC, OptimizedSEC, ReversedSEC} {
			for _, cdec := range []bool{false, true} {
				bound := 2 + int(seed%4)
				cfg := Config{
					Name: "b", Scheme: scheme, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 64,
					MaxChainLength: bound, CompressDeltas: cdec,
				}
				cluster := store.NewMemCluster(12)
				a, err := New(cfg, cluster)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				object := make([]byte, a.Capacity())
				rng.Read(object)
				var versions [][]byte
				for j := 1; j <= 40; j++ {
					if j > 1 {
						blocks := rng.Perm(cfg.K)[:1+rng.Intn(3)]
						if j%6 == 0 {
							blocks = rng.Perm(cfg.K)
						}
						object = editBlocks(object, cfg.BlockSize, blocks...)
					}
					versions = append(versions, object)
					mustCommit(t, a, object)
					if _, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || orphans != 0 {
						t.Fatalf("seed %d %v cdec=%v commit %d: reclaim left %d orphans (%v)", seed, scheme, cdec, j, orphans, err)
					}
					named := 0
					for v := 1; v <= j; v++ {
						for _, cw := range a.stored(v) {
							named += cw.code.N()
						}
					}
					if held := shardCount(t, cluster); held != named {
						t.Fatalf("seed %d %v cdec=%v after commit %d: the nodes hold %d shards, the manifest names %d", seed, scheme, cdec, j, held, named)
					}
					for v := 1; v <= j; v++ {
						w, err := a.planChain(v)
						if err != nil {
							t.Fatal(err)
						}
						depth, err := a.ChainDepth(v)
						if err != nil {
							t.Fatal(err)
						}
						if hops := len(w) - 1; hops > bound || depth != hops {
							t.Fatalf("seed %d %v cdec=%v after commit %d: v%d planned walk applies %d deltas (bound %d), ChainDepth %d",
								seed, scheme, cdec, j, v, hops, bound, depth)
						}
					}
				}
				all, _, err := a.RetrieveAllContext(t.Context(), len(versions))
				if err != nil {
					t.Fatal(err)
				}
				for v, want := range versions {
					if !bytes.Equal(all[v], want) {
						t.Fatalf("seed %d %v cdec=%v: v%d differs", seed, scheme, cdec, v+1)
					}
				}
			}
		}
	}
}

// TestCompactionReadsWhatThePlannerPredicts pins a pass's materialization to
// the RetrieveAll walk: its NodeReads equal PlannedReadsAll(L) of the chain it
// started from, on every scheme with and without CDEC, for a first pass over
// an uncompacted (12,10) chain of 60 versions and for a second pass after 20
// more commits.
func TestCompactionReadsWhatThePlannerPredicts(t *testing.T) {
	for _, scheme := range []Scheme{BasicSEC, OptimizedSEC, ReversedSEC, NonDifferential} {
		for _, cdec := range []bool{false, true} {
			cfg := Config{Name: "r", Scheme: scheme, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 64, CompressDeltas: cdec}
			rng := rand.New(rand.NewSource(7))
			edit := func(int) []int { return rng.Perm(cfg.K)[:1+rng.Intn(3)] }
			a, versions := buildChain(t, store.NewMemCluster(12), cfg, 7, 60, edit)
			object := versions[len(versions)-1]
			for pass := 1; pass <= 2; pass++ {
				if pass == 2 {
					for range 20 {
						object = editBlocks(object, cfg.BlockSize, edit(0)...)
						versions = append(versions, object)
						mustCommit(t, a, object)
					}
				}
				want, err := a.PlannedReadsAll(a.Versions())
				if err != nil {
					t.Fatal(err)
				}
				info, err := a.CompactToContext(t.Context(), 3)
				if err != nil {
					t.Fatal(err)
				}
				compacts := scheme != NonDifferential
				if !compacts {
					want = 0 // every version is full: the pass finds nothing to do and reads nothing
				}
				if info.Changed() != compacts || info.NodeReads != want {
					t.Errorf("%v cdec=%v pass %d: compaction changed=%v read %d shards, want changed=%v and PlannedReadsAll(%d) = %d",
						scheme, cdec, pass, info.Changed(), info.NodeReads, compacts, a.Versions(), want)
				}
			}
			for v, want := range versions {
				if got, _ := mustRetrieve(t, a, v+1); !bytes.Equal(got, want) {
					t.Fatalf("%v cdec=%v: v%d differs after compaction", scheme, cdec, v+1)
				}
			}
		}
	}
}

func TestCheckpointEveryBasic(t *testing.T) {
	cluster := store.NewMemCluster(6)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.CheckpointEvery = 3
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{4}, 12)
	for j := 0; j < 7; j++ {
		if j > 0 {
			object = editBlocks(object, 4, 0)
		}
		info := mustCommit(t, a, object)
		wantCheckpoint := info.Version == 4 || info.Version == 7
		if info.Checkpoint != wantCheckpoint {
			t.Errorf("v%d checkpoint = %v, want %v", info.Version, info.Checkpoint, wantCheckpoint)
		}
	}
	m := a.Manifest()
	for _, e := range m.Entries {
		wantFull := e.Version == 1 || e.Version == 4 || e.Version == 7
		if e.Full != wantFull {
			t.Errorf("v%d full = %v, want %v", e.Version, e.Full, wantFull)
		}
	}
	for v := 1; v <= 7; v++ {
		depth, err := a.ChainDepth(v)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 2 {
			t.Errorf("v%d depth = %d, want <= 2 with CheckpointEvery=3", v, depth)
		}
	}
}

func TestCheckpointEveryReversedRetainsAnchors(t *testing.T) {
	cluster := store.NewMemCluster(6)
	cfg := testConfig(ReversedSEC, erasure.NonSystematicCauchy)
	cfg.CheckpointEvery = 3
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{5}, 12)
	var versions [][]byte
	for j := 0; j < 8; j++ {
		if j > 0 {
			object = editBlocks(object, 4, j%3)
		}
		versions = append(versions, append([]byte(nil), object...))
		mustCommit(t, a, object)
	}
	m := a.Manifest()
	for _, e := range m.Entries {
		wantFull := e.Version == 3 || e.Version == 6 || e.Version == 8 // 8 is the tip
		if e.Full != wantFull {
			t.Errorf("v%d full = %v, want %v", e.Version, e.Full, wantFull)
		}
		if wantFull && e.Version != 8 && !e.Checkpoint {
			t.Errorf("retained full v%d not marked as checkpoint", e.Version)
		}
	}
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs with retained checkpoints", v+1)
		}
		depth, err := a.ChainDepth(v + 1)
		if err != nil {
			t.Fatal(err)
		}
		if depth > 2 {
			t.Errorf("v%d depth = %d, want <= 2", v+1, depth)
		}
	}
}

// TestCompactedManifestRoundTrip reopens a compacted archive from its
// manifest and checks retrieval, scrub, and repair all honor the rebased
// chain.
func TestCompactedManifestRoundTrip(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if _, err := a.CompactToContext(t.Context(), 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		got, _, err := reopened.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d after reopen: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs after manifest round trip", v+1)
		}
	}
	// Scrub sees a fully healthy archive: no references to GC'd objects.
	report, err := reopened.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 0 || report.ShardsCorrupt != 0 || report.ObjectsUndecodable != 0 {
		t.Errorf("post-compaction scrub = %+v, want clean", report)
	}
	// Repair heals a wiped node's rebased-delta shards too.
	n, err := cluster.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	n.(*store.MemNode).Wipe()
	repair, err := reopened.RepairNodeContext(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if repair.ShardsRepaired == 0 {
		t.Error("repair rebuilt nothing on a wiped node")
	}
	if got, _, err := reopened.RetrieveContext(t.Context(), 1); err != nil || !bytes.Equal(got, versions[0]) {
		t.Errorf("v1 unreadable after repair: %v", err)
	}
}

// TestRetrieveAllAfterCompaction exercises the whole-archive read across
// rebased chains (bases later than their versions).
func TestRetrieveAllAfterCompaction(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	if _, err := a.CompactToContext(t.Context(), 4); err != nil {
		t.Fatal(err)
	}
	cluster.ResetStats()
	all, stats, err := a.RetrieveAllContext(t.Context(), len(versions))
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		if !bytes.Equal(all[v], want) {
			t.Errorf("RetrieveAll v%d differs", v+1)
		}
	}
	if got := int(cluster.TotalStats().Reads); got != stats.NodeReads {
		t.Errorf("RetrieveAll accounting: NodeStats %d != RetrievalStats %d", got, stats.NodeReads)
	}
	planned, err := a.PlannedReadsAll(len(versions))
	if err != nil {
		t.Fatal(err)
	}
	if planned != stats.NodeReads {
		t.Errorf("PlannedReadsAll = %d, measured %d", planned, stats.NodeReads)
	}
}

// TestPlannedReadsAllMatchesMeasured checks the one step list against itself
// from both ends on random chains - every scheme, random sparsity, optional
// checkpoints and CDEC deltas, one or two compaction passes with random
// bounds, so bases before and after their versions, promoted checkpoints and
// re-rebased deltas all occur: for every prefix length l what PlannedReadsAll
// prices is what RetrieveAllContext reads, by its own accounting and by the
// nodes' counters, and the bytes are right.
func TestPlannedReadsAllMatchesMeasured(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Name:            "p",
			Scheme:          allSchemes[rng.Intn(len(allSchemes))],
			Code:            erasure.NonSystematicCauchy,
			N:               20,
			K:               10,
			BlockSize:       8,
			CheckpointEvery: []int{0, 0, 3, 5}[rng.Intn(4)],
			CompressDeltas:  rng.Intn(3) == 0,
		}
		L := 6 + rng.Intn(10)
		cluster := store.NewMemCluster(20)
		a, versions := buildChain(t, cluster, cfg, seed, L, func(int) []int {
			return rng.Perm(cfg.K)[:rng.Intn(7)] // gamma 0..6: zero, sparse (<= 4) and dense deltas
		})
		for pass := rng.Intn(3); pass > 0; pass-- {
			if _, err := a.CompactToContext(t.Context(), 1+rng.Intn(4)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for l := 1; l <= L; l++ {
			planned, err := a.PlannedReadsAll(l)
			if err != nil {
				t.Fatalf("seed %d: PlannedReadsAll(%d): %v", seed, l, err)
			}
			cluster.ResetStats()
			all, stats, err := a.RetrieveAllContext(t.Context(), l)
			if err != nil {
				t.Fatalf("seed %d: RetrieveAllContext(%d): %v", seed, l, err)
			}
			for v := range all {
				if !bytes.Equal(all[v], versions[v]) {
					t.Errorf("seed %d: RetrieveAllContext(%d) version %d differs", seed, l, v+1)
				}
			}
			if measured := int(cluster.TotalStats().Reads); planned != stats.NodeReads || planned != measured {
				t.Errorf("seed %d (%v, L=%d): PlannedReadsAll(%d) = %d, RetrieveAllContext read %d (nodes served %d)",
					seed, cfg.Scheme, L, l, planned, stats.NodeReads, measured)
			}
		}
	}
}

// TestCompactCrashBeforeSwapLeavesOldChainReadable simulates a compaction
// that dies after writing some new codewords but before the manifest swap:
// the old manifest (on disk, and the in-memory entries) must still read
// every version byte-identically, and a retried compaction must succeed.
func TestCompactCrashBeforeSwapLeavesOldChainReadable(t *testing.T) {
	cluster, err := store.NewDiskCluster(t.TempDir(), 20)
	if err != nil {
		t.Fatal(err)
	}
	a, versions := chain20x10(t, cluster)
	var preManifest bytes.Buffer
	if err := a.Save(&preManifest); err != nil {
		t.Fatal(err)
	}
	preJSON := append([]byte(nil), preManifest.Bytes()...)

	// Node 19 dies mid-pass: materialization still has k=10 of 19 live
	// rows per object, but the first writeObject cannot place its shard
	// and the pass aborts - after writing the other 19 shards of the new
	// object, exactly the torn state a crash would leave.
	if err := cluster.Fail(19); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CompactToContext(t.Context(), 4); err == nil {
		t.Fatal("compaction with a dead write target: want error")
	}
	if err := cluster.Heal(19); err != nil {
		t.Fatal(err)
	}

	// The in-memory manifest was never swapped...
	m := a.Manifest()
	for _, e := range m.Entries {
		if e.Base != 0 {
			t.Fatalf("aborted compaction leaked base rewrite into manifest: %+v", e)
		}
	}
	// ...and a fresh archive opened from the pre-compaction manifest (the
	// crashed process's on-disk state) reads everything, orphan shards
	// notwithstanding.
	reopened, err := Load(bytes.NewReader(preJSON), cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		got, _, err := reopened.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d from old manifest: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs reading the old chain", v+1)
		}
	}
	// The retry overwrites the orphans and completes.
	info, err := reopened.CompactToContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Changed() {
		t.Fatal("retried compaction changed nothing")
	}
	for v, want := range versions {
		got, _, err := reopened.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("retrieve v%d after retried compaction: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("v%d differs after retried compaction", v+1)
		}
	}
}

// TestCompactQueuesSupersededUntilReclaim exercises the crash-safe two-phase
// flow: after CompactToContext, BOTH the pre- and post-compaction manifests
// describe fully readable chains (a crash between swap and persistence
// loses nothing); ReclaimSupersededContext then frees the superseded
// codewords once the caller has persisted.
func TestCompactQueuesSupersededUntilReclaim(t *testing.T) {
	cluster := store.NewMemCluster(20)
	a, versions := chain20x10(t, cluster)
	var preManifest bytes.Buffer
	if err := a.Save(&preManifest); err != nil {
		t.Fatal(err)
	}
	preJSON := append([]byte(nil), preManifest.Bytes()...)

	before := shardCount(t, cluster)
	info, err := a.CompactToContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shardCount(t, cluster), before+info.ShardWrites; got != want {
		t.Fatalf("cluster holds %d shards after the pass, want %d: compaction deleted something", got, want)
	}
	if want := 3 * 20; info.SupersededShards != want {
		t.Fatalf("superseded shards = %d, want %d", info.SupersededShards, want)
	}
	// The OLD manifest still reads every version: nothing it references
	// has been deleted yet.
	old, err := Load(bytes.NewReader(preJSON), cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		got, _, err := old.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("old manifest v%d unreadable before reclaim: %v", v+1, err)
		}
	}
	// So does the new one.
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("new manifest v%d unreadable: %v", v+1, err)
		}
	}
	// Reclaim frees exactly the superseded codewords.
	deleted, orphans, err := a.ReclaimSupersededContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if deleted != info.SupersededShards || orphans != 0 {
		t.Fatalf("reclaim = %d deleted / %d orphans, want %d/0", deleted, orphans, info.SupersededShards)
	}
	for i, id := range []string{deltaID("t", 2), deltaID("t", 3), deltaID("t", 4)} {
		objectGone(t, cluster, a, id, i+2)
	}
	// Idempotent: a second reclaim has nothing to do.
	if deleted, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || deleted != 0 || orphans != 0 {
		t.Fatalf("second reclaim = %d/%d/%v, want 0/0/nil", deleted, orphans, err)
	}
	// And the compacted chain still reads everything.
	for v, want := range versions {
		got, _, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d unreadable after reclaim: %v", v+1, err)
		}
	}
}

// TestReclaimSparesARewrittenName: a queued codeword's name can be written
// again with live content, and the write takes it off the queue. Reversed SEC
// queues x1 when v2 lands, a reclaim with node 5 down leaves x1 queued as an
// orphan there, and compaction then promotes v1 to a checkpoint - a new x1
// under the same name. The next reclaim must leave it, or v1 is gone.
func TestReclaimSparesARewrittenName(t *testing.T) {
	cluster := store.NewMemCluster(6)
	a, err := New(testConfig(ReversedSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	versions := [][]byte{bytes.Repeat([]byte{9}, a.Capacity())}
	commit := func() {
		t.Helper()
		b := len(versions) - 1 // v2, v3, v4 edit blocks 0, 1, 2: x4 -> x1 merges dense
		versions = append(versions, editBlocks(versions[b], a.cfg.BlockSize, b))
		mustCommit(t, a, versions[len(versions)-1])
	}
	mustCommit(t, a, versions[0])
	commit()
	if err := cluster.Fail(5); err != nil {
		t.Fatal(err)
	}
	if _, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || orphans != 1 {
		t.Fatalf("reclaim with node 5 down: %d orphans (%v), want x1's row there", orphans, err)
	}
	cluster.HealAll()
	commit()
	commit()
	info, err := a.CompactToContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Promoted) != 1 || info.Promoted[0] != 1 {
		t.Fatalf("compaction promoted %v, want [1]", info.Promoted)
	}
	if _, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || orphans != 0 {
		t.Fatalf("reclaim: %d orphans, %v", orphans, err)
	}
	for v, want := range versions {
		if got, _, err := a.RetrieveContext(t.Context(), v+1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("v%d after the reclaim: %v", v+1, err)
		}
	}
}

func TestConfigLifecycleValidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative max chain", func(c *Config) { c.MaxChainLength = -1 }},
		{"negative checkpoint interval", func(c *Config) { c.CheckpointEvery = -2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
			tt.mut(&cfg)
			if _, err := New(cfg, cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}
