package core

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// compressConfig returns the (6,3) test config with compressed
// differential erasure coding enabled.
func compressConfig(scheme Scheme, kind erasure.Kind) Config {
	cfg := testConfig(scheme, kind)
	cfg.CompressDeltas = true
	return cfg
}

func TestCompressValidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative cache budget", func(c *Config) { c.ReadCacheBytes = -1 }},
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

// TestCompressedRoundTripAllCodes commits a chain whose deltas straddle
// the compression threshold under every code construction and verifies
// byte-exact reconstruction, the manifest's compressed markers, and the
// read accounting: a compressed gamma-sparse delta costs gamma reads
// where the plain sparse path costs 2*gamma.
func TestCompressedRoundTripAllCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, kind := range allCodeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cluster := store.NewMemCluster(0)
			a, err := New(compressConfig(BasicSEC, kind), cluster)
			if err != nil {
				t.Fatal(err)
			}
			v1 := make([]byte, a.Capacity())
			rng.Read(v1)
			v2 := editBlocks(v1, 4, 1)       // gamma=1: compressed
			v3 := editBlocks(v2, 4, 0, 2)    // gamma=2: compressed (k-1)
			v4 := editBlocks(v3, 4, 0, 1, 2) // gamma=3=k: dense, not compressible
			versions := [][]byte{v1, v2, v3, v4}
			i1 := mustCommit(t, a, v1)
			i2 := mustCommit(t, a, v2)
			i3 := mustCommit(t, a, v3)
			i4 := mustCommit(t, a, v4)
			if i1.Compressed || !i2.Compressed || !i3.Compressed || i4.Compressed {
				t.Errorf("Compressed flags = %v %v %v %v", i1.Compressed, i2.Compressed, i3.Compressed, i4.Compressed)
			}
			// A compressed gamma-sparse delta is a (gamma+n-k, gamma)
			// codeword: 4 shards for gamma=1, 5 for gamma=2, vs 6 plain.
			if i2.StoredDelta && i2.ShardWrites != 4 {
				t.Errorf("gamma=1 delta wrote %d shards, want 4", i2.ShardWrites)
			}
			if i3.StoredDelta && i3.ShardWrites != 5 {
				t.Errorf("gamma=2 delta wrote %d shards, want 5", i3.ShardWrites)
			}
			m := a.Manifest()
			if !m.Entries[1].Compressed || len(m.Entries[1].Support) != 1 || m.Entries[1].Support[0] != 1 {
				t.Errorf("v2 manifest entry = %+v", m.Entries[1])
			}
			if !m.Entries[2].Compressed || len(m.Entries[2].Support) != 2 {
				t.Errorf("v3 manifest entry = %+v", m.Entries[2])
			}
			if m.Entries[3].Compressed || !slices.Equal(m.Entries[3].Support, []int{0, 1, 2}) {
				t.Errorf("v4 manifest entry = %+v", m.Entries[3])
			}
			for v, want := range versions {
				got, _ := mustRetrieve(t, a, v+1)
				if !bytes.Equal(got, want) {
					t.Errorf("v%d mismatch", v+1)
				}
			}
			got, stats := mustRetrieve(t, a, 2)
			if !bytes.Equal(got, v2) {
				t.Error("v2 mismatch")
			}
			if stats.NodeReads != 3+1 || stats.CompressedReads != 1 {
				t.Errorf("v2 stats = %+v, want 4 reads, 1 compressed object", stats)
			}
			planned, err := a.PlannedReads(2)
			if err != nil {
				t.Fatal(err)
			}
			if planned != stats.NodeReads {
				t.Errorf("PlannedReads(2) = %d, actual %d", planned, stats.NodeReads)
			}
		})
	}
}

// commitPlain commits object as a plain delta into a compressing archive,
// as a build with a compress threshold below gamma stored it.
func commitPlain(t *testing.T, a *Archive, object []byte) CommitInfo {
	t.Helper()
	a.cfg.CompressDeltas = false
	defer func() { a.cfg.CompressDeltas = true }()
	return mustCommit(t, a, object)
}

// TestLegacyPlainDeltaInCompressedChain: a build with a compress threshold
// stored deltas above it plain, under a manifest that carries
// "compress_gamma_max". That manifest loads with the key ignored, and the
// plain delta stays plain beside the compressed ones and reads as one.
func TestLegacyPlainDeltaInCompressedChain(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{7}, a.Capacity())
	v2 := editBlocks(v1, 4, 2)    // gamma=1: compressed
	v3 := editBlocks(v2, 4, 0, 1) // gamma=2, above the old threshold: plain
	i1 := mustCommit(t, a, v1)
	i2 := mustCommit(t, a, v2)
	i3 := commitPlain(t, a, v3)
	if i1.Compressed || !i2.Compressed || i3.Compressed {
		t.Errorf("Compressed flags = %v %v %v", i1.Compressed, i2.Compressed, i3.Compressed)
	}
	saved := string(resave(t, a))
	legacy := strings.Replace(saved, "\"compress_deltas\": true,\n", "\"compress_deltas\": true,\n  \"compress_gamma_max\": 1,\n", 1)
	if legacy == saved {
		t.Fatal("saved manifest has no compress_deltas line")
	}
	b, err := Load(strings.NewReader(legacy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resave(t, b)); got != saved {
		t.Errorf("legacy manifest re-saved as\n%s\nwant\n%s", got, saved)
	}
	for v, want := range [][]byte{v1, v2, v3} {
		got, _ := mustRetrieve(t, b, v+1)
		if !bytes.Equal(got, want) {
			t.Errorf("v%d mismatch", v+1)
		}
	}
	_, stats := mustRetrieve(t, b, 3)
	if stats.CompressedReads != 1 {
		t.Errorf("mixed chain stats = %+v, want exactly 1 compressed object read", stats)
	}
}

// TestCompressedManifestRoundTrip reopens a compressed chain from its
// manifest (struct and JSON forms) and reads every version back.
func TestCompressedManifestRoundTrip(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{3}, a.Capacity())
	v2 := editBlocks(v1, 4, 0)
	v3 := editBlocks(v2, 4, 1, 2)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)

	reopened, err := Open(a.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Config().CompressDeltas {
		t.Error("reopened archive lost CompressDeltas")
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Archive{reopened, loaded} {
		for v, want := range [][]byte{v1, v2, v3} {
			got, _, err := b.RetrieveContext(t.Context(), v+1)
			if err != nil {
				t.Fatalf("v%d: %v", v+1, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("v%d mismatch after reopen", v+1)
			}
		}
	}
}

// TestCompressedManifestValidation rejects manifests whose compressed
// entries are malformed: the support is the only record of where the
// non-zero blocks go, so a damaged one must fail closed at Open time. A
// support on an entry without a delta, and per-block offsets on a
// compressed one, fail as well.
func TestCompressedManifestValidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{5}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 1))
	base := a.Manifest()
	tests := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"compressed without delta", func(m *Manifest) { m.Entries[0].Compressed = true; m.Entries[0].Support = []int{0} }},
		{"support too short", func(m *Manifest) { m.Entries[1].Support = nil }},
		{"support too long", func(m *Manifest) { m.Entries[1].Support = []int{0, 1} }},
		{"support out of range", func(m *Manifest) { m.Entries[1].Support = []int{3} }},
		{"support negative", func(m *Manifest) { m.Entries[1].Support = []int{-1} }},
		{"support without a delta", func(m *Manifest) { m.Entries[0].Gamma = 1; m.Entries[0].Support = []int{0} }},
		{"offsets on a compressed delta", func(m *Manifest) {
			m.Entries[1].Window, m.Entries[1].Offsets = &Window{Width: 1}, []int{0}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := base
			m.Entries = append([]ManifestEntry(nil), base.Entries...)
			for i := range m.Entries {
				m.Entries[i].Support = append([]int(nil), base.Entries[i].Support...)
			}
			tt.mut(&m)
			if _, err := Open(m, cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestCompressedCompaction rebases a compressed chain and verifies the
// merged deltas are re-compressed when still sparse enough, every version
// survives byte-exactly, and superseded codewords are reclaimed.
func TestCompressedCompaction(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	versions := [][]byte{bytes.Repeat([]byte{9}, a.Capacity())}
	mustCommit(t, a, versions[0])
	for j := 1; j <= 5; j++ {
		next := editBlocks(versions[j-1], 4, j%3)
		versions = append(versions, next)
		mustCommit(t, a, next)
	}
	info, err := a.CompactToContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Changed() {
		t.Fatal("compaction changed nothing")
	}
	m := a.Manifest()
	recompressed := 0
	for _, e := range m.Entries {
		if e.Compressed {
			recompressed++
			if len(e.Support) != e.Gamma {
				t.Errorf("v%d: support %v does not match gamma %d", e.Version, e.Support, e.Gamma)
			}
		}
	}
	if recompressed == 0 {
		t.Error("no rebased delta was re-compressed")
	}
	for v, want := range versions {
		got, _ := mustRetrieve(t, a, v+1)
		if !bytes.Equal(got, want) {
			t.Errorf("v%d mismatch after compaction", v+1)
		}
	}
	if _, _, err := a.ReclaimSupersededContext(t.Context()); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 0 || report.ShardsCorrupt != 0 || report.ObjectsUndecodable != 0 {
		t.Errorf("post-reclaim scrub = %+v", report)
	}
	for v, want := range versions {
		got, _ := mustRetrieve(t, a, v+1)
		if !bytes.Equal(got, want) {
			t.Errorf("v%d mismatch after reclaim", v+1)
		}
	}
}

// TestCompressedScrubAndRepair damages a compressed delta codeword and
// heals it through both maintenance paths.
func TestCompressedScrubAndRepair(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{13}, a.Capacity())
	v2 := editBlocks(v1, 4, 1)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	// The gamma=1 compressed codeword has 4 rows on nodes 0..3.
	node, err := cluster.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	id := store.ShardID{Object: "t/v2-delta", Row: 2}
	data, err := node.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[0] ^= 0xFF
	if err := node.Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("scrub report = %+v", report)
	}
	got, _ := mustRetrieve(t, a, 2)
	if !bytes.Equal(got, v2) {
		t.Error("v2 mismatch after scrub repair")
	}
	// Now lose the same shard entirely and rebuild it via node repair.
	if err := node.Delete(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	rreport, err := a.RepairNodeContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rreport.ShardsRepaired != 1 {
		t.Fatalf("repair report = %+v", rreport)
	}
	clean, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ShardsMissing != 0 || clean.ShardsCorrupt != 0 {
		t.Errorf("post-repair scrub = %+v", clean)
	}
}

// TestReadCacheHitsAndInvalidation pins the decoded-version cache
// contract: each commit caches its own version, a chain walk caches every
// version it materialized and verified, and hits serve with zero node
// reads. Versions are immutable and the cache holds only verified bytes,
// so what was cached before a commit, a compaction, a repairing scrub or a
// repair that rewrote shards is still a hit afterwards, byte-identical.
func TestReadCacheHitsAndInvalidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 1 << 20
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{21}, a.Capacity())
	v2 := editBlocks(v1, 4, 1)
	v3 := editBlocks(v2, 4, 2)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	requireCached(t, a, "after committing", v1, v2)

	// A fresh archive over the same manifest starts cold; its walk to v2
	// caches v1 on the way.
	cold, err := Open(a.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := mustRetrieve(t, cold, 2)
	if !bytes.Equal(got, v2) {
		t.Error("v2 mismatch")
	}
	if stats.CacheHits != 0 || stats.NodeReads == 0 {
		t.Errorf("cold retrieval stats = %+v", stats)
	}
	requireCached(t, cold, "after the walk", v1, v2)
	// Mutating a returned object must not poison the cache.
	got[0] ^= 0xFF
	requireCached(t, cold, "after a caller wrote into a read", v1, v2)

	// A commit changes no version's bytes: what was cached stays, and the
	// new version joins it.
	mustCommit(t, a, v3)
	requireCached(t, a, "after a commit", v1, v2, v3)
	// Nor does compaction, which changes how v3 is stored, not what it is.
	ci, err := a.CompactToContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Changed() {
		t.Fatalf("compaction rewrote nothing: %+v", ci)
	}
	requireCached(t, a, "after a compaction", v1, v2, v3)
	// Nor does a repairing scrub that found nothing to rewrite.
	if report, err := a.ScrubContext(t.Context(), true); err != nil || report.Repaired != 0 {
		t.Fatalf("clean scrub: %+v, %v", report, err)
	}
	requireCached(t, a, "after a clean scrub", v1, v2, v3)
	cs, _ := a.ReadCacheStats()
	if cs.Versions != 3 || cs.Hits < 9 {
		t.Errorf("cache stats = %+v", cs)
	}

	// Nor does a repairing scrub that rewrote a shard: no version cached
	// was decoded from a wrong row, because each passed its digest.
	node, err := cluster.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	id := store.ShardID{Object: "t/v1-full", Row: 2}
	data, err := node.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[0] ^= 0xFF
	if err := node.Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	if report, err := a.ScrubContext(t.Context(), true); err != nil || report.Repaired != 1 {
		t.Fatalf("repairing scrub: %+v, %v", report, err)
	}
	requireCached(t, a, "after a repairing scrub", v1, v2, v3)

	// Nor does a repair that rebuilt a lost shard.
	if err := node.Delete(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if report, err := a.RepairNodeContext(t.Context(), 2); err != nil || report.ShardsRepaired != 1 {
		t.Fatalf("repair: %+v, %v", report, err)
	}
	requireCached(t, a, "after a repair", v1, v2, v3)
}

// requireCached requires a read of each version 1..len(want) of a to be one
// cache hit with zero node reads that returns the version's committed
// bytes.
func requireCached(t *testing.T, a *Archive, when string, want ...[]byte) {
	t.Helper()
	for v, w := range want {
		got, stats := mustRetrieve(t, a, v+1)
		if !bytes.Equal(got, w) {
			t.Errorf("%s: cached v%d differs from its commit", when, v+1)
		}
		if stats.CacheHits != 1 || stats.NodeReads != 0 || stats.CacheBytes != len(w) {
			t.Errorf("%s: v%d stats = %+v, want a pure cache hit of %d bytes", when, v+1, stats, len(w))
		}
	}
}

// TestReadCacheBudget pins the LRU accounting: a budget too small for any
// version caches nothing, and a bounded budget evicts rather than grows.
func TestReadCacheBudget(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 1 // smaller than one version's blocks
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{23}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 0))
	mustRetrieve(t, a, 2)
	_, stats := mustRetrieve(t, a, 2)
	if stats.CacheHits != 0 {
		t.Errorf("oversize version was cached: %+v", stats)
	}
	cs, ok := a.ReadCacheStats()
	if !ok || cs.Versions != 0 || cs.Bytes != 0 {
		t.Errorf("cache stats = %+v (ok=%v)", cs, ok)
	}
	if _, ok := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster); ok != nil {
		t.Fatal(ok)
	}
	// Disabled cache reports not-ok.
	b, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), store.NewMemCluster(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.ReadCacheStats(); ok {
		t.Error("disabled cache reports stats")
	}
}

// TestCompressedChainStats confirms the planner prices compressed entries
// at gamma reads in both the per-version and whole-chain passes.
func TestCompressedChainStats(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(compressConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{31}, a.Capacity())
	v2 := editBlocks(v1, 4, 0)
	v3 := editBlocks(v2, 4, 1, 2)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)
	_, planned, err := a.ChainStats()
	if err != nil {
		t.Fatal(err)
	}
	// v1: k=3. v2: 3 + gamma(1). v3: 3 + 1 + gamma(2).
	want := []int{3, 4, 6}
	for v, w := range want {
		if planned[v] != w {
			t.Errorf("planned reads for v%d = %d, want %d", v+1, planned[v], w)
		}
		_, stats := mustRetrieve(t, a, v+1)
		if stats.NodeReads != w {
			t.Errorf("actual reads for v%d = %d, want %d", v+1, stats.NodeReads, w)
		}
	}
}
