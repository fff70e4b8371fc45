package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// loanCounts reads the sets loans have taken from the pool and given back.
func loanCounts() (lent, returned int64) { return lentSets.Load(), returnedSets.Load() }

// TestReadsReturnEveryLentSet counts the pooled sets full decodes take: a
// read that succeeds lends them and its release gives each back once, and a
// walk that fails midway - after a full codeword and a dense delta were
// decoded, on a delta whose every row is gone - gives back all it took
// before it returns.
func TestReadsReturnEveryLentSet(t *testing.T) {
	ctx := t.Context()
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), store.NewMemCluster(6))
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, a.Capacity())
	rand.New(rand.NewSource(1)).Read(v1)
	v2 := editBlocks(v1, 4, 0, 1, 2) // gamma = k: decoded full
	v3 := editBlocks(v2, 4, 1)
	for _, v := range [][]byte{v1, v2, v3} {
		mustCommit(t, a, v)
	}

	lent0, returned0 := loanCounts()
	parts, release, _, err := a.RetrievePartsContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	lent, returned := loanCounts()
	if lent-lent0 != 2 || returned != returned0 {
		t.Fatalf("a read of v3 took %d sets and gave back %d before its release, want 2 and 0", lent-lent0, returned-returned0)
	}
	if got := bytes.Join(parts, nil); !bytes.Equal(got, v3) {
		t.Fatal("lent parts differ from the committed version")
	}
	release()
	if _, returned = loanCounts(); returned-returned0 != 2 {
		t.Fatalf("the release gave back %d sets, want 2", returned-returned0)
	}

	cw, err := a.deltaCodeword(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range a.cluster.DeleteBatch(ctx, a.rowRefs(cw, allRows(cw.code.N()))) {
		if err != nil {
			t.Fatal(err)
		}
	}
	lent0, returned0 = loanCounts()
	if _, _, err := a.RetrieveContext(ctx, 3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("reading v3 without its delta: err = %v, want ErrUnavailable", err)
	}
	lent, returned = loanCounts()
	if lent-lent0 != 2 || returned-returned0 != 2 {
		t.Fatalf("a walk that failed on its third codeword took %d sets and gave back %d, want 2 and 2", lent-lent0, returned-returned0)
	}
}

// TestCachedVersionsOutliveThePool is the rule for what a read keeps: the
// decoded-version cache holds memory of its own, never a set that goes back
// to the pool. A cached archive's versions are read once; then an uncached
// archive of the same shape reads enough to cycle the pool many times over,
// every set scribbled as it goes back (erasure.ScribbleReleasedBuffers, on
// for this suite). The cached versions must still hash to what was
// committed, and be served as hits with nothing lent.
func TestCachedVersionsOutliveThePool(t *testing.T) {
	ctx := t.Context()
	cluster := store.NewMemCluster(6)
	newArchive := func(name string, cacheBytes int) (*Archive, [][]byte) {
		cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
		cfg.Name, cfg.BlockSize, cfg.ReadCacheBytes = name, 64, cacheBytes
		a, err := New(cfg, cluster)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]byte, a.Capacity())
		rand.New(rand.NewSource(int64(len(name)))).Read(v)
		versions := [][]byte{v, editBlocks(v, 64, 0, 1, 2)}
		versions = append(versions, editBlocks(versions[1], 64, 2))
		for _, v := range versions {
			mustCommit(t, a, v)
		}
		return a, versions
	}
	cached, want := newArchive("cached", 1<<20)
	uncached, _ := newArchive("uncached-archive", 0)
	for l := range want {
		mustRetrieve(t, cached, l+1) // the walks fill the cache
	}
	lent0, returned0 := loanCounts()
	for i := 0; i < 50; i++ {
		mustRetrieve(t, uncached, 1+i%3)
	}
	if lent, returned := loanCounts(); lent == lent0 || lent-lent0 != returned-returned0 {
		t.Fatalf("the uncached burst took %d sets and gave back %d, want the same non-zero count", lent-lent0, returned-returned0)
	}
	for l, v := range want {
		parts, release, stats, err := cached.RetrievePartsContext(ctx, l+1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CacheHits != 1 || release != nil {
			t.Fatalf("v%d: stats %+v, release set: %v; want a cache hit that lends nothing", l+1, stats, release != nil)
		}
		if sha256.Sum256(bytes.Join(parts, nil)) != sha256.Sum256(v) {
			t.Fatalf("cached v%d no longer hashes to the committed bytes", l+1)
		}
	}
}
