package core

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// heldBytes sums the distinct blocks the cache's entries hold, counted
// from the entries themselves rather than from the cache's own books.
func heldBytes(c *versionCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*byte]bool)
	n := 0
	for _, it := range c.entries {
		for _, b := range it.blocks {
			if !seen[&b[0]] {
				seen[&b[0]] = true
				n += len(b)
			}
		}
	}
	return n
}

// TestVersionCacheChargesSharedBlocksOnce pins the budget's unit: versions
// that share blocks, as a chain of sparse deltas does, are charged each
// distinct block once, CacheStats.Bytes is the distinct bytes held, a
// version that goes frees only the blocks no other entry holds, and a
// chain whose distinct bytes fit the budget stays cached whole.
func TestVersionCacheChargesSharedBlocksOnce(t *testing.T) {
	const k, blockSize = 4, 8
	block := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, blockSize) }
	// v1 is four fresh blocks; v2 changes block 1 of v1, v3 block 2 of v2,
	// and v4 shares nothing.
	v1 := [][]byte{block(1), block(2), block(3), block(4)}
	v2 := [][]byte{v1[0], block(5), v1[2], v1[3]}
	v3 := [][]byte{v2[0], v2[1], block(6), v2[3]}
	v4 := [][]byte{block(7), block(8), block(9), block(10)}
	chain := (k + 2) * blockSize // distinct bytes of v1..v3; charged per version they would be 3k blocks

	check := func(c *versionCache, when string, size, versions int) {
		t.Helper()
		cs := c.stats()
		if cs.Bytes != size || cs.Versions != versions {
			t.Errorf("%s: %d bytes in %d versions, want %d in %d", when, cs.Bytes, cs.Versions, size, versions)
		}
		if held := heldBytes(c); cs.Bytes != held {
			t.Errorf("%s: Bytes = %d, but the entries hold %d distinct bytes", when, cs.Bytes, held)
		}
	}

	c := newVersionCache(chain)
	for v, blocks := range [][][]byte{v1, v2, v3} {
		c.put(v+1, blocks, k*blockSize)
	}
	check(c, "a chain that fits", chain, 3)
	for v := 1; v <= 3; v++ {
		if _, _, ok := c.get(v); !ok {
			t.Errorf("v%d of a chain whose distinct bytes fit the budget was evicted", v)
		}
	}
	c.put(2, v2, k*blockSize) // caching a version again charges nothing new
	check(c, "v2 cached again", chain, 3)

	// Dropping a version frees only the block no other version holds.
	c.remove(1)
	check(c, "without v1", chain-blockSize, 2)
	c.remove(3)
	check(c, "without v1 and v3", k*blockSize, 1)

	// Eviction frees the same way: with v4 on top of the chain, the LRU
	// drops v1 (freeing one block), then v2 (one), then v3 (four).
	c = newVersionCache(chain)
	for v, blocks := range [][][]byte{v1, v2, v3, v4} {
		c.put(v+1, blocks, k*blockSize)
	}
	check(c, "v4 pushed the chain out", k*blockSize, 1)
	if cs := c.stats(); cs.Evictions != 3 {
		t.Errorf("%d evictions, want 3", cs.Evictions)
	}
	if _, _, ok := c.get(4); !ok {
		t.Error("v4 was evicted by its own put")
	}
}

// TestRetrieveAllServedFromCache pins the whole-prefix read of the cache:
// a prefix whose every version is cached is one hit with zero node reads
// and the bytes of every version it returns, and a prefix with a version
// missing walks as before and caches nothing it decoded.
func TestRetrieveAllServedFromCache(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 1 << 20
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{31}, a.Capacity()-3)
	versions := [][]byte{v1, editBlocks(v1, 4, 0), editBlocks(editBlocks(v1, 4, 0), 4, 2)}
	for _, v := range versions {
		mustCommit(t, a, v)
	}
	retrieveAll := func(a *Archive, l int) RetrievalStats {
		t.Helper()
		all, stats, err := a.RetrieveAllContext(t.Context(), l)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != l {
			t.Fatalf("RetrieveAll(%d) returned %d versions", l, len(all))
		}
		for v, want := range versions[:l] {
			if !bytes.Equal(all[v], want) {
				t.Errorf("RetrieveAll(%d): v%d differs from its commit", l, v+1)
			}
		}
		return stats
	}
	for l := 1; l <= len(versions); l++ {
		served := 0
		for _, v := range versions[:l] {
			served += len(v)
		}
		if stats := retrieveAll(a, l); stats.CacheHits != 1 || stats.NodeReads != 0 || stats.CacheBytes != served || len(stats.Objects) != 0 {
			t.Errorf("RetrieveAll(%d) of committed versions: %+v, want one hit of %d bytes", l, stats, served)
		}
	}

	// A cold archive walks, and keeps nothing of the walk.
	cold, err := Open(a.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if stats := retrieveAll(cold, 3); stats.CacheHits != 0 || stats.NodeReads == 0 {
		t.Errorf("cold RetrieveAll: %+v, want a walk", stats)
	}
	if cs, _ := cold.ReadCacheStats(); cs.Versions != 0 || cs.Misses != 1 {
		t.Errorf("after a cold RetrieveAll: %+v, want nothing cached and one miss", cs)
	}
	// With v1 cached by a single read, a prefix through v2 still walks.
	mustRetrieve(t, cold, 1)
	if stats := retrieveAll(cold, 2); stats.CacheHits != 0 || stats.NodeReads == 0 {
		t.Errorf("RetrieveAll with v2 uncached: %+v, want a walk", stats)
	}
	// A single read of v3 walks through v1 and v2: now the prefix is a hit.
	mustRetrieve(t, cold, 3)
	if stats := retrieveAll(cold, 3); stats.CacheHits != 1 || stats.NodeReads != 0 {
		t.Errorf("RetrieveAll after a walk cached the prefix: %+v, want a hit", stats)
	}
}
