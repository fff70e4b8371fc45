package core

import "sync"

// This file implements the decoded-version read cache (Config.
// ReadCacheBytes): a byte-budgeted LRU over the block vectors commits and
// retrievals materialize. Each commit caches its own version, and a chain
// walk that decodes versions 5, 6, and 7 to serve version 7 caches all
// three, so a later Retrieve of any of them - the hot latest version above
// all - completes with zero node reads. A decoded version is kept only once
// it matched the CRC32C its commit recorded (Archive.verify), so a row that
// was silently wrong never reaches the cache, and a version with no digest
// is served but not kept. Coherence then follows from immutability: a
// committed version's bytes never change, so no commit, compaction (which
// changes how a version is stored, not what it is), repair or scrub touches
// an entry. Cached block vectors are shared read-only with callers and with
// each other; nothing in the archive mutates decoded blocks in place.
//
// Versions share blocks: a delta of sparsity gamma leaves k - gamma blocks
// of its base in place, in a commit's blocks and in a walk's alike. The
// budget therefore counts each distinct block once, however many entries
// hold it, so it bounds the decoded bytes the cache actually keeps alive.
// A block is known by the address of its first byte.

// versionCache is a byte-budgeted LRU of decoded versions, safe for
// concurrent use (retrievals run under the archive's read lock, so the
// cache carries its own mutex).
type versionCache struct {
	mu      sync.Mutex
	budget  int
	size    int // bytes of the distinct blocks held
	entries map[int]*cacheItem
	// refs counts, per distinct block, the entries holding it.
	refs map[*byte]int
	// head is the most recently used item, tail the least.
	head, tail *cacheItem

	hits        int
	misses      int
	bytesServed int
	evictions   int
}

// cacheItem is one cached version in the LRU list.
type cacheItem struct {
	version    int
	blocks     [][]byte
	length     int // original object length in bytes
	prev, next *cacheItem
}

// CacheStats is a point-in-time snapshot of the decoded-version cache.
type CacheStats struct {
	// Hits and Misses count cache lookups by outcome (a retrieval of an
	// uncached version, or a whole-prefix read with one version of the
	// prefix uncached, is one miss).
	Hits, Misses int
	// BytesServed totals the object bytes hits returned from memory -
	// bytes that never crossed the wire.
	BytesServed int
	// Bytes and Versions describe the current contents; Bytes counts a
	// block that several versions share once.
	Bytes, Versions int
	// Evictions counts versions dropped to fit the budget.
	Evictions int
	// Budget is the configured byte budget.
	Budget int
}

func newVersionCache(budget int) *versionCache {
	return &versionCache{budget: budget, entries: make(map[int]*cacheItem), refs: make(map[*byte]int)}
}

// get returns the cached blocks and object length of a version, promoting
// it to most recently used. The returned blocks are shared: callers must
// treat them as read-only.
func (c *versionCache) get(version int) ([][]byte, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.entries[version]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.bytesServed += it.length
	c.moveToFront(it)
	return it.blocks, it.length, true
}

// getPrefix returns the cached blocks and object lengths of versions 1..l
// (element j is version j+1) when every one of them is cached, promoting
// them all, as one lookup: one hit, or one miss that promotes nothing. The
// blocks are shared, like get's.
func (c *versionCache) getPrefix(l int) (blocks [][][]byte, lengths []int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := 1; v <= l; v++ {
		if _, ok := c.entries[v]; !ok {
			c.misses++
			return nil, nil, false
		}
	}
	c.hits++
	blocks, lengths = make([][][]byte, l), make([]int, l)
	for v := 1; v <= l; v++ {
		it := c.entries[v]
		blocks[v-1], lengths[v-1] = it.blocks, it.length
		c.bytesServed += it.length
		c.moveToFront(it)
	}
	return blocks, lengths, true
}

// put caches a version's decoded blocks in place of any cached before,
// evicting least recently used versions until the budget holds. A version
// larger than the whole budget is not cached.
func (c *versionCache) put(version int, blocks [][]byte, length int) {
	size := 0
	for _, b := range blocks {
		size += len(b)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	// Take the new blocks before letting go of the old ones, so a block
	// both hold is never uncharged and charged again.
	c.acquire(blocks)
	if it, ok := c.entries[version]; ok {
		c.release(it.blocks)
		it.blocks, it.length = blocks, length
		c.moveToFront(it)
	} else {
		it := &cacheItem{version: version, blocks: blocks, length: length}
		c.entries[version] = it
		c.pushFront(it)
	}
	for c.size > c.budget && c.tail != nil {
		c.evictions++
		c.removeLocked(c.tail)
	}
}

// acquire counts one more holder of each block, charging the budget for
// the blocks no entry held yet.
func (c *versionCache) acquire(blocks [][]byte) {
	for _, b := range blocks {
		if c.refs[&b[0]]++; c.refs[&b[0]] == 1 {
			c.size += len(b)
		}
	}
}

// release counts one holder fewer of each block, freeing the budget of
// the blocks no entry holds any more.
func (c *versionCache) release(blocks [][]byte) {
	for _, b := range blocks {
		if c.refs[&b[0]]--; c.refs[&b[0]] == 0 {
			delete(c.refs, &b[0])
			c.size -= len(b)
		}
	}
}

// remove drops one version (used when a cached entry turns out to be
// unjoinable, which indicates it is stale or damaged).
func (c *versionCache) remove(version int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.entries[version]; ok {
		c.removeLocked(it)
	}
}

// stats snapshots the cache counters.
func (c *versionCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		BytesServed: c.bytesServed,
		Bytes:       c.size,
		Versions:    len(c.entries),
		Evictions:   c.evictions,
		Budget:      c.budget,
	}
}

func (c *versionCache) pushFront(it *cacheItem) {
	it.prev = nil
	it.next = c.head
	if c.head != nil {
		c.head.prev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
}

func (c *versionCache) unlink(it *cacheItem) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		c.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		c.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

func (c *versionCache) moveToFront(it *cacheItem) {
	if c.head == it {
		return
	}
	c.unlink(it)
	c.pushFront(it)
}

func (c *versionCache) removeLocked(it *cacheItem) {
	c.unlink(it)
	delete(c.entries, it.version)
	c.release(it.blocks)
}
