package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

// Retrieval errors.
var (
	// ErrNoSuchVersion is returned for version numbers outside 1..L.
	ErrNoSuchVersion = errors.New("core: no such version")
	// ErrUnavailable is returned when too few live shards remain to
	// reconstruct a required object.
	ErrUnavailable = errors.New("core: not enough live shards")
)

// errNilCluster rejects archive construction without a cluster.
var errNilCluster = errors.New("core: nil cluster")

// Archive is a SEC-encoded chain of versions of one object, stored on a
// cluster. It is safe for concurrent use; commits are serialized.
type Archive struct {
	cfg Config
	codecs
	blocking delta.Blocking
	cluster  *store.Cluster

	mu      sync.RWMutex
	entries []entry
	cache   [][]byte // blocks of the latest version, for delta computation; read-only
	// superseded queues every codeword a change has replaced - the old
	// tip's full under Reversed SEC, compaction's old deltas - until the
	// owner that persists the manifest reclaims them (ReclaimSupersededContext);
	// deletions that left orphans stay queued.
	superseded []codeword
	// generation counts the publishes of this archive's metadata, changed
	// lists the versions whose entries moved since (nextRecordLocked).
	generation uint64
	changed    []int
	// pub is what the nodes hold of the manifest (PublishContext).
	pub publishState

	// rcache, when non-nil, is the decoded-version read cache
	// (Config.ReadCacheBytes). It takes only versions just committed or
	// verified against their digest, and versions are immutable, so its
	// entries outlive commits, compactions, repairs and scrubs.
	rcache *versionCache
}

// CommitInfo reports what a Commit stored.
type CommitInfo struct {
	// Version is the 1-based version number assigned.
	Version int
	// StoredDelta and StoredFull report which codewords were written.
	StoredDelta bool
	StoredFull  bool
	// Checkpoint reports that the commit stored (or, for Reversed SEC,
	// retained) a full codeword as a chain checkpoint under the
	// CheckpointEvery policy, beyond what the storage scheme required.
	Checkpoint bool
	// Compressed reports that the delta was stored in CDEC-compacted form
	// (see Config.CompressDeltas).
	Compressed bool
	// Gamma is the block sparsity of the delta against the previous
	// version (0 for the first version).
	Gamma int
	// ShardWrites counts shards written to nodes.
	ShardWrites int
	// OrphanShards and ReclaimedShards count the superseded shards the
	// publish after the commit left on down nodes (garbage, not a
	// correctness problem) and those it deleted. The commit itself only
	// queues what it supersedes, so core leaves both zero; the gateway
	// fills them.
	OrphanShards, ReclaimedShards int
	// Compaction reports the auto-compaction this commit triggered (nil
	// when MaxChainLength is unset or no chain exceeded it).
	Compaction *CompactionInfo
}

// ObjectRead details the retrieval of one stored object.
type ObjectRead struct {
	// Version is the 1-based version the object belongs to.
	Version int
	// Delta reports whether the object was a delta (vs a full version).
	Delta bool
	// Gamma is the delta sparsity (0 for full objects).
	Gamma int
	// Reads is the number of node reads spent on this object.
	Reads int
	// Sparse reports whether a reduced sparse read was used.
	Sparse bool
	// Compressed reports that the object was a CDEC-compacted delta,
	// decoded from gamma shard reads and expanded via its support.
	Compressed bool
}

// RetrievalStats accounts the node reads of one retrieval.
type RetrievalStats struct {
	// NodeReads is the total number of shard reads (the paper's I/O
	// metric).
	NodeReads int
	// SparseReads and FullReads count objects by decode style.
	SparseReads int
	FullReads   int
	// CompressedReads counts objects decoded from CDEC-compacted
	// codewords (gamma reads each; see Config.CompressDeltas).
	CompressedReads int
	// CacheHits counts retrievals served wholly from the decoded-version
	// cache (Config.ReadCacheBytes), with zero node reads. CacheBytes
	// totals the object bytes those hits served.
	CacheHits  int
	CacheBytes int
	// Objects details every object read, in read order.
	Objects []ObjectRead
}

func (s *RetrievalStats) add(o ObjectRead) {
	s.NodeReads += o.Reads
	if o.Reads == 0 {
		return // zero delta: nothing was read
	}
	switch {
	case o.Compressed:
		s.CompressedReads++
	case o.Sparse:
		s.SparseReads++
	default:
		s.FullReads++
	}
	s.Objects = append(s.Objects, o)
}

// Merge accumulates another retrieval's accounting into s, for callers
// aggregating several retrievals (e.g. a multi-file checkout).
func (s *RetrievalStats) Merge(o RetrievalStats) {
	s.NodeReads += o.NodeReads
	s.SparseReads += o.SparseReads
	s.FullReads += o.FullReads
	s.CompressedReads += o.CompressedReads
	s.CacheHits += o.CacheHits
	s.CacheBytes += o.CacheBytes
	s.Objects = append(s.Objects, o.Objects...)
}

// New creates an empty archive on the cluster. For colocated placement the
// cluster is grown (if growable) to n nodes up front.
func New(cfg Config, cluster *store.Cluster) (*Archive, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cluster == nil {
		return nil, errNilCluster
	}
	a := &Archive{cfg: cfg, cluster: cluster}
	err := a.buildCodecs()
	if err != nil {
		return nil, err
	}
	if a.blocking, err = delta.NewBlocking(cfg.K, cfg.BlockSize); err != nil {
		return nil, err
	}
	if err := cluster.EnsureSize(cfg.Placement.NodesRequired(1, cfg.N)); err != nil {
		return nil, err
	}
	if cfg.ReadCacheBytes > 0 {
		a.rcache = newVersionCache(cfg.ReadCacheBytes)
	}
	return a, nil
}

// ReadCacheStats snapshots the decoded-version read cache counters; ok is
// false when the cache is disabled (Config.ReadCacheBytes == 0).
func (a *Archive) ReadCacheStats() (CacheStats, bool) {
	if a.rcache == nil {
		return CacheStats{}, false
	}
	return a.rcache.stats(), true
}

// Name returns the archive name.
func (a *Archive) Name() string { return a.cfg.Name }

// Scheme returns the storage scheme.
func (a *Archive) Scheme() Scheme { return a.cfg.Scheme }

// Config returns the archive configuration.
func (a *Archive) Config() Config { return a.cfg }

// Capacity returns the maximum object size in bytes.
func (a *Archive) Capacity() int { return a.blocking.Capacity() }

// Versions returns the number of committed versions L.
func (a *Archive) Versions() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.entries)
}

// CommitContext stores object as the next version, under the context's
// deadline and cancellation. The object must fit the configured capacity
// (K*BlockSize bytes); shorter objects are zero-padded, matching the
// paper's fixed-size object model. An object that does not fit is refused
// before any node I/O.
//
// A commit's work follows the delta's sparsity gamma: the object is compared
// block by block with the latest version, and only the gamma blocks that
// changed are copied, XORed and encoded. A commit deletes nothing: what it
// supersedes is queued for ReclaimSupersededContext, which the owner calls
// once it has persisted the manifest that stops naming it. The commit
// records the object's CRC32C, against which every read of the version is
// checked (verify).
func (a *Archive) CommitContext(ctx context.Context, object []byte) (CommitInfo, error) {
	if err := a.blocking.CheckLength(len(object)); err != nil {
		return CommitInfo{}, err
	}
	//lint:allow lockheld single-writer archive lock serializes all cluster I/O by design (DESIGN.md section 4)
	a.mu.Lock()
	defer a.mu.Unlock()

	version := len(a.entries) + 1
	if err := a.ensureNodes(version); err != nil {
		return CommitInfo{}, err
	}
	crc := crc32.Checksum(object, castagnoli)
	if version == 1 {
		blocks, err := a.blocking.Split(object)
		if err != nil {
			return CommitInfo{}, err
		}
		info := CommitInfo{Version: 1, StoredFull: true}
		if err := a.writeObject(ctx, a.fullCodeword(1), blocks, &info.ShardWrites); err != nil {
			return CommitInfo{}, err
		}
		a.entries = append(a.entries, entry{hasFull: true, length: len(object), crc: &crc})
		a.changed = append(a.changed, 1)
		a.setCache(1, blocks, len(object))
		return info, nil
	}

	if a.cache == nil {
		if err := a.restoreCacheLocked(ctx); err != nil {
			return CommitInfo{}, fmt.Errorf("core: restoring latest-version cache: %w", err)
		}
	}
	blocks, d, err := a.blocking.Diff(a.cache, object)
	if err != nil {
		return CommitInfo{}, err
	}
	gamma := d.Gamma()
	info := CommitInfo{Version: version, Gamma: gamma}

	storeDelta, storeFull := a.commitPlan(gamma)
	// Auto-checkpoint: when CheckpointEvery is set and the new version
	// would land CheckpointEvery or more versions past the last stored
	// full codeword, store a full codeword alongside the delta so no chain
	// grows unboundedly deep (Reversed SEC checkpoints at supersede time
	// below instead, since it stores a full every commit).
	if !storeFull && a.cfg.CheckpointEvery > 0 && version-a.lastFullBelow(version) >= a.cfg.CheckpointEvery {
		storeFull = true
		info.Checkpoint = true
	}
	e := entry{hasFull: storeFull, gamma: gamma, length: len(object), checkpoint: info.Checkpoint, crc: &crc}
	if storeDelta {
		cw, err := a.storeDelta(ctx, deltaID(a.cfg.Name, version), version, d, &info.ShardWrites)
		if err != nil {
			return CommitInfo{}, err
		}
		e.setDelta(cw, 0)
		info.StoredDelta, info.Compressed = true, cw.cdec()
	}
	if storeFull {
		if err := a.writeObject(ctx, a.fullCodeword(version), blocks, &info.ShardWrites); err != nil {
			return CommitInfo{}, err
		}
		info.StoredFull = true
	}
	a.entries = append(a.entries, e)
	a.changed = append(a.changed, version)
	if a.cfg.Scheme == ReversedSEC {
		// The previous version's full codeword is superseded: the chain
		// now reaches it through the new delta. Checkpoints are the
		// exception - a full retained under CheckpointEvery (or placed by
		// compaction) stays so old versions keep a nearby anchor.
		prev := version - 1
		if pe := &a.entries[prev-1]; pe.hasFull {
			keep := pe.checkpoint
			if !keep && a.cfg.CheckpointEvery > 0 && prev-a.lastFullBelow(prev) >= a.cfg.CheckpointEvery {
				pe.checkpoint = true
				info.Checkpoint = true
				keep = true
				a.changed = append(a.changed, prev)
			}
			if !keep {
				a.superseded = append(a.superseded, a.fullCodeword(prev))
				pe.hasFull = false
				a.changed = append(a.changed, prev)
			}
		}
	}
	a.setCache(version, blocks, len(object))
	if a.cfg.MaxChainLength > 0 {
		if depths, _, _, err := chainDepthsOf(a.entries); err == nil && maxDepth(depths) > a.cfg.MaxChainLength {
			ci, err := a.compactLocked(ctx, a.cfg.MaxChainLength)
			if err != nil {
				// The commit itself is durable and the chain is intact; only
				// the maintenance pass failed. Surface it without undoing
				// the commit - the caller can retry CompactToContext.
				return info, fmt.Errorf("core: version %d committed, but auto-compaction failed: %w", version, err)
			}
			info.Compaction = &ci
		}
	}
	return info, nil
}

// lastFullBelow returns the largest version below v whose full codeword is
// stored, or 0 when none is.
func (a *Archive) lastFullBelow(v int) int {
	for j := v - 1; j >= 1; j-- {
		if a.entries[j-1].hasFull {
			return j
		}
	}
	return 0
}

// commitPlan decides what to store for a non-first version.
func (a *Archive) commitPlan(gamma int) (storeDelta, storeFull bool) {
	switch a.cfg.Scheme {
	case BasicSEC:
		return true, false
	case OptimizedSEC:
		if 2*gamma < a.cfg.K {
			return true, false
		}
		return false, true
	case ReversedSEC:
		return true, true
	default: // NonDifferential
		return false, true
	}
}

// RetrieveContext reconstructs version l (1-based) under the context's
// deadline and cancellation, returning its bytes and the read accounting:
// the parts RetrievePartsContext reads, joined into the caller's copy, after
// which their blocks go back to the pool.
func (a *Archive) RetrieveContext(ctx context.Context, l int) ([]byte, RetrievalStats, error) {
	parts, release, stats, err := a.RetrievePartsContext(ctx, l)
	if err != nil {
		return nil, stats, err
	}
	object := bytes.Join(parts, nil)
	if release != nil {
		release()
	}
	return object, stats, nil
}

// RetrievePartsContext reconstructs version l (1-based) under the context's
// deadline and cancellation, returning the read accounting and the object
// as the blocks it spans, the last cut to its length (delta.Blocking.Trim):
// read-only memory the decoded-version cache and other versions may share,
// which a server writes into a reply from where it lies. The context bounds
// the whole retrieval end to end: a chain walk against a stalled node
// returns once the context expires instead of waiting out per-operation
// timeouts link by link.
//
// A read the decoded-version cache neither serves nor keeps decodes into
// pooled blocks and lends them: release, when not nil, gives them back, and
// the caller calls it exactly once, when nothing reads the parts any more.
// A caller that never calls it leaves the blocks to the GC.
func (a *Archive) RetrievePartsContext(ctx context.Context, l int) (parts [][]byte, release func(), stats RetrievalStats, err error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.rcache != nil && l >= 1 && l <= len(a.entries) {
		if blocks, length, ok := a.rcache.get(l); ok {
			parts, err := a.blocking.Trim(blocks, length)
			if err == nil {
				stats.CacheHits++
				stats.CacheBytes += length
				return parts, nil, stats, nil
			}
			a.rcache.remove(l) // an entry that does not trim is stale or damaged: drop it
		}
	}
	blocks, held, err := a.retrieveBlocksLocked(ctx, l, &stats)
	if err == nil {
		parts, err = a.blocking.Trim(blocks, a.entries[l-1].length)
	}
	if err != nil {
		held.release()
		return nil, nil, stats, err
	}
	return parts, held.lend(), stats, nil
}

// RetrieveAllContext reconstructs versions 1..l in order (the whole-
// archive read of formula (4) when l = L), under the context's deadline
// and cancellation. When the decoded-version cache holds every version of
// the prefix, the read is served from memory as one cache hit with zero
// node reads. Otherwise it is one planned walk: one probe round and one
// batch per node for the whole prefix, whose versions the cache does not
// keep, so a checkout does not evict the hot set; each version it returns is
// verified against its digest.
func (a *Archive) RetrieveAllContext(ctx context.Context, l int) ([][]byte, RetrievalStats, error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	var stats RetrievalStats
	if a.rcache != nil {
		if out, ok := a.cachedPrefixLocked(l, &stats); ok {
			return out, stats, nil
		}
	}
	w, err := a.planPrefix(l)
	if err != nil {
		return nil, stats, err
	}
	inHand, held, err := a.runWalk(ctx, w, &stats)
	if err != nil {
		return nil, stats, err
	}
	defer held.release() // every version is joined into a copy of its own
	out := make([][]byte, l)
	for j := range out {
		if err := a.verify(j+1, inHand[j+1]); err != nil {
			return nil, stats, err
		}
		out[j], err = a.blocking.Join(inHand[j+1], a.entries[j].length)
		if err != nil {
			return nil, stats, err
		}
	}
	return out, stats, nil
}

// cachedPrefixLocked joins versions 1..l from the decoded-version cache
// when it holds all of them, accounting one hit for the bytes of every
// version. A version that does not join is dropped from the cache and the
// read left to the walk. The cache is on; caller holds at least a read lock.
func (a *Archive) cachedPrefixLocked(l int, stats *RetrievalStats) ([][]byte, bool) {
	if l < 1 || l > len(a.entries) {
		return nil, false
	}
	blocks, lengths, ok := a.rcache.getPrefix(l)
	if !ok {
		return nil, false
	}
	out := make([][]byte, l)
	served := 0
	for j := range out {
		var err error
		if out[j], err = a.blocking.Join(blocks[j], lengths[j]); err != nil {
			a.rcache.remove(j + 1) // an entry that does not join is stale or damaged: drop it
			return nil, false
		}
		served += lengths[j]
	}
	stats.CacheHits++
	stats.CacheBytes += served
	return out, true
}

// retrieveBlocksLocked reconstructs the blocks of version l, adding reads
// to stats, and returns them, verified, with the loan they are made of
// (runWalk). With the decoded-version cache on, every version the walk
// decoded is verified too, the cache keeps those with a digest and the loan
// is dropped: it comes back empty. A version that fails its digest fails the
// read and leaves the cache as it was. Caller holds at least a read lock.
func (a *Archive) retrieveBlocksLocked(ctx context.Context, l int, stats *RetrievalStats) ([][]byte, loan, error) {
	planned := obs.Start(ctx, "plan")
	w, err := a.planChain(l)
	planned.End()
	if err != nil {
		return nil, nil, err
	}
	inHand, held, err := a.runWalk(ctx, w, stats)
	if err != nil {
		return nil, nil, err
	}
	for v, blocks := range inHand {
		if v == l || a.rcache != nil {
			if err := a.verify(v, blocks); err != nil {
				return nil, held, err
			}
		}
	}
	if a.rcache != nil {
		// Keep every verified version the walk decoded: the requested
		// version and all chain prefixes on the way. Cached blocks are
		// shared read-only, between versions too, and are the GC's: the
		// loan is dropped, never released.
		for v, blocks := range inHand {
			if a.entries[v-1].crc != nil {
				a.rcache.put(v, blocks, a.entries[v-1].length)
			}
		}
		held = nil
	}
	return inHand[l], held, nil
}

// runWalk executes a planned walk, returning every version it passes
// through (keyed by version number) and the loan of pooled sets its full
// decodes wrote into, which those versions are made of: the caller releases
// it when nothing reads them any more, or drops it to keep them. A walk that
// fails releases what it took. All shard reads of the walk are
// prefetched up front as one batch per node; the per-object readers consume
// the prefetched rows and fetch more only where the prefetch fell short.
// A delta step allocates the gamma blocks it changes and shares the rest
// with the version it starts from, so the versions returned overlap: they
// are read-only, like everything the decoded-version cache holds. A
// codeword's shards go back to their nodes as soon as it is decoded, and
// those of codewords a failed walk did not reach when it returns: decoded
// blocks never alias shards.
func (a *Archive) runWalk(ctx context.Context, w walk, stats *RetrievalStats) (inHand map[int][][]byte, held loan, err error) {
	cws := make([]codeword, len(w))
	for i, s := range w {
		if cws[i], err = a.stepCodeword(s); err != nil {
			return nil, nil, err
		}
	}
	sets := a.prefetch(ctx, cws)
	defer func() {
		for _, set := range sets {
			set.release()
		}
		if err != nil { // a failed walk gives back what it took and lends nothing
			held.release()
			held = nil
		}
	}()
	defer obs.Start(ctx, "decode").End()
	inHand = make(map[int][][]byte, len(w))
	for i, s := range w {
		from, ok := inHand[s.from]
		if s.via != 0 && !ok {
			return nil, held, fmt.Errorf("core: walk applies delta %d at version %d, which it has not reached", s.via, s.from)
		}
		set := sets[cws[i].id]
		if set == nil {
			set = newShardSet()
		}
		d, read, err := a.readCodeword(ctx, cws[i], set, &held)
		set.release() // read once: the rows are garbage as soon as they are decoded
		delete(sets, cws[i].id)
		if err != nil {
			return nil, held, err
		}
		stats.add(read)
		if s.via == 0 {
			inHand[s.to] = d.Blocks
			continue
		}
		if inHand[s.to], err = d.ApplyTo(from); err != nil {
			return nil, held, fmt.Errorf("core: applying the delta of version %d: %w", s.via, err)
		}
	}
	return inHand, held, nil
}

// writeObject encodes blocks with the codeword's code and stores every
// shard; see putEncoded.
func (a *Archive) writeObject(ctx context.Context, cw codeword, blocks [][]byte, writes *int) error {
	return a.putEncoded(ctx, cw, blockLenOf(blocks), writes, func(dst [][]byte) error {
		return cw.code.EncodeInto(blocks, dst)
	})
}

// putEncoded has encode write every row of the codeword into shard buffers
// of blockLen bytes and stores them, one batch per node. Shard buffers are
// pooled: the encode allocates nothing in steady state (cluster nodes copy
// shard contents on Put), and hold stale bytes until encode overwrites them.
// Every shard is attempted even when one fails, so a commit interrupted by
// one dead node leaves as few holes as possible; the first failure is
// returned. A codeword written whole holds live content, so its name leaves
// the superseded queue: a re-rebase onto a base used before, or a
// promotion of a version whose old full is still queued, reuses a name.
// Caller holds the write lock.
func (a *Archive) putEncoded(ctx context.Context, cw codeword, blockLen int, writes *int, encode func(dst [][]byte) error) error {
	bufs := erasure.GetBuffers(cw.code.N(), blockLen)
	defer bufs.Release()
	if err := encode(bufs.Blocks); err != nil {
		return err
	}
	var firstErr error
	for row, err := range a.cluster.PutBatch(ctx, a.rowRefs(cw, allRows(cw.code.N())), bufs.Blocks) {
		if err == nil {
			*writes++
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: writing %s#%d to node %d: %w", cw.id, row, a.nodeOf(cw, row), err)
		}
	}
	if firstErr == nil {
		a.superseded = slices.DeleteFunc(a.superseded, func(g codeword) bool { return g.id == cw.id })
	}
	return firstErr
}

// deleteObject removes an object's shards best-effort, one delete batch
// per placement node, returning how many could not be deleted. A shard
// already absent (ErrNotFound) counts as deleted: the goal is that the
// shard is gone, not that this call removed it. Only reclaimLocked calls
// it, so nothing is deleted that a persisted manifest still names.
func (a *Archive) deleteObject(ctx context.Context, cw codeword) (orphans int) {
	for _, err := range a.cluster.DeleteBatch(ctx, a.rowRefs(cw, allRows(cw.code.N()))) {
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			orphans++
		}
	}
	return orphans
}

// ensureNodes grows the cluster for the placement's needs before a commit.
func (a *Archive) ensureNodes(version int) error {
	return a.cluster.EnsureSize(a.cfg.Placement.NodesRequired(version, a.cfg.N))
}

// restoreCacheLocked rebuilds the latest-version cache from storage after
// the archive was reopened from a manifest. The read verifies the tip:
// every later commit's delta is computed against it.
func (a *Archive) restoreCacheLocked(ctx context.Context) error {
	var stats RetrievalStats
	blocks, _, err := a.retrieveBlocksLocked(ctx, len(a.entries), &stats) // kept: the loan is dropped
	if err != nil {
		return err
	}
	a.cache = blocks
	return nil
}

// setCache makes blocks, which the archive owns, the latest-version cache
// and, with the decoded-version cache on, caches them there as the version
// just committed. They are read-only: a commit's blocks share every
// unchanged block with the version before, as the decoded-version cache's
// do.
func (a *Archive) setCache(version int, blocks [][]byte, length int) {
	a.cache = blocks
	if a.rcache != nil {
		a.rcache.put(version, blocks, length)
	}
}

// castagnoli is the CRC32C table of version digests.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// verify checks the blocks of version v against the CRC32C its commit
// recorded of its length bytes, and the zero padding past them. A wrong row
// that a decode used spreads through every version the walk builds on it,
// and into every delta computed from one - a commit diffs the whole blocks
// of the tip, padding included - so no decoded version leaves core, enters
// a cache or feeds a commit or a compaction unverified. A mismatch is
// store.ErrCorrupt, naming the version. A version whose entry holds no
// digest passes unchecked.
func (a *Archive) verify(v int, blocks [][]byte) error {
	e := &a.entries[v-1]
	if e.crc == nil {
		return nil
	}
	var crc uint32
	rest := e.length
	for _, b := range blocks {
		n := min(rest, len(b))
		crc = crc32.Update(crc, castagnoli, b[:n])
		if !delta.IsZero([][]byte{b[n:]}) {
			return fmt.Errorf("core: version %d decoded with non-zero bytes past its length %d: %w", v, e.length, store.ErrCorrupt)
		}
		rest -= n
	}
	if crc != *e.crc {
		return fmt.Errorf("core: version %d decoded with CRC32C %08x, committed as %08x: %w", v, crc, *e.crc, store.ErrCorrupt)
	}
	return nil
}

// blockLenOf returns the uniform block length of a non-empty block vector
// (codecs validate uniformity; k is always positive).
func blockLenOf(blocks [][]byte) int {
	if len(blocks) == 0 {
		return 0
	}
	return len(blocks[0])
}

func fullID(name string, version int) string {
	return fmt.Sprintf("%s/v%d-full", name, version)
}

func deltaID(name string, version int) string {
	return fmt.Sprintf("%s/v%d-delta", name, version)
}

// rebasedDeltaID names a delta object whose base is not the chain
// predecessor. The base is part of the object name so a compaction that
// rebases a version writes a fresh object: until the manifest swap, the
// old chain remains fully readable, and afterwards the old object is
// garbage-collected by name.
func rebasedDeltaID(name string, version, base int) string {
	return fmt.Sprintf("%s/v%d-delta-b%d", name, version, base)
}

// deltaObjectID returns the stored object name of a version's delta,
// accounting for compaction rebases.
func (a *Archive) deltaObjectID(version int) string {
	if b := a.entries[version-1].base; b != 0 && b != version-1 {
		return rebasedDeltaID(a.cfg.Name, version, b)
	}
	return deltaID(a.cfg.Name, version)
}
