package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/wide"
)

// planItem/planHeap implement the retrieval planner's priority queue:
// versions ordered by (planned cost, delta hops, version number).
type planItem struct{ v, dist, hops int }

type planHeap []planItem

func (h planHeap) Len() int { return len(h) }
func (h planHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].hops != h[j].hops {
		return h[i].hops < h[j].hops
	}
	return h[i].v < h[j].v
}
func (h planHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *planHeap) Push(x any)   { *h = append(*h, x.(planItem)) }
func (h *planHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

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

// readAttempts bounds the re-plan loop when nodes fail between the liveness
// probe and the shard read.
const readAttempts = 3

// entry records what the archive stores for one version.
type entry struct {
	hasFull  bool
	hasDelta bool
	gamma    int // block sparsity of the delta, valid when hasDelta
	length   int // original object length in bytes
	// base is the version the delta is computed against: x_version =
	// x_base + z_version. Zero means the implicit chain predecessor
	// (version-1); compaction rebases deltas onto nearer anchors, recording
	// the anchor here. Valid when hasDelta.
	base int
	// checkpoint marks a full codeword placed (or retained) by the chain
	// lifecycle - an auto-checkpoint commit, a CheckpointEvery retention,
	// or a compaction promotion - rather than by the storage scheme.
	// Reversed SEC never deletes a checkpointed full when the chain tip
	// moves on.
	checkpoint bool
	// compressed marks a delta stored in CDEC-compacted form: the
	// codeword encodes only the gamma non-zero blocks with a
	// (gamma+N-K, gamma) code, and support records which blocks those are
	// (strictly increasing). Valid when hasDelta.
	compressed bool
	support    []int
}

// codec is the erasure-code surface the archive needs; both the GF(2^8)
// backend (erasure.Code, all four constructions) and the GF(2^16) wide
// backend (wide.Code, non-systematic Cauchy with n+k > 256) satisfy it.
// The Into variants encode/decode into caller-provided buffers; the archive
// hot paths pair them with the erasure package's buffer pool so steady-state
// commits, repairs, and scrubs do not allocate shard buffers.
type codec interface {
	N() int
	K() int
	Systematic() bool
	MaxSparseGamma() int
	Encode(blocks [][]byte) ([][]byte, error)
	EncodeInto(blocks, dst [][]byte) error
	DecodeFull(rows []int, shards [][]byte) ([][]byte, error)
	DecodeFullInto(rows []int, shards, dst [][]byte) error
	DecodeSparse(rows []int, shards [][]byte, gamma int) ([][]byte, error)
	SparseReadRows(live []int, gamma int) []int
}

// Archive is a SEC-encoded chain of versions of one object, stored on a
// cluster. It is safe for concurrent use; commits are serialized.
type Archive struct {
	cfg       Config
	code      codec
	deltaCode codec
	blocking  delta.Blocking
	cluster   *store.Cluster

	mu       sync.RWMutex
	entries  []entry
	cache    [][]byte // blocks of the latest version, for delta computation
	cacheLen int      // byte length of the cached version
	// superseded queues delta codewords replaced by compaction whose
	// deletion is deferred (CompactKeepSupersededContext) or failed
	// (orphans on unreachable nodes), drained by reclaimLocked.
	superseded []gcObject

	// ccMu guards ccache, the lazily built CDEC codecs keyed by gamma
	// (k' = gamma, n' = gamma + N - K). Retrievals run concurrently under
	// the archive read lock, so codec construction has its own mutex.
	ccMu   sync.Mutex
	ccache map[int]codec

	// rcache, when non-nil, is the decoded-version read cache
	// (Config.ReadCacheBytes); invalidated whenever the chain changes.
	rcache *versionCache
}

// gcObject names one superseded codeword awaiting garbage collection.
type gcObject struct {
	id      string
	version int
	// code is the codec the object was written with (CDEC-compacted
	// deltas have per-gamma shapes); nil means the archive's delta code.
	code codec
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
	// OrphanShards counts shards of a replaced full version that could
	// not be deleted (their nodes were down); they are garbage, not a
	// correctness problem.
	OrphanShards int
	// ReclaimedShards counts shards of codewords superseded by EARLIER
	// compaction passes that this commit garbage-collected (deferred GC
	// drains one operation later, once the caller has had a chance to
	// persist the post-compaction manifest).
	ReclaimedShards int
	// Compaction reports the auto-compaction this commit triggered (nil
	// when MaxChainLength is unset or no chain exceeded it). Its
	// superseded codewords are queued, not yet deleted: the next commit
	// (or an explicit ReclaimSupersededContext / compaction pass) frees
	// them.
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
	// Hedges is the number of speculative shard reads issued because a
	// node batch outlived Config.HedgeDelay (0 unless hedging is on and
	// a straggler was hedged). Successful hedged reads are already
	// included in Reads.
	Hedges int
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
	// Hedges totals the speculative reads issued against stragglers
	// (see Config.HedgeDelay); 0 whenever hedging is disabled.
	Hedges int
	// CacheHits counts retrievals served wholly from memory - the
	// decoded-version cache (Config.ReadCacheBytes) or the writer-side
	// latest-version cache - with zero node reads. CacheBytes totals the
	// object bytes those hits served.
	CacheHits  int
	CacheBytes int
	// Objects details every object read, in read order.
	Objects []ObjectRead
}

func (s *RetrievalStats) add(o ObjectRead) {
	s.NodeReads += o.Reads
	s.Hedges += o.Hedges
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
	s.Hedges += o.Hedges
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
	code, deltaCode, err := buildCodecs(cfg)
	if err != nil {
		return nil, err
	}
	blocking, err := delta.NewBlocking(cfg.K, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if err := cluster.EnsureSize(cfg.Placement.NodesRequired(1, cfg.N)); err != nil {
		return nil, err
	}
	a := &Archive{
		cfg:       cfg,
		code:      code,
		deltaCode: deltaCode,
		blocking:  blocking,
		cluster:   cluster,
	}
	if cfg.ReadCacheBytes > 0 {
		a.rcache = newVersionCache(cfg.ReadCacheBytes)
	}
	return a, nil
}

// compressGammaMax is the largest gamma the archive stores compressed
// (Config.CompressGammaMax, defaulting to K-1).
func (a *Archive) compressGammaMax() int {
	if a.cfg.CompressGammaMax > 0 {
		return a.cfg.CompressGammaMax
	}
	return a.cfg.K - 1
}

// compressEligible reports whether a delta of the given sparsity should be
// stored in CDEC-compacted form.
func (a *Archive) compressEligible(gamma int) bool {
	return a.cfg.CompressDeltas && gamma >= 1 && gamma <= a.compressGammaMax()
}

// compressedCode returns the (gamma+N-K, gamma) codec for CDEC-compacted
// deltas of the given sparsity, building and caching it on first use. The
// parity count matches the archive's code, so compressed codewords tolerate
// the same N-K node failures.
func (a *Archive) compressedCode(gamma int) (codec, error) {
	if gamma < 1 || gamma > a.cfg.K-1 {
		return nil, fmt.Errorf("core: no compressed code for gamma %d (k=%d)", gamma, a.cfg.K)
	}
	a.ccMu.Lock()
	defer a.ccMu.Unlock()
	if c, ok := a.ccache[gamma]; ok {
		return c, nil
	}
	n := gamma + a.cfg.N - a.cfg.K
	var (
		c   codec
		err error
	)
	if a.cfg.Field == GF16 {
		c, err = wide.NewCauchy(n, gamma)
	} else {
		c, err = erasure.New(a.cfg.Code, n, gamma)
	}
	if err != nil {
		return nil, fmt.Errorf("core: building compressed (%d,%d) code: %w", n, gamma, err)
	}
	if a.ccache == nil {
		a.ccache = make(map[int]codec)
	}
	a.ccache[gamma] = c
	return c, nil
}

// entryDeltaCode returns the codec a version's stored delta codeword uses:
// the per-gamma compressed code for CDEC entries, the archive's delta code
// otherwise.
func (a *Archive) entryDeltaCode(e entry) (codec, error) {
	if !e.compressed {
		return a.deltaCode, nil
	}
	return a.compressedCode(e.gamma)
}

// invalidateReadCache clears the decoded-version cache (no-op when the
// cache is disabled). Called by every operation that changes what the
// chain stores.
func (a *Archive) invalidateReadCache() {
	if a.rcache != nil {
		a.rcache.invalidate()
	}
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
// paper's fixed-size object model.
func (a *Archive) CommitContext(ctx context.Context, object []byte) (CommitInfo, error) {
	//lint:allow lockheld single-writer archive lock serializes all cluster I/O by design (DESIGN.md section 4)
	a.mu.Lock()
	defer a.mu.Unlock()

	// Codewords superseded by earlier compaction passes have outlived
	// their grace period (the caller has had a full operation in which to
	// persist the post-compaction manifest), so reclaim them first.
	reclaimed := 0
	if len(a.superseded) > 0 {
		reclaimed, _ = a.reclaimLocked(ctx)
	}
	blocks, err := a.blocking.Split(object)
	if err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	version := len(a.entries) + 1
	if err := a.ensureNodes(version); err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	if version == 1 {
		info := CommitInfo{Version: 1, StoredFull: true, ReclaimedShards: reclaimed}
		if err := a.writeObject(ctx, a.code, fullID(a.cfg.Name, 1), 1, blocks, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		a.entries = append(a.entries, entry{hasFull: true, length: len(object)})
		a.invalidateReadCache()
		a.setCache(blocks, len(object))
		return info, nil
	}

	if a.cache == nil {
		if err := a.restoreCacheLocked(ctx); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, fmt.Errorf("core: restoring latest-version cache: %w", err)
		}
	}
	d, err := delta.Compute(a.cache, blocks)
	if err != nil {
		return CommitInfo{ReclaimedShards: reclaimed}, err
	}
	gamma := delta.Sparsity(d)
	info := CommitInfo{Version: version, Gamma: gamma, ReclaimedShards: reclaimed}

	storeDelta, storeFull := a.commitPlan(gamma)
	// Auto-checkpoint: when CheckpointEvery is set and the new version
	// would land CheckpointEvery or more versions past the last stored
	// full codeword, store a full codeword alongside the delta so no chain
	// grows unboundedly deep (Reversed SEC checkpoints at deletion time
	// below instead, since it stores a full every commit).
	if !storeFull && a.cfg.CheckpointEvery > 0 && version-a.lastFullBelow(version) >= a.cfg.CheckpointEvery {
		storeFull = true
		info.Checkpoint = true
	}
	var support []int
	if storeDelta {
		if a.compressEligible(gamma) {
			// CDEC path: encode only the gamma non-zero blocks with the
			// (gamma+N-K, gamma) code. The support travels in the manifest
			// entry; the object ID is the same as an uncompressed delta's.
			cd, err := delta.Compact(d)
			if err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			ccode, err := a.compressedCode(gamma)
			if err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			if err := a.writeObject(ctx, ccode, deltaID(a.cfg.Name, version), version, cd.Blocks, &info.ShardWrites); err != nil {
				return CommitInfo{ReclaimedShards: reclaimed}, err
			}
			info.Compressed = true
			support = cd.Support
		} else if err := a.writeObject(ctx, a.deltaCode, deltaID(a.cfg.Name, version), version, d, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		info.StoredDelta = true
	}
	if storeFull {
		if err := a.writeObject(ctx, a.code, fullID(a.cfg.Name, version), version, blocks, &info.ShardWrites); err != nil {
			return CommitInfo{ReclaimedShards: reclaimed}, err
		}
		info.StoredFull = true
	}
	a.entries = append(a.entries, entry{
		hasFull:    storeFull,
		hasDelta:   storeDelta,
		gamma:      gamma,
		length:     len(object),
		checkpoint: info.Checkpoint,
		compressed: info.Compressed,
		support:    support,
	})
	a.invalidateReadCache()
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
			}
			if !keep {
				info.OrphanShards = a.deleteObject(ctx, a.code, fullID(a.cfg.Name, prev), prev)
				pe.hasFull = false
			}
		}
	}
	a.setCache(blocks, len(object))
	if a.cfg.MaxChainLength > 0 {
		if depths, _, err := a.chainDepths(); err == nil && maxDepth(depths) > a.cfg.MaxChainLength {
			// Superseded codewords are kept (queued) rather than deleted:
			// the caller has not persisted the post-compaction manifest
			// yet, so deleting now could strand a crash-recovered manifest.
			// ReclaimSupersededContext (or the next compaction pass) frees
			// them once the caller has saved.
			ci, err := a.compactLocked(ctx, a.cfg.MaxChainLength, true)
			if err != nil {
				// The commit itself is durable and the chain is intact; only
				// the maintenance pass failed. Surface it without undoing
				// the commit - the caller can retry CompactContext.
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
// deadline and cancellation, returning its bytes and the read accounting.
// The context bounds the whole retrieval end to end: a chain walk against
// a stalled node returns once the context expires instead of waiting out
// per-operation timeouts link by link.
func (a *Archive) RetrieveContext(ctx context.Context, l int) ([]byte, RetrievalStats, error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	var stats RetrievalStats
	if a.rcache != nil && l >= 1 && l <= len(a.entries) {
		if blocks, length, ok := a.rcache.get(l); ok {
			object, err := a.blocking.Join(blocks, length)
			if err == nil {
				stats.CacheHits++
				stats.CacheBytes += len(object)
				return object, stats, nil
			}
			a.rcache.remove(l) // unjoinable entry: stale or damaged, drop it
		}
	}
	blocks, err := a.retrieveBlocksLocked(ctx, l, &stats)
	if err != nil {
		return nil, stats, err
	}
	object, err := a.blocking.Join(blocks, a.entries[l-1].length)
	if err != nil {
		return nil, stats, err
	}
	return object, stats, nil
}

// LatestContext reconstructs the most recent version. When the writer-side
// latest-version cache is in hand (the archive committed or restored it
// this process), the read is served from memory with zero node reads and
// reported as a cache hit; otherwise it falls back to a stored retrieval.
func (a *Archive) LatestContext(ctx context.Context) ([]byte, RetrievalStats, error) {
	if object, ok := a.CachedLatest(); ok {
		return object, RetrievalStats{CacheHits: 1, CacheBytes: len(object)}, nil
	}
	return a.RetrieveContext(ctx, a.Versions())
}

// CachedLatest returns the in-memory copy of the latest version, if the
// archive has one (the cache the paper suggests keeping for delta
// computation). No node reads are performed.
func (a *Archive) CachedLatest() ([]byte, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.cache == nil {
		return nil, false
	}
	object, err := a.blocking.Join(a.cache, a.cacheLen)
	if err != nil {
		return nil, false
	}
	return object, true
}

// RetrieveAllContext reconstructs versions 1..l in order (the whole-
// archive read of formula (4) when l = L), under the context's deadline
// and cancellation.
func (a *Archive) RetrieveAllContext(ctx context.Context, l int) ([][]byte, RetrievalStats, error) {
	//lint:allow lockheld archive read lock held across retrieval by design; writers are rare and reads are concurrent under RLock
	a.mu.RLock()
	defer a.mu.RUnlock()
	var stats RetrievalStats
	if l < 1 || l > len(a.entries) {
		return nil, stats, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	plan, err := a.planChain(1)
	if err != nil {
		return nil, stats, err
	}
	// A backward walk to version 1 (Reversed SEC) materializes every
	// intermediate version for free; keep them instead of re-reading.
	materialized, err := a.materializeChain(ctx, plan, &stats)
	if err != nil {
		return nil, stats, err
	}
	for j := 2; j <= l; j++ {
		if materialized[j] != nil {
			continue
		}
		e := a.entries[j-1]
		base := a.baseOf(j)
		switch {
		case e.hasDelta && materialized[base] != nil:
			d, read, err := a.readDelta(ctx, j, nil)
			if err != nil {
				return nil, stats, err
			}
			stats.add(read)
			next, err := delta.Apply(materialized[base], d)
			if err != nil {
				return nil, stats, err
			}
			materialized[j] = next
		case e.hasFull:
			blocks, read, err := a.readFull(ctx, j, nil)
			if err != nil {
				return nil, stats, err
			}
			stats.add(read)
			materialized[j] = blocks
		case e.hasDelta:
			// The delta's base is not in hand (a compaction rebase onto a
			// later anchor): walk the version's own chain plan, keeping
			// every version it materializes on the way.
			plan, err := a.planChain(j)
			if err != nil {
				return nil, stats, err
			}
			walked, err := a.materializeChain(ctx, plan, &stats)
			if err != nil {
				return nil, stats, err
			}
			for v, blocks := range walked {
				if materialized[v] == nil {
					materialized[v] = blocks
				}
			}
		default:
			return nil, stats, fmt.Errorf("core: version %d has neither delta nor full object", j)
		}
	}
	out := make([][]byte, l)
	for j := 1; j <= l; j++ {
		object, err := a.blocking.Join(materialized[j], a.entries[j-1].length)
		if err != nil {
			return nil, stats, err
		}
		out[j-1] = object
	}
	return out, stats, nil
}

// retrieveBlocksLocked reconstructs the blocks of version l, adding reads
// to stats. Caller holds at least a read lock.
func (a *Archive) retrieveBlocksLocked(ctx context.Context, l int, stats *RetrievalStats) ([][]byte, error) {
	plan, err := a.planChain(l)
	if err != nil {
		return nil, err
	}
	materialized, err := a.materializeChain(ctx, plan, stats)
	if err != nil {
		return nil, err
	}
	blocks, ok := materialized[l]
	if !ok {
		return nil, fmt.Errorf("core: chain walk did not reach version %d", l)
	}
	return blocks, nil
}

// materializeChain executes a chain plan, returning every version the walk
// passes through (keyed by version number). XOR deltas are self-inverse, so
// the same Apply advances forward chains and rewinds backward ones. All
// shard reads of the chain are prefetched up front as one batch per node;
// the per-object readers consume the prefetched rows and fetch more only
// where the prefetch fell short.
func (a *Archive) materializeChain(ctx context.Context, plan chainPlan, stats *RetrievalStats) (map[int][][]byte, error) {
	sets := a.prefetchChain(ctx, plan)
	current, read, err := a.readFull(ctx, plan.anchor, sets[fullID(a.cfg.Name, plan.anchor)])
	if err != nil {
		return nil, err
	}
	stats.add(read)
	ver := plan.anchor
	materialized := map[int][][]byte{ver: current}
	for _, j := range plan.deltas {
		d, read, err := a.readDelta(ctx, j, sets[a.deltaObjectID(j)])
		if err != nil {
			return nil, err
		}
		stats.add(read)
		current, err = delta.Apply(current, d)
		if err != nil {
			return nil, err
		}
		switch b := a.baseOf(j); ver {
		case b:
			ver = j // forward: applying z_j to x_base yields x_j
		case j:
			ver = b // backward: applying z_j to x_j yields x_base
		default:
			return nil, fmt.Errorf("core: chain plan applies delta %d at version %d", j, ver)
		}
		materialized[ver] = current
	}
	if a.rcache != nil {
		// Keep every version the walk decoded: the requested version and
		// all chain prefixes on the way. Cached blocks are shared
		// read-only; decodes and delta application always fresh-allocate.
		for v, blocks := range materialized {
			a.rcache.put(v, blocks, a.entries[v-1].length)
		}
	}
	return materialized, nil
}

// chainPlan describes how to reach a version from a fully stored anchor.
type chainPlan struct {
	anchor int   // version read in full
	deltas []int // versions whose deltas are applied, in order
	cost   int   // planned node reads (formula (3))
	hops   int   // number of delta applications (the chain depth)
}

// planChain finds the cheapest way to materialize version l. Deltas form a
// graph over versions - each stored delta z_j connects its base to j, and
// XOR deltas are self-inverse, so every edge works in both directions
// (forward: x_base + z_j = x_j; backward: x_j + z_j = x_base). On an
// uncompacted chain (every base the chain predecessor) this reduces to the
// paper's two candidates: forward from the nearest full version at or
// before l, or backward from the nearest full version at or after l
// (Reversed SEC). Compaction rebases deltas onto distant anchors, turning
// the chain into a tree; the planner runs a small Dijkstra pass so those
// shortcut edges are used whenever they are cheaper. Ties prefer fewer
// delta applications (and then the smaller version) so plans are
// deterministic.
func (a *Archive) planChain(l int) (chainPlan, error) {
	if l < 1 || l > len(a.entries) {
		return chainPlan{}, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	dist, hops, via, prev, err := a.planAll(l)
	if err != nil {
		return chainPlan{}, err
	}
	if dist[l] == unreachedCost {
		return chainPlan{}, fmt.Errorf("core: version %d unreachable from any full version", l)
	}
	plan := chainPlan{cost: dist[l], hops: hops[l]}
	deltas := make([]int, 0, hops[l])
	v := l
	for via[v] != 0 {
		deltas = append(deltas, via[v])
		v = prev[v]
	}
	plan.anchor = v
	for i, j := 0, len(deltas)-1; i < j; i, j = i+1, j-1 {
		deltas[i], deltas[j] = deltas[j], deltas[i]
	}
	plan.deltas = deltas
	return plan, nil
}

// unreachedCost marks versions the planner could not reach.
const unreachedCost = int(^uint(0) >> 1)

// planAll runs the planner's Dijkstra pass over the whole version graph,
// returning per-version cost, hop count, the delta applied to reach each
// version, and the path predecessor. With target > 0 the pass stops once
// that version settles; target 0 prices every version (one pass instead
// of one per version, for whole-archive summaries).
func (a *Archive) planAll(target int) (dist, hops, via, prev []int, err error) {
	L := len(a.entries)
	type edge struct {
		to, via, w int // neighbor version, delta version applied, read cost
	}
	adj := make([][]edge, L+1)
	for j := 1; j <= L; j++ {
		e := a.entries[j-1]
		if !e.hasDelta {
			continue
		}
		b := a.baseOf(j)
		if b < 1 || b > L || b == j {
			return nil, nil, nil, nil, fmt.Errorf("core: version %d has invalid delta base %d", j, b)
		}
		w := a.plannedEntryReads(e)
		adj[b] = append(adj[b], edge{to: j, via: j, w: w})
		adj[j] = append(adj[j], edge{to: b, via: j, w: w})
	}
	dist = make([]int, L+1)
	hops = make([]int, L+1)
	via = make([]int, L+1)  // delta applied to reach the version (0 at anchors)
	prev = make([]int, L+1) // predecessor version on the best path
	done := make([]bool, L+1)
	for v := 1; v <= L; v++ {
		dist[v] = unreachedCost
	}
	// Lazy-deletion Dijkstra off a heap keyed (cost, hops, version), so a
	// retrieval plans in O(E log L) even on very long archives; stale heap
	// entries are skipped on pop. Anchors enter in ascending version order,
	// so equal-cost ties settle toward forward plans, matching the original
	// nearest-anchor planner.
	h := make(planHeap, 0, L)
	for v := 1; v <= L; v++ {
		if a.entries[v-1].hasFull {
			dist[v] = a.cfg.K
			hops[v] = 0
			h = append(h, planItem{v: v, dist: a.cfg.K})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 && (target == 0 || !done[target]) {
		it := heap.Pop(&h).(planItem)
		u := it.v
		if done[u] || it.dist != dist[u] || it.hops != hops[u] {
			continue // stale entry superseded by a later relaxation
		}
		done[u] = true
		for _, e := range adj[u] {
			nd, nh := dist[u]+e.w, hops[u]+1
			if nd < dist[e.to] || (nd == dist[e.to] && nh < hops[e.to]) {
				dist[e.to], hops[e.to] = nd, nh
				via[e.to], prev[e.to] = e.via, u
				heap.Push(&h, planItem{v: e.to, dist: nd, hops: nh})
			}
		}
	}
	return dist, hops, via, prev, nil
}

// plannedDeltaReads is the paper's eta_j, delegated to the delta package's
// shared cost model so the retrieval planner and the lifecycle planners
// can never drift apart.
func (a *Archive) plannedDeltaReads(gamma int) int {
	return delta.ReadCost(gamma, a.cfg.K, a.deltaCode.MaxSparseGamma())
}

// plannedEntryReads prices one stored delta for the planner, respecting its
// stored form: CDEC-compacted deltas decode from gamma reads, plain deltas
// from min(2*gamma, K) (sparse) or K (full).
func (a *Archive) plannedEntryReads(e entry) int {
	if e.compressed {
		return delta.CompressedReadCost(e.gamma)
	}
	return a.plannedDeltaReads(e.gamma)
}

// PlannedReads returns the number of node reads formula (3) predicts for
// retrieving version l, assuming every node is live.
func (a *Archive) PlannedReads(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	plan, err := a.planChain(l)
	if err != nil {
		return 0, err
	}
	return plan.cost, nil
}

// PlannedReadsAll returns the number of node reads formula (4) predicts for
// retrieving versions 1..l, assuming every node is live.
func (a *Archive) PlannedReadsAll(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if l < 1 || l > len(a.entries) {
		return 0, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	plan, err := a.planChain(1)
	if err != nil {
		return 0, err
	}
	total := plan.cost
	covered := a.materializedVersions(plan)
	for j := 2; j <= l; j++ {
		if covered[j] {
			continue
		}
		e := a.entries[j-1]
		switch {
		case e.hasDelta && covered[a.baseOf(j)]:
			total += a.plannedEntryReads(e)
			covered[j] = true
		case e.hasFull:
			total += a.cfg.K
			covered[j] = true
		case e.hasDelta:
			// The delta's base is not on the walk (a compaction rebase onto
			// a later anchor): the version costs its own chain plan, which
			// materializes the base and anchor as side effects.
			plan, err := a.planChain(j)
			if err != nil {
				return 0, err
			}
			total += plan.cost
			for v := range a.materializedVersions(plan) {
				covered[v] = true
			}
		default:
			return 0, fmt.Errorf("core: version %d has neither delta nor full object", j)
		}
	}
	return total, nil
}

// materializedVersions returns the set of versions a chain walk passes
// through.
func (a *Archive) materializedVersions(p chainPlan) map[int]bool {
	covered := map[int]bool{p.anchor: true}
	ver := p.anchor
	for _, j := range p.deltas {
		if b := a.baseOf(j); ver == b {
			ver = j
		} else {
			ver = b
		}
		covered[ver] = true
	}
	return covered
}

// shardSet accumulates fetched shard rows across re-plan attempts, so a
// partial failure re-fetches only the rows that are actually missing
// instead of discarding everything already in hand.
type shardSet struct {
	data map[int][]byte // fetched shard contents by row
	dead map[int]bool   // rows whose fetch failed (skip in later plans)
	// reads counts successful node reads performed so far, the ObjectRead
	// accounting (every fetched shard is eventually used or was needed by
	// a plan at the time, so all of them are real retrieval I/O).
	reads int
	// sparseRows records the sparse read plan the chain prefetcher chose
	// for a delta, so readDelta can decode straight from the prefetched
	// rows without re-probing liveness.
	sparseRows []int
	// hedges counts the speculative reads issued for this object because
	// a node batch outlived the hedge delay.
	hedges int
	// err records the last per-row error of any fetch into the set, so a
	// reader that must abort (cancelled context) or give up can surface
	// the failure with its full node/shard provenance instead of a bare
	// ctx error.
	err error
}

func newShardSet() *shardSet {
	return &shardSet{data: make(map[int][]byte), dead: make(map[int]bool)}
}

// record files one fetched row of object id into the set: its data and the
// read it cost, or - when the fetch failed - its death (if the row is lost
// for good) and the error, which names the node and shard.
func (s *shardSet) record(id string, row int, res store.ShardResult) {
	if res.Err != nil {
		if rowLost(res.Err) {
			s.dead[row] = true
		}
		s.err = fmt.Errorf("core: reading %s#%d: %w", id, row, res.Err)
		return
	}
	if _, ok := s.data[row]; !ok {
		s.data[row] = res.Data
		s.reads++
	}
}

// rowLost reports whether a per-row read error is permanent for this
// retrieval: the shard itself is missing or corrupt, so retrying the row
// is pointless. Transient trouble (node down, transport errors) is NOT
// marked dead - the next attempt's liveness probe excludes the node if it
// is really gone and retries the row if it recovered, matching the
// pre-batching re-plan behavior.
func rowLost(err error) bool {
	return errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrCorrupt)
}

// missing returns the subset of rows not yet fetched.
func (s *shardSet) missing(rows []int) []int {
	var missing []int
	for _, r := range rows {
		if _, ok := s.data[r]; !ok {
			missing = append(missing, r)
		}
	}
	return missing
}

// take returns up to k fetched rows (sorted) and their shards.
func (s *shardSet) take(k int) ([]int, [][]byte) {
	rows := make([]int, 0, len(s.data))
	for r := range s.data {
		rows = append(rows, r)
	}
	slices.Sort(rows)
	if len(rows) > k {
		rows = rows[:k]
	}
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		shards[i] = s.data[r]
	}
	return rows, shards
}

// select returns the shards for an exact row plan; ok is false unless every
// row has been fetched.
func (s *shardSet) selectRows(rows []int) ([][]byte, bool) {
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		data, ok := s.data[r]
		if !ok {
			return nil, false
		}
		shards[i] = data
	}
	return shards, true
}

// prefetchChain plans every shard read of a chain walk up front and
// issues one batch per node covering all objects in the chain: node
// liveness is probed concurrently (once per node, not once per row per
// object), each object's read rows are chosen against that snapshot, and
// a single cluster batch fetches everything. The result is one get RPC
// per node for the whole retrieval in the healthy case. Prefetching is
// purely a wire optimization: rows that fail are marked dead in their
// object's shard set and the per-object readers top up or re-plan exactly
// as they would have fetched in the first place, so read counts are
// unchanged.
func (a *Archive) prefetchChain(ctx context.Context, plan chainPlan) map[string]*shardSet {
	// The codewords the walk reads: the anchor in full, then every delta
	// that is not identically zero.
	type object struct {
		code        codec
		id          string
		version     int
		sparseGamma int
		rows        []int // what the object's reader fetches first
	}
	objects := []object{{code: a.code, id: fullID(a.cfg.Name, plan.anchor), version: plan.anchor}}
	for _, j := range plan.deltas {
		e := a.entries[j-1]
		if e.gamma == 0 {
			continue
		}
		code, err := a.entryDeltaCode(e)
		if err != nil {
			continue // the reader surfaces the error
		}
		objects = append(objects, object{code: code, id: a.deltaObjectID(j), version: j, sparseGamma: sparseGamma(e)})
	}
	// Probe each distinct placement node once, concurrently.
	var nodes []int
	seen := make(map[int]bool)
	for _, o := range objects {
		for row := 0; row < o.code.N(); row++ {
			nd := a.cfg.Placement.NodeFor(o.version-1, row)
			if !seen[nd] {
				seen[nd] = true
				nodes = append(nodes, nd)
			}
		}
	}
	avail := make([]bool, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i, nd int) {
			defer wg.Done()
			avail[i] = a.cluster.Available(ctx, nd)
		}(i, nd)
	}
	wg.Wait()
	up := make(map[int]bool, len(nodes))
	for i, nd := range nodes {
		up[nd] = avail[i]
	}
	// Choose the rows each object's reader would read. Objects whose live
	// set is too small are skipped here; their reader reports the proper
	// error (or catches a node that came back since the probe).
	plans := objects[:0]
	sets := make(map[string]*shardSet, len(objects))
	var refs []store.ShardRef
	for _, o := range objects {
		live := make([]int, 0, o.code.N())
		for row := 0; row < o.code.N(); row++ {
			if up[a.cfg.Placement.NodeFor(o.version-1, row)] {
				live = append(live, row)
			}
		}
		rows, sparse := readPlan(o.code, live, o.sparseGamma, o.code.K())
		if rows == nil {
			continue
		}
		o.rows = rows
		plans = append(plans, o)
		set := newShardSet()
		if sparse {
			set.sparseRows = rows
		}
		sets[o.id] = set
		for _, row := range rows {
			refs = append(refs, store.ShardRef{
				Node: a.cfg.Placement.NodeFor(o.version-1, row),
				ID:   store.ShardID{Object: o.id, Row: row},
			})
		}
	}
	if len(plans) == 0 {
		return nil
	}
	sink := func(ref store.ShardRef, res store.ShardResult) {
		sets[ref.ID.Object].record(ref.ID.Object, ref.ID.Row, res)
	}
	if a.cfg.HedgeDelay == 0 {
		for i, res := range a.cluster.GetBatch(ctx, refs) {
			sink(refs[i], res)
		}
		return sets
	}
	// Hedged prefetch: each node's batch lands independently; a straggler
	// past the hedge delay triggers speculative fetches of spare parity
	// rows for every not-yet-satisfied object, and the prefetch returns
	// the moment each object can decode (its planned rows arrived, or any
	// K rows are in hand - readers decode full from K even when the
	// sparse plan was hedged away).
	satisfied := func(p object) bool {
		s := sets[p.id]
		if len(s.data) >= p.code.K() {
			return true
		}
		_, ok := s.selectRows(p.rows)
		return ok
	}
	spare := func(straggling map[int]bool) []store.ShardRef {
		var extra []store.ShardRef
		for _, p := range plans {
			if satisfied(p) {
				continue
			}
			s := sets[p.id]
			extra = a.spareRefs(extra, s, p.id, p.version, rowsExcluding(allRows(p.code.N()), p.rows), p.code.K()-len(s.data),
				func(node int) bool { return straggling[node] || !up[node] })
		}
		return extra
	}
	enough := func() bool {
		for _, p := range plans {
			if !satisfied(p) {
				return false
			}
		}
		return true
	}
	a.hedgedRead(ctx, refs, spare, enough, sink)
	return sets
}

// sparseGamma is the sparsity a reader of the entry's delta may exploit
// with a sparse read plan: the entry's gamma for a plain delta, 0 for a
// CDEC-compacted one (gamma rows of its own code are already the floor).
func sparseGamma(e entry) int {
	if e.compressed {
		return 0
	}
	return e.gamma
}

// readPlan is the one answer to "which rows does a reader of this stored
// codeword fetch first". candidates are the rows it may read, ascending (so
// a systematic code's identity rows, which decode by plain copy, come
// first); need is how many more rows a full decode lacks; sparseGamma is
// the delta sparsity a sparse plan may exploit (0: none). The answer is the
// code's sparse read plan when the candidates hold one (sparse true), else
// the first need candidates, else nil: too few rows are live. The chain
// prefetcher and the per-object readers both ask here, which is what keeps
// prefetching a pure wire optimization.
func readPlan(code codec, candidates []int, sparseGamma, need int) (rows []int, sparse bool) {
	if rows := code.SparseReadRows(candidates, sparseGamma); rows != nil {
		return rows, true
	}
	if len(candidates) < need {
		return nil, false
	}
	return candidates[:need], false
}

// readAnyK owns the full read of one stored codeword: top the set up to any
// K rows of the code from live nodes, one batch per node, and decode. Rows
// that fail are marked dead and only the deficit is re-fetched against the
// re-probed live set on the next attempt. The set carries the rows already
// in hand - prefetched by the chain planner, or fetched by a sparse attempt
// that could not complete - and they count toward the K. A done context
// aborts the loop immediately: cancellation is not a node failure, so no
// further liveness probing or re-planning is worth doing.
func (a *Archive) readAnyK(ctx context.Context, code codec, id string, version int, set *shardSet) ([][]byte, error) {
	k := code.K()
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, set.err); err != nil {
			return nil, err
		}
		if len(set.data) < k {
			candidates := set.missing(a.liveRows(ctx, code, version, set.dead))
			rows, _ := readPlan(code, candidates, 0, k-len(set.data))
			if rows == nil {
				if err := chainAbort(ctx, set.err); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: %d of %d shards of %s", ErrUnavailable, len(set.data)+len(candidates), k, id)
			}
			a.fetchPlanned(ctx, set, id, version, rows, candidates[len(rows):],
				func() bool { return len(set.data) >= k })
		}
		if len(set.data) >= k {
			rows, shards := set.take(k)
			return code.DecodeFull(rows, shards)
		}
	}
	return nil, set.err
}

// readFull reads and decodes a fully stored version. A non-nil set carries
// rows already prefetched by the chain planner.
func (a *Archive) readFull(ctx context.Context, version int, set *shardSet) ([][]byte, ObjectRead, error) {
	if set == nil {
		set = newShardSet()
	}
	blocks, err := a.readAnyK(ctx, a.code, fullID(a.cfg.Name, version), version, set)
	if err != nil {
		return nil, ObjectRead{}, err
	}
	return blocks, ObjectRead{Version: version, Reads: set.reads, Hedges: set.hedges}, nil
}

// chainAbort decides whether a retrieval loop should stop because its
// context is done (or its deadline has passed, even if the context timer
// has not fired yet - the wire deadlines are copied from it, so further
// reads are pointless). It prefers the last per-row error when that error
// already carries the cancellation (it names the node and shard, so
// errors.As finds the full provenance), falling back to a plain wrap of
// the context's cause.
func chainAbort(ctx context.Context, lastErr error) error {
	cause := ctx.Err()
	if cause == nil {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			cause = context.DeadlineExceeded
		} else {
			return nil
		}
	}
	if lastErr != nil && errors.Is(lastErr, cause) {
		return lastErr
	}
	return fmt.Errorf("core: retrieval aborted: %w", cause)
}

// readDelta reads and decodes the delta of a version, using a sparse read
// when the code admits one from the live shards. Shards fetched by a
// sparse attempt that could not complete are kept and count toward the
// full read it falls back to. A non-nil set carries rows already
// prefetched by the chain planner (and, for sparse plans, which rows they
// are), so the healthy path decodes without any further cluster traffic.
func (a *Archive) readDelta(ctx context.Context, version int, set *shardSet) ([][]byte, ObjectRead, error) {
	e := a.entries[version-1]
	if e.compressed {
		return a.readCompressedDelta(ctx, version, e, set)
	}
	gamma := e.gamma
	if gamma == 0 {
		// Nothing changed: the delta is identically zero, no reads
		// needed.
		zero := make([][]byte, a.cfg.K)
		for i := range zero {
			zero[i] = make([]byte, a.cfg.BlockSize)
		}
		return zero, ObjectRead{Version: version, Delta: true}, nil
	}
	id := a.deltaObjectID(version)
	k := a.cfg.K
	if set == nil {
		set = newShardSet()
	}
	result := func(blocks [][]byte, sparse bool) ([][]byte, ObjectRead, error) {
		return blocks, ObjectRead{Version: version, Delta: true, Gamma: gamma, Reads: set.reads, Sparse: sparse, Hedges: set.hedges}, nil
	}
	// A delta too dense for any sparse plan goes straight to the full
	// read, with no liveness probe spent on planning one. So does one whose
	// sparse decode fails (e.g. stale manifest gamma), reusing the fetched
	// shards.
	trySparse := gamma <= a.deltaCode.MaxSparseGamma()
	if planned := set.sparseRows; planned != nil {
		set.sparseRows = nil
		if shards, ok := set.selectRows(planned); ok {
			if blocks, err := a.deltaCode.DecodeSparse(planned, shards, gamma); err == nil {
				return result(blocks, true)
			}
			trySparse = false
		}
	}
	for attempt := 0; trySparse && attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, set.err); err != nil {
			return nil, ObjectRead{}, err
		}
		live := a.liveRows(ctx, a.deltaCode, version, set.dead)
		rows, sparse := readPlan(a.deltaCode, live, gamma, k)
		if !sparse {
			break
		}
		sparseDone := func() bool { _, ok := set.selectRows(rows); return ok }
		a.fetchPlanned(ctx, set, id, version, set.missing(rows), set.missing(rowsExcluding(live, rows)),
			func() bool { return sparseDone() || len(set.data) >= k })
		if shards, ok := set.selectRows(rows); ok {
			if blocks, err := a.deltaCode.DecodeSparse(rows, shards, gamma); err == nil {
				return result(blocks, true)
			}
			trySparse = false
		} else if set.hedges > 0 && len(set.data) >= k {
			// Hedged spares assembled a full decode's worth before the
			// sparse plan completed; stop chasing the straggler for its
			// sparse rows and decode full.
			trySparse = false
		}
		// Otherwise some sparse rows are gone: re-plan against the
		// shrunken live set, keeping what arrived.
	}
	blocks, err := a.readAnyK(ctx, a.deltaCode, id, version, set)
	if err != nil {
		return nil, ObjectRead{}, err
	}
	return result(blocks, false)
}

// readCompressedDelta reads a CDEC-compacted delta codeword: any gamma of
// its gamma+N-K shards decode the non-zero blocks, which the entry's
// support expands back to the full K-block delta vector. There is no
// separate sparse plan - gamma reads IS the floor, below both the sparse
// read (2*gamma) and the full read (K) of uncompressed deltas.
func (a *Archive) readCompressedDelta(ctx context.Context, version int, e entry, set *shardSet) ([][]byte, ObjectRead, error) {
	code, err := a.compressedCode(e.gamma)
	if err != nil {
		return nil, ObjectRead{}, err
	}
	if set == nil {
		set = newShardSet()
	}
	nz, err := a.readAnyK(ctx, code, a.deltaObjectID(version), version, set)
	if err != nil {
		return nil, ObjectRead{}, err
	}
	cd := delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Support: e.support, Blocks: nz}
	blocks, err := cd.Expand()
	if err != nil {
		return nil, ObjectRead{}, fmt.Errorf("core: expanding compressed delta of version %d: %w", version, err)
	}
	return blocks, ObjectRead{Version: version, Delta: true, Gamma: e.gamma, Reads: set.reads, Compressed: true, Hedges: set.hedges}, nil
}

// allRows lists the shard rows 0..n-1 of a codeword.
func allRows(n int) []int {
	rows := make([]int, n)
	for row := range rows {
		rows[row] = row
	}
	return rows
}

// rowRefs maps shard rows of an object to their placement nodes.
func (a *Archive) rowRefs(id string, version int, rows []int) []store.ShardRef {
	refs := make([]store.ShardRef, len(rows))
	for i, row := range rows {
		refs[i] = store.ShardRef{
			Node: a.cfg.Placement.NodeFor(version-1, row),
			ID:   store.ShardID{Object: id, Row: row},
		}
	}
	return refs
}

// readRows fetches the given shard rows of an object, grouped into one
// batch per placement node. Results are aligned with rows; each row fails
// or succeeds independently.
func (a *Archive) readRows(ctx context.Context, id string, version int, rows []int) []store.ShardResult {
	return a.cluster.GetBatch(ctx, a.rowRefs(id, version, rows))
}

// writeRows stores data[i] under row rows[i] of an object, grouped into
// one batch per placement node. The returned errors are aligned with rows.
func (a *Archive) writeRows(ctx context.Context, id string, version int, rows []int, data [][]byte) []error {
	return a.cluster.PutBatch(ctx, a.rowRefs(id, version, rows), data)
}

// liveRows returns the shard rows of an object whose nodes are available,
// skipping rows already known dead this retrieval.
func (a *Archive) liveRows(ctx context.Context, code codec, version int, dead map[int]bool) []int {
	rows := make([]int, 0, code.N())
	for row := 0; row < code.N(); row++ {
		if dead[row] {
			continue
		}
		if a.cluster.Available(ctx, a.cfg.Placement.NodeFor(version-1, row)) {
			rows = append(rows, row)
		}
	}
	return rows
}

// writeObject encodes blocks with the given code and stores every shard,
// one batch per node. Shard buffers are pooled: the encode allocates
// nothing in steady state (cluster nodes copy shard contents on Put).
// Every shard is attempted even when one fails, so a commit interrupted by
// one dead node leaves as few holes as possible; the first failure is
// returned.
func (a *Archive) writeObject(ctx context.Context, code codec, id string, version int, blocks [][]byte, writes *int) error {
	bufs := erasure.GetBuffers(code.N(), blockLenOf(blocks))
	defer bufs.Release()
	if err := code.EncodeInto(blocks, bufs.Blocks); err != nil {
		return err
	}
	var firstErr error
	for row, err := range a.writeRows(ctx, id, version, allRows(code.N()), bufs.Blocks) {
		if err == nil {
			*writes++
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: writing %s#%d to node %d: %w", id, row, a.cfg.Placement.NodeFor(version-1, row), err)
		}
	}
	return firstErr
}

// deleteObject removes an object's shards best-effort, one delete batch
// per placement node, returning how many could not be deleted. A shard
// already absent (ErrNotFound) counts as deleted: the goal is that the
// shard is gone, not that this call removed it.
func (a *Archive) deleteObject(ctx context.Context, code codec, id string, version int) (orphans int) {
	for _, err := range a.cluster.DeleteBatch(ctx, a.rowRefs(id, version, allRows(code.N()))) {
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
// the archive was reopened from a manifest.
func (a *Archive) restoreCacheLocked(ctx context.Context) error {
	var stats RetrievalStats
	blocks, err := a.retrieveBlocksLocked(ctx, len(a.entries), &stats)
	if err != nil {
		return err
	}
	a.cache = blocks
	a.cacheLen = a.entries[len(a.entries)-1].length
	return nil
}

func (a *Archive) setCache(blocks [][]byte, length int) {
	a.cache = delta.Clone(blocks)
	a.cacheLen = length
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

// baseOf returns the version the given version's delta applies to:
// entry.base when set, the chain predecessor otherwise.
func (a *Archive) baseOf(version int) int {
	if b := a.entries[version-1].base; b != 0 {
		return b
	}
	return version - 1
}

// deltaObjectID returns the stored object name of a version's delta,
// accounting for compaction rebases.
func (a *Archive) deltaObjectID(version int) string {
	if b := a.entries[version-1].base; b != 0 && b != version-1 {
		return rebasedDeltaID(a.cfg.Name, version, b)
	}
	return deltaID(a.cfg.Name, version)
}
