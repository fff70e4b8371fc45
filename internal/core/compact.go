package core

import (
	"context"
	"fmt"

	"github.com/secarchive/sec/internal/delta"
)

// This file implements the chain-lifecycle subsystem: bounding how deep
// any version sits in the delta chain. Unbounded chains make both the
// paper's retrieval cost (formula (3)) and repair traffic grow linearly
// with every commit; Section IV-D leaves merging delta codewords as future
// work, and this is that mechanism. Compaction rebases over-deep versions
// onto their nearest full anchor with a merged (XOR-composed) delta whose
// sparsity is recomputed, promotes merged deltas too dense to sparse-read
// into full checkpoints, swaps the manifest atomically, and queues the
// superseded delta codewords for the reclaim that follows the publish.

// CompactionInfo reports what a compaction pass changed.
type CompactionInfo struct {
	// MaxChainLength is the chain-depth bound the pass enforced.
	MaxChainLength int
	// Rebased lists the versions whose deltas were replaced by a merged
	// delta against a full anchor (ascending).
	Rebased []int
	// Promoted lists the versions whose merged delta was dense enough to
	// be promoted to a full checkpoint instead (ascending).
	Promoted []int
	// ShardWrites counts shards written for merged deltas and checkpoints.
	ShardWrites int
	// SupersededShards counts the shards of the codewords the pass
	// superseded, queued for ReclaimSupersededContext: the old manifest
	// and the new one both read whole until the reclaim.
	SupersededShards int
	// NodeReads counts the shard reads spent materializing versions for
	// merging, the maintenance cost of the pass.
	NodeReads int
	// PlannedReadGain sums, over every rewritten version, how many planned
	// node reads one retrieval of it saves versus the old chain (the
	// delta.MergeGain of each merge; promotions count their whole old
	// delta walk as saved).
	PlannedReadGain int
}

// Changed reports whether the pass rewrote anything.
func (i CompactionInfo) Changed() bool {
	return len(i.Rebased)+len(i.Promoted) > 0
}

// ReclaimSupersededContext deletes every queued superseded codeword - what
// commits and compaction passes replaced, and what an earlier reclaim
// left on unreachable nodes - one delete batch per node. It is the only
// place the archive deletes shards: call it once the manifest that no
// longer names them is persisted. It returns how many shards were
// confirmed gone and how many remain orphaned on unreachable nodes;
// objects with orphans stay queued for the next reclaim. With nothing
// queued it returns without taking the write lock.
func (a *Archive) ReclaimSupersededContext(ctx context.Context) (deleted, orphans int, err error) {
	if a.queuedSuperseded() == 0 {
		return 0, 0, nil
	}
	//lint:allow lockheld reclaim deletes superseded shards; the archive write lock must cover the whole sweep
	a.mu.Lock()
	defer a.mu.Unlock()
	deleted, orphans = a.reclaimLocked(ctx)
	if err := ctx.Err(); err != nil && orphans > 0 {
		return deleted, orphans, fmt.Errorf("core: reclaim interrupted: %w", err)
	}
	return deleted, orphans, nil
}

// queuedSuperseded returns how many codewords wait for a reclaim.
func (a *Archive) queuedSuperseded() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.superseded)
}

// reclaimLocked drains the superseded-object queue best effort; objects
// whose deletion left orphans are re-queued. Caller holds the write lock.
func (a *Archive) reclaimLocked(ctx context.Context) (deleted, orphans int) {
	pending := a.superseded
	a.superseded = nil
	for _, g := range pending {
		o := a.deleteObject(ctx, g)
		orphans += o
		deleted += g.code.N() - o
		if o > 0 {
			a.superseded = append(a.superseded, g)
		}
	}
	return deleted, orphans
}

// CompactToContext rewrites the chain so that no version's retrieval needs
// more than maxLen delta applications, under the context's deadline and
// cancellation. Versions deeper than maxLen are rebased: the deltas
// between the version and its nearest full anchor are merged into one
// anchor-relative delta (stored as a fresh codeword), or - when the merged
// delta's recomputed sparsity exceeds the promotion limit (see
// Config.CompactGammaLimit) - the version is promoted to a full
// checkpoint. Every version remains retrievable byte-identically
// throughout.
//
// New codewords are written under fresh object names first and the
// in-memory manifest is swapped atomically (a concurrent Save or
// PublishContext sees either the old chain or the new one, both fully
// readable); a pass interrupted before the swap leaves the old chain
// untouched plus some orphan shards that the next successful pass
// overwrites. The superseded delta codewords are queued, not deleted:
// both manifests stay whole until the caller, having persisted the new
// one, calls ReclaimSupersededContext.
//
// Compaction holds the archive lock for the whole pass (it materializes
// every version it rebases), so it is a maintenance operation to schedule
// like scrub and repair, not a hot-path call.
func (a *Archive) CompactToContext(ctx context.Context, maxLen int) (CompactionInfo, error) {
	if maxLen < 1 {
		return CompactionInfo{}, fmt.Errorf("core: max chain length %d must be positive", maxLen)
	}
	//lint:allow lockheld compaction mutates the version chain; the archive write lock must cover the whole rewrite
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.compactLocked(ctx, maxLen)
}

// compactLocked runs one compaction pass. Caller holds the write lock.
func (a *Archive) compactLocked(ctx context.Context, maxLen int) (CompactionInfo, error) {
	info := CompactionInfo{MaxChainLength: maxLen}
	depths, _, every, err := chainDepthsOf(a.entries)
	if err != nil {
		return info, err
	}
	var targets []int
	for v := 1; v <= len(a.entries); v++ {
		if depths[v] > maxLen {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		return info, nil
	}

	// Materialize every version with the fewest reads a single pass can
	// manage - each full codeword once, each stored delta once, the reads
	// RetrieveAll(L) performs - as one planned walk: one batch per node.
	var stats RetrievalStats
	mat, _, err := a.runWalk(ctx, every, &stats) // kept past the walk: the loan is dropped
	if err != nil {
		return info, fmt.Errorf("core: compaction aborted while materializing the chain: %w", err)
	}
	info.NodeReads = stats.NodeReads

	limit := a.promotionLimit()

	// Plan and write against a working copy; a.entries stays untouched (and
	// every version readable from the old objects) until everything new is
	// durably stored.
	next := append([]entry(nil), a.entries...)
	var superseded []codeword
	for _, v := range targets {
		// Every version that violated the bound is pinned at depth <= 1: a
		// merged delta straight off an anchor, or a checkpoint. Re-derive
		// the nearest anchor against the working chain - a checkpoint
		// promoted earlier in this pass may be closer now, giving a sparser
		// merge. Rebasing all violators (rather than the minimal set) is
		// what leaves their old chain deltas unreferenced, so the pass can
		// reclaim them.
		_, anchorOf, _, err := chainDepthsOf(next)
		if err != nil {
			return info, err
		}
		anchor := anchorOf[v]
		if next[v-1].hasDelta && entryBase(next, v) == anchor {
			continue // already based exactly at its nearest anchor
		}
		// Both ends of the merge are checked before anything is written
		// from them: a wrong decode stored as a delta or a checkpoint
		// would outlive every row it came from.
		for _, u := range []int{anchor, v} {
			if err := a.verify(u, mat[u]); err != nil {
				return info, fmt.Errorf("core: compaction aborted: %w", err)
			}
		}
		merged, err := delta.Diff(mat[anchor], mat[v])
		if err != nil {
			return info, err
		}
		gamma := merged.Gamma()
		// Price the rewrite with the planner's own costs: the old chain walk
		// to v (planned against the still-unswapped entries, each codeword
		// charging what its kind costs to read) versus one read of the
		// rewritten delta (zero for a promotion, which anchors v outright).
		// On chains without compression this is exactly delta.MergeGain of
		// the walk's gammas.
		oldWalk, err := a.planChain(v)
		if err != nil {
			return info, err
		}
		gain, err := a.walkCost(oldWalk)
		if err != nil {
			return info, err
		}
		gain -= a.cfg.K
		var old codeword
		if next[v-1].hasDelta {
			if old, err = a.deltaCodeword(v); err != nil {
				return info, err
			}
		}
		if gamma > limit {
			// Dense merged delta: a sparse read could not serve it, so a
			// full checkpoint costs the same k reads while restoring full
			// resilience - promote.
			if err := a.writeObject(ctx, a.fullCodeword(v), mat[v], &info.ShardWrites); err != nil {
				return info, err
			}
			next[v-1].hasFull = true
			next[v-1].checkpoint = true
			next[v-1].dropDelta()
			info.Promoted = append(info.Promoted, v)
		} else {
			newID := rebasedDeltaID(a.cfg.Name, v, anchor)
			if anchor == v-1 {
				// A promotion above turned the chain predecessor into the
				// nearest anchor: the merged delta IS the original chain
				// delta, stored under its original name.
				newID = deltaID(a.cfg.Name, v)
			}
			cw, err := a.storeDelta(ctx, newID, v, merged, &info.ShardWrites)
			if err != nil {
				return info, err
			}
			gain -= cw.cost()
			next[v-1].setDelta(cw, anchor)
			info.Rebased = append(info.Rebased, v)
		}
		info.PlannedReadGain += gain
		if old.id != "" {
			superseded = append(superseded, old)
			info.SupersededShards += old.code.N()
		}
	}

	// Every compacted chain still reaches every version? Refuse to swap a
	// manifest that would strand one - this cannot happen for the rebase
	// moves above, but the invariant is cheap to hold on to.
	if _, _, _, err := chainDepthsOf(next); err != nil {
		return info, fmt.Errorf("core: compaction would strand a version: %w", err)
	}

	// The manifest swap: one assignment under the write lock. From here on
	// retrievals plan against the compacted chain only. The swap changes
	// how versions are stored, never what they are, so the decoded-version
	// cache keeps every entry.
	a.entries = next
	a.changed = append(append(a.changed, info.Rebased...), info.Promoted...)

	// Nothing in the new manifest points at the superseded delta codewords
	// anymore; they wait in the queue for the reclaim after the publish.
	a.superseded = append(a.superseded, superseded...)
	return info, nil
}

// entryBase returns the version entries[v-1]'s delta applies to (the
// chain predecessor when unset).
func entryBase(entries []entry, v int) int {
	if b := entries[v-1].base; b != 0 {
		return b
	}
	return v - 1
}

// chainDepthsOf runs a breadth-first search from every version with a full
// codeword across the delta edges (each stored delta connects its base and
// its version, usable in both directions). depths[v] is the number of
// delta applications the shallowest retrieval of v needs; anchorOf[v] is
// the anchor it starts from (ties resolved toward the smaller anchor, then
// the smaller intermediate version, so results are deterministic). every is
// the search itself as a walk: each full codeword, then the versions
// spreading outward from the anchors one delta application per step, so
// reading the whole archive costs one full read per anchor plus one delta
// read per version without one. An unreachable version is an error: it
// would be unretrievable.
func chainDepthsOf(entries []entry) (depths, anchorOf []int, every walk, err error) {
	L := len(entries)
	adj := make([][]step, L+1) // adj[u]: the deltas with an end at u, as steps away from u
	for j := 1; j <= L; j++ {
		if !entries[j-1].hasDelta {
			continue
		}
		b := entryBase(entries, j)
		if b < 1 || b > L || b == j {
			return nil, nil, nil, fmt.Errorf("core: version %d has invalid delta base %d", j, b)
		}
		adj[b] = append(adj[b], step{from: b, to: j, via: j})
		adj[j] = append(adj[j], step{from: j, to: b, via: j})
	}
	depths = make([]int, L+1)
	anchorOf = make([]int, L+1)
	for v := range depths {
		depths[v] = -1
	}
	every = make(walk, 0, L)
	for v := 1; v <= L; v++ {
		if entries[v-1].hasFull {
			depths[v] = 0
			anchorOf[v] = v
			every = append(every, step{to: v})
		}
	}
	for next := 0; next < len(every); next++ {
		u := every[next].to
		for _, s := range adj[u] {
			if depths[s.to] != -1 {
				continue
			}
			depths[s.to] = depths[u] + 1
			anchorOf[s.to] = anchorOf[u]
			every = append(every, s)
		}
	}
	for v := 1; v <= L; v++ {
		if depths[v] == -1 {
			return nil, nil, nil, fmt.Errorf("core: version %d unreachable from any full version", v)
		}
	}
	return depths, anchorOf, every, nil
}

// maxDepth returns the deepest chain position (0 for an empty archive).
func maxDepth(depths []int) int {
	deepest := 0
	for _, d := range depths[1:] {
		if d > deepest {
			deepest = d
		}
	}
	return deepest
}

// ChainDepth returns how many delta applications the shallowest retrieval
// of version l needs (0 when its full codeword is stored). It is the
// quantity MaxChainLength bounds.
func (a *Archive) ChainDepth(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if l < 1 || l > len(a.entries) {
		return 0, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	depths, _, _, err := chainDepthsOf(a.entries)
	if err != nil {
		return 0, err
	}
	return depths[l], nil
}

// ChainStats reports every version's chain depth and planned read cost
// (formula (3)) in one BFS plus one Dijkstra pass, for callers
// summarizing whole archives (seccli info); element i describes version
// i+1. Calling ChainDepth and PlannedReads per version would redo the
// graph work L times over.
func (a *Archive) ChainStats() (depths, plannedReads []int, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	L := len(a.entries)
	if L == 0 {
		return nil, nil, nil
	}
	allDepths, _, _, err := chainDepthsOf(a.entries)
	if err != nil {
		return nil, nil, err
	}
	dist, _, _, _, err := a.planAll(0) // exhaustive: prices every version
	if err != nil {
		return nil, nil, err
	}
	for v := 1; v <= L; v++ {
		if dist[v] == unreachedCost {
			return nil, nil, fmt.Errorf("core: version %d unreachable from any full version", v)
		}
	}
	return allDepths[1:], dist[1 : L+1], nil
}
