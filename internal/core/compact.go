package core

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"github.com/secarchive/sec/internal/delta"
)

// This file implements the chain-lifecycle subsystem: bounding how many
// deltas the planned read of any version applies. Unbounded chains make both
// the paper's retrieval cost (formula (3)) and repair traffic grow linearly
// with every commit; Section IV-D leaves merging delta codewords as future
// work, and this is that mechanism. Compaction rebases over-deep versions
// onto the anchor of their planned walk with a merged (XOR-composed) delta whose
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
	// merging, the maintenance cost of the pass: on a healthy cluster,
	// PlannedReadsAll(L) of the chain the pass started from.
	NodeReads int
	// PlannedReadGain sums, over every rewritten version, how many planned
	// node reads one retrieval of it saves versus the old chain (the
	// walk's planned cost less the merged delta's; promotions count their
	// whole old delta walk as saved).
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

// CompactToContext rewrites the chain so that no version's planned read
// applies more than maxLen deltas, under the context's deadline and
// cancellation. Every version whose planned walk applies more is rewritten:
// its delta is replaced by one merged delta against the anchor its walk
// starts from (or the nearest earlier full version, when that merge is
// sparser and reads no dearer), stored as a fresh codeword, or - when the
// merged delta is denser than a sparse read can serve (promotionLimit) - the
// version is promoted to a full checkpoint. A rewrite can open a cheaper but
// longer walk to another version, so rewrite rounds repeat until the planner
// finds every version within the bound. Every version remains retrievable
// byte-identically throughout.
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
// every version), so it is a maintenance operation to schedule like scrub
// and repair, not a hot-path call.
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
	before, err := a.planEvery(a.entries)
	if err != nil {
		return info, err
	}
	targets := overBound(before, maxLen)
	if len(targets) == 0 {
		return info, nil
	}

	// Materialize every version as RetrieveAll(L) does - one planned prefix
	// walk, which reads a version by its own delta wherever its base is in
	// hand - with one batch per node.
	w, err := a.planPrefix(len(a.entries))
	if err != nil {
		return info, err
	}
	var stats RetrievalStats
	mat, _, err := a.runWalk(ctx, w, &stats) // kept past the walk: the loan is dropped
	if err != nil {
		return info, fmt.Errorf("core: compaction aborted while materializing the chain: %w", err)
	}
	info.NodeReads = stats.NodeReads

	limit := a.promotionLimit()

	// Plan and write against a working copy; a.entries stays untouched (and
	// every version readable from the old objects) until everything new is
	// durably stored. written holds the codeword the pass last wrote for
	// each version it rewrote: a later round that rewrites the version
	// again supersedes it.
	next := slices.Clone(a.entries)
	written := map[int]codeword{}
	var superseded []codeword
	for len(targets) > 0 {
		rewrote := false
		for _, v := range targets {
			// Rewriting every violator (rather than a minimal set) is what
			// leaves their old deltas unreferenced, so the pass can
			// reclaim them.
			anchor, merged, err := a.mergeBase(next, mat, v)
			if err != nil {
				return info, err
			}
			if next[v-1].hasDelta && entryBase(next, v) == anchor {
				continue // already based exactly at its anchor
			}
			// Both ends of the merge are checked before anything is written
			// from them: a wrong decode stored as a delta or a checkpoint
			// would outlive every row it came from.
			for _, u := range []int{anchor, v} {
				if err := a.verify(u, mat[u]); err != nil {
					return info, fmt.Errorf("core: compaction aborted: %w", err)
				}
			}
			old, again := written[v]
			if !again && next[v-1].hasDelta {
				if old, err = a.deltaCodeword(v); err != nil {
					return info, err
				}
			}
			var cw codeword
			if merged.Gamma() > limit {
				// Dense merged delta: a sparse read could not serve it, so a
				// full checkpoint costs the same k reads while restoring full
				// resilience - promote.
				cw = a.fullCodeword(v)
				if err := a.writeObject(ctx, cw, mat[v], &info.ShardWrites); err != nil {
					return info, err
				}
				next[v-1].hasFull = true
				next[v-1].checkpoint = true
				next[v-1].dropDelta()
			} else {
				id := rebasedDeltaID(a.cfg.Name, v, anchor)
				if anchor == v-1 {
					// A promotion turned the chain predecessor into the
					// anchor: the merged delta IS the original chain delta,
					// stored under its original name.
					id = deltaID(a.cfg.Name, v)
				}
				if cw, err = a.storeDelta(ctx, id, v, merged, &info.ShardWrites); err != nil {
					return info, err
				}
				next[v-1].setDelta(cw, anchor)
			}
			if old.id != "" {
				superseded = append(superseded, old)
			}
			// A name written again holds live content.
			superseded = slices.DeleteFunc(superseded, func(g codeword) bool { return g.id == cw.id })
			written[v] = cw
			rewrote = true
		}
		if !rewrote {
			return info, fmt.Errorf("core: compaction cannot bring versions %v within %d delta applications", targets, maxLen)
		}
		// The rewrites may have opened cheaper, longer walks: plan the
		// working chain again, which also refuses to swap in a manifest
		// that would strand a version.
		st, err := a.planEvery(next)
		if err != nil {
			return info, fmt.Errorf("core: compaction would strand a version: %w", err)
		}
		targets = overBound(st, maxLen)
	}

	// Price each rewrite with the planner's own costs: the old chain's walk
	// to v less one read of the rewritten delta (nothing for a promotion,
	// which anchors v outright).
	for _, v := range slices.Sorted(maps.Keys(written)) {
		gain := before[v].dist - a.cfg.K
		if next[v-1].hasDelta {
			gain -= a.deltaCost(next[v-1])
			info.Rebased = append(info.Rebased, v)
		} else {
			info.Promoted = append(info.Promoted, v)
		}
		info.PlannedReadGain += gain
	}
	for _, g := range superseded {
		info.SupersededShards += g.code.N()
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

// mergeBase picks the version compaction merges target v against on the
// working chain next, and returns it with the merged delta: the anchor of v's
// cheapest walk - a checkpoint promoted earlier in the pass may be nearer
// now - or the nearest earlier full version when that merge is sparser and
// reads no dearer than the walk. The anchor's merge reads no dearer either:
// its sparsity is at most the sum of the sparsities along the walk.
func (a *Archive) mergeBase(next []entry, mat map[int][][]byte, v int) (int, delta.CompactDelta, error) {
	st, err := a.planAll(next, v)
	if err != nil {
		return 0, delta.CompactDelta{}, err
	}
	anchor := anchorOf(st, v)
	merged, err := delta.Diff(mat[anchor], mat[v])
	if err != nil {
		return 0, delta.CompactDelta{}, err
	}
	if f := lastFullBelow(next, v); f != 0 && f != anchor {
		alt, err := delta.Diff(mat[f], mat[v])
		if err != nil {
			return 0, delta.CompactDelta{}, err
		}
		if alt.Gamma() < merged.Gamma() && a.cfg.K+a.mergedCost(alt.Gamma()) <= st[v].dist {
			return f, alt, nil
		}
	}
	return anchor, merged, nil
}

// overBound lists, ascending, the versions whose planned walk applies more
// than maxLen deltas.
func overBound(st []planState, maxLen int) []int {
	var over []int
	for v := 1; v < len(st); v++ {
		if st[v].hops > maxLen {
			over = append(over, v)
		}
	}
	return over
}

// entryBase returns the version entries[v-1]'s delta applies to (the
// chain predecessor when unset).
func entryBase(entries []entry, v int) int {
	if b := entries[v-1].base; b != 0 {
		return b
	}
	return v - 1
}

// lastFullBelow returns the largest version below v whose full codeword
// entries store, or 0 when none is.
func lastFullBelow(entries []entry, v int) int {
	for j := v - 1; j >= 1; j-- {
		if entries[j-1].hasFull {
			return j
		}
	}
	return 0
}

// ChainDepth returns how many delta applications the planned read of
// version l applies (0 when it reads l's full codeword): the walk Retrieve
// takes, and the quantity MaxChainLength bounds.
func (a *Archive) ChainDepth(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	w, err := a.planChain(l)
	if err != nil {
		return 0, err
	}
	return len(w) - 1, nil
}

// ChainStats reports every version's chain depth and planned read cost
// (formula (3)) from one planner pass, for callers summarizing whole
// archives (seccli info, the gateway's Log); element i describes version
// i+1. Calling ChainDepth and PlannedReads per version would plan L times
// over.
func (a *Archive) ChainStats() (depths, plannedReads []int, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st, err := a.planEvery(a.entries)
	if err != nil {
		return nil, nil, err
	}
	L := len(a.entries)
	depths, plannedReads = make([]int, L), make([]int, L)
	for v := 1; v <= L; v++ {
		depths[v-1], plannedReads[v-1] = st[v].hops, st[v].dist
	}
	return depths, plannedReads, nil
}
