package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/secarchive/sec/internal/delta"
)

// readAttempts bounds the re-plan loop when nodes fail between the liveness
// probe and the shard read.
const readAttempts = 3

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
//
// The delta comes back as what was read, never expanded: its support and
// its non-zero blocks - the blocks a decode recovered, the blocks a CDEC
// codeword holds, none at all for a delta that changed nothing.
func (a *Archive) readDelta(ctx context.Context, version int, set *shardSet) (delta.CompactDelta, ObjectRead, error) {
	e := a.entries[version-1]
	if e.compressed {
		return a.readCompressedDelta(ctx, version, e, set)
	}
	gamma := e.gamma
	if gamma == 0 {
		// Nothing changed: no reads, and no step for the walk to take.
		return delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize}, ObjectRead{Version: version, Delta: true}, nil
	}
	id := a.deltaObjectID(version)
	k := a.cfg.K
	if set == nil {
		set = newShardSet()
	}
	read := func(sparse bool) ObjectRead {
		return ObjectRead{Version: version, Delta: true, Gamma: gamma, Reads: set.reads, Sparse: sparse, Hedges: set.hedges}
	}
	decodeSparse := func(rows []int, shards [][]byte) (delta.CompactDelta, error) {
		support, blocks, err := a.deltaCode.DecodeSparseSupport(rows, shards, gamma)
		return delta.CompactDelta{K: k, BlockSize: a.cfg.BlockSize, Support: support, Blocks: blocks}, err
	}
	// A delta too dense for any sparse plan goes straight to the full
	// read, with no liveness probe spent on planning one. So does one whose
	// sparse decode fails (e.g. stale manifest gamma), reusing the fetched
	// shards.
	trySparse := gamma <= a.deltaCode.MaxSparseGamma()
	if planned := set.sparseRows; planned != nil {
		set.sparseRows = nil
		if shards, ok := set.selectRows(planned); ok {
			if d, err := decodeSparse(planned, shards); err == nil {
				return d, read(true), nil
			}
			trySparse = false
		}
	}
	for attempt := 0; trySparse && attempt < readAttempts; attempt++ {
		if err := chainAbort(ctx, set.err); err != nil {
			return delta.CompactDelta{}, ObjectRead{}, err
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
			if d, err := decodeSparse(rows, shards); err == nil {
				return d, read(true), nil
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
		return delta.CompactDelta{}, ObjectRead{}, err
	}
	d, err := delta.View(blocks)
	return d, read(false), err
}

// readCompressedDelta reads a CDEC-compacted delta codeword: any gamma of
// its gamma+N-K shards decode the non-zero blocks, which with the entry's
// support are the delta. There is no separate sparse plan - gamma reads IS
// the floor, below both the sparse read (2*gamma) and the full read (K) of
// uncompressed deltas.
func (a *Archive) readCompressedDelta(ctx context.Context, version int, e entry, set *shardSet) (delta.CompactDelta, ObjectRead, error) {
	code, err := a.compressedCode(e.gamma)
	if err != nil {
		return delta.CompactDelta{}, ObjectRead{}, err
	}
	if set == nil {
		set = newShardSet()
	}
	nz, err := a.readAnyK(ctx, code, a.deltaObjectID(version), version, set)
	if err != nil {
		return delta.CompactDelta{}, ObjectRead{}, err
	}
	cd := delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Support: e.support, Blocks: nz}
	return cd, ObjectRead{Version: version, Delta: true, Gamma: e.gamma, Reads: set.reads, Compressed: true, Hedges: set.hedges}, nil
}
