package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
)

// readAttempts bounds the re-plan loop of one codeword. Liveness is
// remembered from traffic, not asked per read (store.Cluster.Probe), so a
// node that died since it was last heard from is found out by the batch it
// fails, and the re-plan - which fetches only the deficit, from the first
// rows still believed live - may run into the next such node. A codeword
// survives n-k losses, so it gets that many attempts on top of the three for
// nodes that flap between the probe and the read.
func readAttempts(cw codeword) int { return 3 + cw.code.N() - cw.code.K() }

// readAnyK owns the full read of one stored codeword: top the set up to any
// K rows of the code from live nodes, one batch per node, and decode. Rows
// that fail are marked dead, a node that fails is doubted by the cluster, and
// only the deficit is re-fetched against the re-probed live set - the probe
// pings just the doubted nodes - on the next attempt. The set carries the
// rows already in hand - prefetched by the chain planner, or fetched by a
// sparse attempt that could not complete - and they count toward the K. A
// done context aborts the loop immediately: cancellation is not a node
// failure, so no further liveness probing or re-planning is worth doing.
//
// The decode writes into a pooled block set, which is filed with held: the
// blocks are the walk's holder's to give back, not the GC's.
func (a *Archive) readAnyK(ctx context.Context, cw codeword, set *shardSet, held *loan) ([][]byte, error) {
	k := cw.code.K()
	for attempt := 0; attempt < readAttempts(cw); attempt++ {
		if err := chainAbort(ctx, set.err); err != nil {
			return nil, err
		}
		if len(set.data) < k {
			candidates := set.missing(a.liveRows(ctx, cw, set.dead))
			rows, _ := cw.readPlan(candidates, false, k-len(set.data))
			if rows == nil {
				if err := chainAbort(ctx, set.err); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: %d of %d shards of %s", ErrUnavailable, len(set.data)+len(candidates), k, cw.id)
			}
			a.fetchPlanned(ctx, set, cw, rows, candidates[len(rows):],
				func() bool { return len(set.data) >= k })
		}
		if len(set.data) >= k {
			rows, shards := set.take(k)
			//lint:allow poolcheck the set is lent to the walk's holder, which releases it once nothing reads the versions made of it, or drops it to the GC
			bufs := erasure.GetBuffers(k, len(shards[0]))
			held.keep(bufs)
			return bufs.Blocks, cw.code.DecodeFullInto(rows, shards, bufs.Blocks)
		}
	}
	return nil, set.err
}

// loan is the pooled block sets the full decodes of one walk wrote into
// (readAnyK). The versions the walk returns are made of them - a full
// version's blocks, and the unchanged blocks every later version shares with
// it - so they go back to the pool together, once, when nothing reads those
// versions any more: a request's holder calls release after its reply is
// joined or written. A holder that keeps the versions - the decoded-version
// cache, the latest-version cache, compaction's materialized chain - drops
// the loan instead, and the sets go to the GC with the versions. An empty
// loan is nil and lends nothing.
type loan []*erasure.Buffers

// lentSets and returnedSets count the sets loans have taken and given back
// to the pool, for the tests that check every lent set comes back once.
var lentSets, returnedSets atomic.Int64

// keep files one set with the loan.
func (l *loan) keep(b *erasure.Buffers) {
	*l = append(*l, b)
	lentSets.Add(1)
}

// release gives every set back to the pool. Nothing may read the versions
// made of them afterwards.
func (l loan) release() {
	for _, b := range l {
		b.Release()
	}
	returnedSets.Add(int64(len(l)))
}

// lend hands the loan to the caller as the release it must call once, or
// nil when there is nothing to give back: a read that lends nothing
// allocates no closure.
func (l loan) lend() func() {
	if len(l) == 0 {
		return nil
	}
	return l.release
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

// readCodeword reads and decodes one stored codeword, using a sparse read
// when its kind and the live shards admit one. Shards fetched by a sparse
// attempt that could not complete are kept and count toward the full read it
// falls back to. The set carries rows already prefetched by the chain
// planner (and, for sparse plans, which rows they are), so the healthy path
// decodes without any further cluster traffic; the caller releases it.
//
// The codeword comes back as what was read, never expanded: a support and
// the blocks it names - every block of a full version, the blocks a decode
// recovered or a CDEC codeword holds for a delta, none at all for a delta
// that changed nothing, which costs no reads and no step of the walk. A full
// decode's blocks are lent through held (readAnyK).
func (a *Archive) readCodeword(ctx context.Context, cw codeword, set *shardSet, held *loan) (delta.CompactDelta, ObjectRead, error) {
	if cw.empty() {
		return delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize}, ObjectRead{Version: cw.version, Delta: true}, nil
	}
	k := cw.code.K()
	read := func(sparse bool) ObjectRead {
		return ObjectRead{Version: cw.version, Delta: cw.delta, Gamma: cw.gamma, Reads: set.reads, Sparse: sparse, Compressed: cw.cdec(), Hedges: set.hedges}
	}
	// A codeword with no sparse plan - full, too dense, CDEC - goes straight
	// to the full read, with no liveness probe spent on planning one. So does
	// a delta whose sparse decode fails (e.g. stale manifest gamma), reusing
	// the fetched shards.
	trySparse := cw.sparseReadable()
	if planned := set.sparseRows; planned != nil {
		set.sparseRows = nil
		if shards, ok := set.selectRows(planned); ok {
			if d, err := a.decodeSparse(cw, planned, shards); err == nil {
				return d, read(true), nil
			}
			trySparse = false
		}
	}
	for attempt := 0; trySparse && attempt < readAttempts(cw); attempt++ {
		if err := chainAbort(ctx, set.err); err != nil {
			return delta.CompactDelta{}, ObjectRead{}, err
		}
		live := a.liveRows(ctx, cw, set.dead)
		rows, sparse := cw.readPlan(live, true, k)
		if !sparse {
			break
		}
		a.fetchPlanned(ctx, set, cw, set.missing(rows), set.missing(rowsExcluding(live, rows)),
			func() bool { return set.has(rows) || len(set.data) >= k })
		if shards, ok := set.selectRows(rows); ok {
			if d, err := a.decodeSparse(cw, rows, shards); err == nil {
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
	blocks, err := a.readAnyK(ctx, cw, set, held)
	if err != nil {
		return delta.CompactDelta{}, ObjectRead{}, err
	}
	d, err := a.expand(cw, blocks)
	return d, read(false), err
}
