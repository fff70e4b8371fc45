package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/secarchive/sec/internal/store"
)

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
