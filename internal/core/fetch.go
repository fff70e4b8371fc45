package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
	// for a delta, so its reader can decode straight from the prefetched
	// rows without re-probing liveness.
	sparseRows []int
	// err records the last per-row error of any fetch into the set, so a
	// reader that must abort (cancelled context) or give up can surface
	// the failure with its full node/shard provenance instead of a bare
	// ctx error.
	err error
	// releases hand the shards in data back to the nodes that lent them
	// (store.ShardResult.Release), once the set has been decoded.
	releases []func()
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
	if _, ok := s.data[row]; ok {
		release(res) // a second copy of a row in hand
		return
	}
	s.data[row] = res.Data
	s.reads++
	if res.Release != nil {
		s.releases = append(s.releases, res.Release)
	}
}

// release gives every shard in the set back to its node. Nothing may read
// the set afterwards: what was decoded from it is memory of its own.
func (s *shardSet) release() {
	for _, r := range s.releases {
		r()
	}
	s.releases = nil
	clear(s.data)
}

// release gives one fetched shard back to its node, if it was lent.
func release(res store.ShardResult) {
	if res.Release != nil {
		res.Release()
	}
}

// releaseAll gives every fetched shard of a batch back to its node.
func releaseAll(results []store.ShardResult) {
	for _, res := range results {
		release(res)
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

// heldFirst reorders rows so that those already fetched come first, each
// part in its given order: a plan that takes the first rows it can use then
// reads only what it does not hold.
func (s *shardSet) heldFirst(rows []int) []int {
	out := make([]int, 0, len(rows))
	for _, r := range rows {
		if _, ok := s.data[r]; ok {
			out = append(out, r)
		}
	}
	return append(out, s.missing(rows)...)
}

// take returns every fetched row (sorted) and its shard.
func (s *shardSet) take() ([]int, [][]byte) {
	rows := make([]int, 0, len(s.data))
	for r := range s.data {
		rows = append(rows, r)
	}
	slices.Sort(rows)
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		shards[i] = s.data[r]
	}
	return rows, shards
}

// has reports whether every row of an exact row plan has been fetched.
func (s *shardSet) has(rows []int) bool {
	for _, r := range rows {
		if _, ok := s.data[r]; !ok {
			return false
		}
	}
	return true
}

// selectRows returns the shards for an exact row plan; ok is false unless
// every row has been fetched.
func (s *shardSet) selectRows(rows []int) ([][]byte, bool) {
	if !s.has(rows) {
		return nil, false
	}
	shards := make([][]byte, len(rows))
	for i, r := range rows {
		shards[i] = s.data[r]
	}
	return shards, true
}

// prefetch plans every shard read of a walk up front and issues one batch
// per node covering all its codewords: node liveness is taken in one
// Cluster.Probe (once per node, not once per row per object; it pings only
// the nodes the cluster has reason to doubt), each object's read rows are
// chosen against that snapshot, and a single cluster batch fetches
// everything. The result is one get RPC per node and no ping for the whole
// read in the healthy case, however many versions it spans.
// Prefetching is purely a wire optimization: rows that fail are marked dead
// in their object's shard set and the per-object readers top up or re-plan
// exactly as they would have fetched in the first place, so read counts are
// unchanged. A codeword the walk reads a second time is fetched by its reader.
func (a *Archive) prefetch(ctx context.Context, cws []codeword) map[string]*shardSet {
	// The codewords the walk reads, each once, but for the empty deltas.
	objects := make([]codeword, 0, len(cws))
	sets := make(map[string]*shardSet, len(cws))
	var nodes []int
	for _, cw := range cws {
		if _, listed := sets[cw.id]; listed || cw.empty() {
			continue
		}
		sets[cw.id] = nil // listed; its shard set is made once its rows are chosen
		objects = append(objects, cw)
		for row := 0; row < cw.code.N(); row++ {
			nodes = append(nodes, a.nodeOf(cw, row))
		}
	}
	live := a.cluster.Probe(ctx, nodes)
	// Choose the rows each object's reader would read. Objects whose live
	// set is too small are skipped here; their reader reports the proper
	// error (or catches a node that came back since the probe).
	refs := make([]store.ShardRef, 0, len(nodes))
	widths := make([]int, 0, len(nodes)) // of each ref's codeword
	for _, cw := range objects {
		rows, sparse := cw.readPlan(a.rowsOnLiveNodes(live, cw, nil), true, cw.code.K())
		if rows == nil {
			delete(sets, cw.id)
			continue
		}
		set := newShardSet()
		if sparse {
			set.sparseRows = rows
		}
		sets[cw.id] = set
		refs = append(refs, a.rowRefs(cw, rows)...)
		for range rows {
			widths = append(widths, cw.width)
		}
	}
	for i, res := range a.getShards(ctx, refs, func(i int) int { return widths[i] }) {
		sets[refs[i].ID.Object].record(refs[i].ID.Object, refs[i].ID.Row, res)
	}
	return sets
}

// fetchPlanned fetches rows of a codeword into the set, one batch per node,
// recording every outcome (data, lost rows, the last error) in the set.
func (a *Archive) fetchPlanned(ctx context.Context, set *shardSet, cw codeword, rows []int) {
	for i, res := range a.getRows(ctx, cw, rows) {
		set.record(cw.id, rows[i], res)
	}
}

// getRows fetches rows of one codeword, one batch per node (getShards).
func (a *Archive) getRows(ctx context.Context, cw codeword, rows []int) []store.ShardResult {
	return a.getShards(ctx, a.rowRefs(cw, rows), func(int) int { return cw.width })
}

// getShards fetches codeword shards, one batch per node, and holds each to
// the one length its codeword's shards have, width(i) for refs[i]: the
// codeword's width, which the manifest records - BlockSize for a full
// codeword and for a delta stored whole, the window's for one stored at its
// window (putEncoded encodes every row from blocks that long). A shard of
// any other length - truncated or grown on its node - is given back and
// answered as if its node had found it corrupt: every reader, scrub and
// repair then treat it as the lost row it is, and no length is ever voted on.
func (a *Archive) getShards(ctx context.Context, refs []store.ShardRef, width func(i int) int) []store.ShardResult {
	results := a.cluster.GetBatch(ctx, refs)
	for i, res := range results {
		if want := width(i); res.Err == nil && len(res.Data) != want {
			release(res)
			results[i] = store.ShardResult{Err: fmt.Errorf("node %d: %w: %d bytes, want %d", refs[i].Node, store.ErrCorrupt, len(res.Data), want)}
		}
	}
	return results
}

// allRows lists the shard rows 0..n-1 of a codeword.
func allRows(n int) []int {
	rows := make([]int, n)
	for row := range rows {
		rows[row] = row
	}
	return rows
}

// nodeOf is the cluster node that holds the given row of a codeword.
func (a *Archive) nodeOf(cw codeword, row int) int {
	return a.cfg.Placement.NodeFor(cw.version-1, row)
}

// rowRefs maps shard rows of a codeword to their placement nodes.
func (a *Archive) rowRefs(cw codeword, rows []int) []store.ShardRef {
	refs := make([]store.ShardRef, len(rows))
	for i, row := range rows {
		refs[i] = store.ShardRef{Node: a.nodeOf(cw, row), ID: store.ShardID{Object: cw.id, Row: row}}
	}
	return refs
}

// liveRows returns the shard rows of a codeword whose nodes are available
// (one concurrent probe round), skipping rows already known dead this
// retrieval.
func (a *Archive) liveRows(ctx context.Context, cw codeword, dead map[int]bool) []int {
	nodes := make([]int, 0, cw.code.N())
	for row := 0; row < cw.code.N(); row++ {
		if !dead[row] {
			nodes = append(nodes, a.nodeOf(cw, row))
		}
	}
	return a.rowsOnLiveNodes(a.cluster.Probe(ctx, nodes), cw, dead)
}

// rowsOnLiveNodes lists the shard rows of a codeword that are not dead and
// whose placement node a probe round found up: ascending, but for the rows on
// slow nodes, which come last, so a plan that takes the first rows it can use
// reads a slow node only when the other rows cannot serve it. With no node
// slow, the order is plain ascending and costs nothing more.
func (a *Archive) rowsOnLiveNodes(live store.Liveness, cw codeword, dead map[int]bool) []int {
	rows := make([]int, 0, cw.code.N())
	for row := 0; row < cw.code.N(); row++ {
		if node := a.nodeOf(cw, row); !dead[row] && live.Up[node] && !live.Slow[node] {
			rows = append(rows, row)
		}
	}
	for row := 0; len(live.Slow) > 0 && row < cw.code.N(); row++ {
		if !dead[row] && live.Slow[a.nodeOf(cw, row)] {
			rows = append(rows, row)
		}
	}
	return rows
}
