package core

import (
	"context"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// groupRefsByNode splits shard refs into one batch per node, preserving
// order within each batch.
func groupRefsByNode(refs []store.ShardRef) map[int][]store.ShardRef {
	byNode := make(map[int][]store.ShardRef)
	for _, ref := range refs {
		byNode[ref.Node] = append(byNode[ref.Node], ref)
	}
	return byNode
}

// hedgedRead fetches refs with one cluster batch per node, every batch in
// flight concurrently, and hands each arriving result to sink. If some
// node has not answered within Config.HedgeDelay, spare is invoked once
// with the set of straggling nodes and the refs it returns are issued as
// speculative batches (each straggler is reported to the cluster's health
// tracker). The call returns as soon as enough() is satisfied - or when
// every issued batch has answered - cancelling and draining outstanding
// batches first, so no goroutine outlives the call. Results arriving
// after satisfaction are discarded, and their shards given back to their
// nodes, which is what demotes the straggler: the retrieval stops waiting
// on it.
//
// sink, spare, and enough all run on the caller's goroutine and may share
// state with it freely.
func (a *Archive) hedgedRead(ctx context.Context, refs []store.ShardRef, spare func(straggling map[int]bool) []store.ShardRef, enough func() bool, sink func(store.ShardRef, store.ShardResult)) {
	if len(refs) == 0 || enough() {
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		node    int
		refs    []store.ShardRef
		results []store.ShardResult
	}
	done := make(chan outcome)
	issued := 0
	pending := make(map[int]int) // node -> outstanding batches
	issue := func(node int, batch []store.ShardRef) {
		issued++
		pending[node]++
		go func() {
			done <- outcome{node, batch, a.cluster.GetBatch(ctx, batch)}
		}()
	}
	for node, batch := range groupRefsByNode(refs) {
		issue(node, batch)
	}
	timer := time.NewTimer(a.cfg.HedgeDelay)
	defer timer.Stop()
	satisfied := false
	for returned := 0; returned < issued; {
		select {
		case out := <-done:
			returned++
			pending[out.node]--
			if satisfied {
				for _, res := range out.results {
					release(res)
				}
				continue
			}
			for i := range out.refs {
				sink(out.refs[i], out.results[i])
			}
			if enough() {
				satisfied = true
				cancel()
			}
		case <-timer.C:
			if satisfied {
				continue
			}
			straggling := make(map[int]bool)
			for node, n := range pending {
				if n > 0 {
					straggling[node] = true
					a.cluster.ReportHedge(node)
				}
			}
			for node, batch := range groupRefsByNode(spare(straggling)) {
				issue(node, batch)
			}
		}
	}
}

// fetchPlanned fetches rows of a codeword into the set, one batch per node,
// recording every outcome (data, lost rows, the last error) in the set.
// With hedging enabled, a node that stalls past the hedge delay triggers
// speculative fetches of the spares (extra candidate rows beyond the plan,
// skipped when they live on a straggling node, are dead or are already in
// hand), tallied in set.hedges, and the call returns as soon as need() is
// satisfied - typically "k rows in hand".
func (a *Archive) fetchPlanned(ctx context.Context, set *shardSet, cw codeword, rows, spares []int, need func() bool) {
	if a.cfg.HedgeDelay == 0 {
		for i, res := range a.cluster.GetBatch(ctx, a.rowRefs(cw, rows)) {
			set.record(cw.id, rows[i], res)
		}
		return
	}
	sink := func(ref store.ShardRef, res store.ShardResult) {
		set.record(cw.id, ref.ID.Row, res)
	}
	spare := func(straggling map[int]bool) []store.ShardRef {
		return a.spareRefs(nil, set, cw, spares, len(spares), func(node int) bool { return straggling[node] })
	}
	a.hedgedRead(ctx, a.rowRefs(cw, rows), spare, need, sink)
}

// spareRefs appends to extra at most limit speculative fetches for a
// codeword, tallying each in the set's hedges: the candidate rows, in order,
// that are not dead, not already in hand and not on a node to skip.
func (a *Archive) spareRefs(extra []store.ShardRef, set *shardSet, cw codeword, candidates []int, limit int, skip func(node int) bool) []store.ShardRef {
	for _, row := range candidates {
		if limit <= 0 {
			break
		}
		node := a.nodeOf(cw, row)
		if _, inHand := set.data[row]; inHand || set.dead[row] || skip(node) {
			continue
		}
		extra = append(extra, store.ShardRef{Node: node, ID: store.ShardID{Object: cw.id, Row: row}})
		set.hedges++
		limit--
	}
	return extra
}

// rowsExcluding returns the rows of live not present in exclude,
// preserving order.
func rowsExcluding(live, exclude []int) []int {
	ex := make(map[int]bool, len(exclude))
	for _, r := range exclude {
		ex[r] = true
	}
	var out []int
	for _, r := range live {
		if !ex[r] {
			out = append(out, r)
		}
	}
	return out
}
