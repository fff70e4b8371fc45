package core

import (
	"container/heap"
	"fmt"
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

// step is one codeword read of a planned walk. With via == 0 it reads the
// full codeword of version to. Otherwise it reads the stored delta of version
// via and applies it to version from, which an earlier step put in hand, to
// yield version to: XOR deltas are self-inverse, so the one Apply goes
// forward (from is the delta's base) and backward (to is).
type step struct{ from, to, via int }

// walk is a planned multi-version read, in execution order. Every such read
// is one: a single version (planChain), a prefix (planPrefix) or the whole
// archive (chainDepthsOf). runWalk executes the list and walkCost prices it,
// so what a read is predicted to cost and what it fetches cannot drift apart.
type walk []step

// walkCost is the number of node reads the walk costs with every node live:
// K per full codeword, what its kind charges per stored delta (formulas (3)
// and (4)).
func (a *Archive) walkCost(w walk) (int, error) {
	cost := 0
	for _, s := range w {
		if s.via == 0 {
			cost += a.cfg.K
			continue
		}
		cw, err := a.deltaKind(a.entries[s.via-1])
		if err != nil {
			return 0, err
		}
		cost += cw.cost()
	}
	return cost, nil
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
func (a *Archive) planChain(l int) (walk, error) {
	if l < 1 || l > len(a.entries) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	dist, hops, via, prev, err := a.planAll(l)
	if err != nil {
		return nil, err
	}
	if dist[l] == unreachedCost {
		return nil, fmt.Errorf("core: version %d unreachable from any full version", l)
	}
	w := make(walk, hops[l]+1)
	v := l
	for i := hops[l]; i > 0; i-- {
		w[i] = step{from: prev[v], to: v, via: via[v]}
		v = prev[v]
	}
	w[0] = step{to: v}
	return w, nil
}

// planPrefix plans the read of versions 1..l in order (formula (4) when
// l = L): the walk to version 1 - a backward walk (Reversed SEC) passes
// through every later version for free - then each version not yet in hand by
// its own delta when the delta's base is in hand, else by its full codeword,
// else (a delta rebased onto an anchor the walk has not reached) by its own
// chain plan, whole.
func (a *Archive) planPrefix(l int) (walk, error) {
	if l < 1 || l > len(a.entries) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, l, len(a.entries))
	}
	w, err := a.planChain(1)
	if err != nil {
		return nil, err
	}
	inHand := make([]bool, len(a.entries)+1)
	for _, s := range w {
		inHand[s.to] = true
	}
	for j := 2; j <= l; j++ {
		if inHand[j] {
			continue
		}
		e := a.entries[j-1]
		switch {
		case e.hasDelta && inHand[entryBase(a.entries, j)]:
			w = append(w, step{from: entryBase(a.entries, j), to: j, via: j})
		case e.hasFull:
			w = append(w, step{to: j})
		case e.hasDelta:
			own, err := a.planChain(j)
			if err != nil {
				return nil, err
			}
			w = append(w, own...)
			for _, s := range own {
				inHand[s.to] = true
			}
		default:
			return nil, fmt.Errorf("core: version %d has neither delta nor full object", j)
		}
		inHand[j] = true
	}
	return w, nil
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
		b := entryBase(a.entries, j)
		if b < 1 || b > L || b == j {
			return nil, nil, nil, nil, fmt.Errorf("core: version %d has invalid delta base %d", j, b)
		}
		cw, err := a.deltaKind(e)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: version %d: %w", j, err)
		}
		w := cw.cost()
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

// PlannedReads returns the number of node reads formula (3) predicts for
// retrieving version l, assuming every node is live.
func (a *Archive) PlannedReads(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	w, err := a.planChain(l)
	if err != nil {
		return 0, err
	}
	return a.walkCost(w)
}

// PlannedReadsAll returns the number of node reads formula (4) predicts for
// retrieving versions 1..l, assuming every node is live.
func (a *Archive) PlannedReadsAll(l int) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	w, err := a.planPrefix(l)
	if err != nil {
		return 0, err
	}
	return a.walkCost(w)
}
