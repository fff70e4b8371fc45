package core

import (
	"cmp"
	"fmt"
	"slices"
)

// planItem/planHeap implement the retrieval planner's priority queue:
// versions ordered by (planned cost, delta hops, version number).
type planItem struct{ v, dist, hops int }

type planHeap []planItem

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

// push and pop are container/heap's Push and Pop, without boxing the item.
func (h *planHeap) push(it planItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0 && q.Less(i, (i-1)/2); i = (i - 1) / 2 {
		q.Swap(i, (i-1)/2)
	}
}

func (h *planHeap) pop() planItem {
	q := *h
	n := len(q) - 1
	q.Swap(0, n)
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q.Less(c+1, c) {
			c++
		}
		if c >= n || !q.Less(c, i) {
			break
		}
		q.Swap(i, c)
		i = c
	}
	*h = q[:n]
	return q[n]
}

// step is one codeword read of a planned walk. With via == 0 it reads the
// full codeword of version to. Otherwise it reads the stored delta of version
// via and applies it to version from, which an earlier step put in hand, to
// yield version to: XOR deltas are self-inverse, so the one Apply goes
// forward (from is the delta's base) and backward (to is).
type step struct{ from, to, via int }

// walk is a planned multi-version read, in execution order. Every such read
// is one: a single version (planChain), or a prefix (planPrefix), which for
// the whole archive is also what compaction materializes. runWalk executes
// the list and walkCost prices it, so what a read is predicted to cost and
// what it fetches cannot drift apart.
type walk []step

// walkCost is the number of node reads the walk costs with every node live:
// K per full codeword, what its kind charges per stored delta (formulas (3)
// and (4)).
func (a *Archive) walkCost(w walk) int {
	cost := 0
	for _, s := range w {
		if s.via == 0 {
			cost += a.cfg.K
		} else {
			cost += a.deltaCost(*a.entries[s.via-1].delta)
		}
	}
	return cost
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
	st, err := a.planAll(a.entries, l)
	if err != nil {
		return nil, err
	}
	if st[l].dist == unreachedCost {
		return nil, fmt.Errorf("core: version %d unreachable from any full version", l)
	}
	w := make(walk, st[l].hops+1)
	v := l
	for i := st[l].hops; i > 0; i-- {
		w[i] = step{from: st[v].prev, to: v, via: st[v].via}
		v = st[v].prev
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
		case e.delta != nil && inHand[entryBase(a.entries, j)]:
			w = append(w, step{from: entryBase(a.entries, j), to: j, via: j})
		case e.full != nil:
			w = append(w, step{to: j})
		case e.delta != nil:
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

// planState is what the planner knows of one version: the cost of the
// cheapest read that has it in hand, the delta applications on that read
// (its chain depth, which MaxChainLength bounds), the delta applied last (0
// at an anchor) and the version it was applied to, and whether the cost is
// settled.
type planState struct {
	dist, hops, via, prev int
	done                  bool
}

// anchorOf returns the version whose full codeword the planned walk to v
// starts from.
func anchorOf(st []planState, v int) int {
	for st[v].via != 0 {
		v = st[v].prev
	}
	return v
}

// planAll runs the planner's Dijkstra pass over the version graph entries
// describe (the archive's, or compaction's working copy) and returns the
// state of every version, indexed by version number. It is the one pass over
// that graph: reads, chain depths, compaction and Open's check all take it.
// With target > 0 the pass stops once that version settles; target 0 prices
// every version (one pass instead of one per version, for whole-archive
// summaries). The graph is never built: the edges of a settled version are
// its own delta, back to its base, and the deltas based on it, which are
// its successor's on an uncompacted chain and otherwise come from the one
// sorted list of rebased deltas. So planning a read of an early version of
// a long chain walks the versions on its way, and allocates for the chain
// only the states.
func (a *Archive) planAll(entries []entry, target int) ([]planState, error) {
	L := len(entries)
	st := make([]planState, L+1)
	// Lazy-deletion Dijkstra off a heap keyed (cost, hops, version), so a
	// retrieval plans in O(E log L) even on very long archives; stale heap
	// entries are skipped on pop. Anchors enter in ascending version order,
	// so equal-cost ties settle toward forward plans, matching the original
	// nearest-anchor planner; as they all cost K at 0 hops, they enter as a
	// sorted slice, which is a heap.
	var h planHeap
	var rebased [][2]int // {base, version} of every delta not based on its predecessor
	for v := 1; v <= L; v++ {
		st[v].dist = unreachedCost
		e := &entries[v-1]
		if e.full != nil {
			st[v].dist = a.cfg.K
			h = append(h, planItem{v: v, dist: a.cfg.K})
		}
		if e.delta == nil {
			continue
		}
		if b := entryBase(entries, v); b < 1 || b > L || b == v {
			return nil, fmt.Errorf("core: version %d has invalid delta base %d", v, b)
		} else if b != v-1 {
			rebased = append(rebased, [2]int{b, v})
		}
	}
	slices.SortStableFunc(rebased, func(x, y [2]int) int { return cmp.Compare(x[0], y[0]) })
	var vias []int // the deltas a settled version's edges apply, ascending
	for len(h) > 0 && (target == 0 || !st[target].done) {
		it := h.pop()
		u := it.v
		if st[u].done || it.dist != st[u].dist || it.hops != st[u].hops {
			continue // stale entry superseded by a later relaxation
		}
		st[u].done = true
		vias = vias[:0]
		if entries[u-1].delta != nil {
			vias = append(vias, u)
		}
		if u < L && entries[u].delta != nil && entryBase(entries, u+1) == u {
			vias = append(vias, u+1)
		}
		i, _ := slices.BinarySearchFunc(rebased, u, func(r [2]int, u int) int { return cmp.Compare(r[0], u) })
		for ; i < len(rebased) && rebased[i][0] == u; i++ {
			vias = append(vias, rebased[i][1])
		}
		slices.Sort(vias)
		for _, j := range vias {
			to := j // forward: x_u + z_j = x_j
			if j == u {
				to = entryBase(entries, u) // backward: x_u + z_u = x_base
			}
			nd, nh := st[u].dist+a.deltaCost(*entries[j-1].delta), st[u].hops+1
			if nd < st[to].dist || (nd == st[to].dist && nh < st[to].hops) {
				st[to].dist, st[to].hops, st[to].via, st[to].prev = nd, nh, j, u
				h.push(planItem{v: to, dist: nd, hops: nh})
			}
		}
	}
	return st, nil
}

// planEvery prices every version entries describe, refusing a chain in which
// some version no full codeword reaches: that version would be
// unretrievable.
func (a *Archive) planEvery(entries []entry) ([]planState, error) {
	st, err := a.planAll(entries, 0)
	if err != nil {
		return nil, err
	}
	for v := 1; v < len(st); v++ {
		if st[v].dist == unreachedCost {
			return nil, fmt.Errorf("core: version %d unreachable from any full version", v)
		}
	}
	return st, nil
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
	return a.walkCost(w), nil
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
	return a.walkCost(w), nil
}
