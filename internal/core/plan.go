package core

import (
	"container/heap"
	"fmt"

	"github.com/secarchive/sec/internal/delta"
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
