package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// wholeGraphPlan is the planner as it was before planAll stopped building
// the graph: every delta's two edges in one adjacency list, then the same
// Dijkstra pass. It returns the state of every version.
func wholeGraphPlan(t *testing.T, a *Archive, target int) []planState {
	t.Helper()
	L := len(a.entries)
	type edge struct{ to, via, w int }
	adj := make([][]edge, L+1)
	for j := 1; j <= L; j++ {
		e := a.entries[j-1]
		if !e.hasDelta {
			continue
		}
		b := entryBase(a.entries, j)
		adj[b] = append(adj[b], edge{to: j, via: j, w: a.deltaCost(e)})
		adj[j] = append(adj[j], edge{to: b, via: j, w: a.deltaCost(e)})
	}
	st := make([]planState, L+1)
	var h planHeap
	for v := 1; v <= L; v++ {
		st[v].dist = unreachedCost
		if a.entries[v-1].hasFull {
			st[v].dist = a.cfg.K
			h = append(h, planItem{v: v, dist: a.cfg.K})
		}
	}
	for len(h) > 0 && (target == 0 || !st[target].done) {
		it := h.pop()
		u := it.v
		if st[u].done || it.dist != st[u].dist || it.hops != st[u].hops {
			continue
		}
		st[u].done = true
		for _, e := range adj[u] {
			nd, nh := st[u].dist+e.w, st[u].hops+1
			if nd < st[e.to].dist || (nd == st[e.to].dist && nh < st[e.to].hops) {
				st[e.to] = planState{dist: nd, hops: nh, via: e.via, prev: u}
				h.push(planItem{v: e.to, dist: nd, hops: nh})
			}
		}
	}
	return st
}

// TestPlannerMatchesTheWholeGraph holds planAll, which finds each settled
// version's edges as it goes, to the planner over the whole graph, on the
// archives TestPlannedReadsAllMatchesMeasured builds: every scheme, with
// and without checkpoints and CDEC deltas, before and after compactions
// that rebase deltas onto earlier and later anchors. Every version's cost,
// hops, last delta and predecessor agree when every version is priced, and
// every single-version plan is the same walk.
func TestPlannerMatchesTheWholeGraph(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Name:            "p",
			Scheme:          allSchemes[rng.Intn(len(allSchemes))],
			Code:            erasure.NonSystematicCauchy,
			N:               20,
			K:               10,
			BlockSize:       8,
			CheckpointEvery: []int{0, 0, 3, 5}[rng.Intn(4)],
			CompressDeltas:  rng.Intn(3) == 0,
		}
		L := 6 + rng.Intn(10)
		a, _ := buildChain(t, store.NewMemCluster(20), cfg, seed, L, func(int) []int {
			return rng.Perm(cfg.K)[:rng.Intn(7)]
		})
		for pass := 0; pass <= 2; pass++ {
			if pass > 0 {
				if _, err := a.CompactToContext(t.Context(), 1+rng.Intn(4)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			got, err := a.planAll(a.entries, 0)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if want := wholeGraphPlan(t, a, 0); !slices.Equal(got, want) {
				t.Fatalf("seed %d (%v) pass %d: planAll(0)\n got %v\nwant %v", seed, cfg.Scheme, pass, got, want)
			}
			for l := 1; l <= L; l++ {
				w, err := a.planChain(l)
				if err != nil {
					t.Fatalf("seed %d: planChain(%d): %v", seed, l, err)
				}
				want := wholeGraphPlan(t, a, l)
				ref := walk{}
				for v := l; v != 0; v = want[v].prev {
					ref = append(ref, step{from: want[v].prev, to: v, via: want[v].via})
					if want[v].via == 0 {
						ref[len(ref)-1].from = 0
						break
					}
				}
				slices.Reverse(ref)
				if !slices.Equal(w, ref) {
					t.Fatalf("seed %d (%v) pass %d: planChain(%d) = %v, the whole graph plans %v", seed, cfg.Scheme, pass, l, w, ref)
				}
			}
		}
	}
}

// TestPlanningAnEarlyVersionAllocatesNoGraph pins what a read of an early
// version of a long chain costs its planner: a handful of allocations, the
// version states among them, where building the graph allocated two edges
// per stored delta.
func TestPlanningAnEarlyVersionAllocatesNoGraph(t *testing.T) {
	cfg := Config{Name: "p", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 8}
	a, _ := buildChain(t, store.NewMemCluster(12), cfg, 1, 300, func(j int) []int { return []int{j % cfg.K} })
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.planChain(3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("planning version 3 of 300 allocates %v times, want at most 10", allocs)
	}
}

// TestChainStatsAllocatesNoMoreForALongerChain pins what a whole-archive
// summary (seccli info, the gateway's Log) costs in allocations: one planner
// pass and the two result slices, the same handful for 1 000 versions as for
// 100.
func TestChainStatsAllocatesNoMoreForALongerChain(t *testing.T) {
	cfg := Config{Name: "p", Scheme: ReversedSEC, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 8}
	allocs := map[int]float64{}
	for _, L := range []int{100, 1000} {
		a, _ := buildChain(t, store.NewMemCluster(12), cfg, 1, L, func(j int) []int { return []int{j % cfg.K} })
		allocs[L] = testing.AllocsPerRun(20, func() {
			if _, _, err := a.ChainStats(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1000] != allocs[100] || allocs[1000] > 8 {
		t.Fatalf("ChainStats allocates %v times on 100 versions and %v on 1 000, want the same handful (at most 8)", allocs[100], allocs[1000])
	}
}
