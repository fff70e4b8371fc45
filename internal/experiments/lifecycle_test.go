package experiments

import (
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/workload"
)

// TestFormulasHoldOnUncompactedPrefix checks that chain compaction leaves
// the paper's I/O model intact where it still applies: after bounding a
// Basic SEC chain, the versions whose representation compaction did not
// touch (the chained prefix) must still cost exactly formula (3),
//
//	reads(l) = k + sum_{j=2..l} eta_j,
//
// measured on live nodes, while the rebased suffix costs at most the
// formula's value for its merged representation.
func TestFormulasHoldOnUncompactedPrefix(t *testing.T) {
	const (
		n, k      = 6, 3
		blockSize = 64
		versions  = 10
		maxChain  = 4
	)
	cluster := store.NewMemCluster(n)
	a, err := core.New(core.Config{
		Name:      "exp",
		Scheme:    core.BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	object := make([]byte, k*blockSize)
	rng.Read(object)
	if _, err := a.CommitContext(t.Context(), object); err != nil {
		t.Fatal(err)
	}
	gammas := []int{0} // gammas[l-1] is version l's delta sparsity (v1 has none)
	for v := 2; v <= versions; v++ {
		object, err = workload.SparseEdit(rng, object, blockSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := a.CommitContext(t.Context(), object)
		if err != nil {
			t.Fatal(err)
		}
		gammas = append(gammas, info.Gamma)
	}
	if _, err := a.CompactToContext(t.Context(), maxChain); err != nil {
		t.Fatal(err)
	}

	// The prefix within the bound keeps its chained representation.
	m := a.Manifest()
	for v := 2; v <= maxChain+1; v++ {
		if e := m.Entries[v-1]; e.Base != 0 || !e.Delta {
			t.Fatalf("v%d representation changed by compaction: %+v", v, e)
		}
	}

	maxSparse := (k - 1) / 2
	formula := k // anchor cost
	for l := 1; l <= maxChain+1; l++ {
		if l > 1 {
			formula += delta.ReadCost(gammas[l-1], k, maxSparse)
		}
		cluster.ResetStats()
		if _, _, err := a.RetrieveContext(t.Context(), l); err != nil {
			t.Fatal(err)
		}
		if got := int(cluster.TotalStats().Reads); got != formula {
			t.Errorf("uncompacted v%d: measured %d reads, formula (3) says %d", l, got, formula)
		}
		planned, err := a.PlannedReads(l)
		if err != nil {
			t.Fatal(err)
		}
		if planned != formula {
			t.Errorf("uncompacted v%d: planner says %d, formula (3) says %d", l, planned, formula)
		}
	}

	// Rebased versions cost formula (3) over their merged representation:
	// k + eta(merged gamma), never more than the old chain walk.
	for l := maxChain + 2; l <= versions; l++ {
		e := m.Entries[l-1]
		if e.Full {
			continue // promoted to a checkpoint: k reads
		}
		want := k + delta.ReadCost(e.Gamma, k, maxSparse)
		cluster.ResetStats()
		if _, _, err := a.RetrieveContext(t.Context(), l); err != nil {
			t.Fatal(err)
		}
		if got := int(cluster.TotalStats().Reads); got != want {
			t.Errorf("rebased v%d: measured %d reads, merged formula says %d", l, got, want)
		}
		oldWalk := k
		for j := 2; j <= l; j++ {
			oldWalk += delta.ReadCost(gammas[j-1], k, maxSparse)
		}
		if got := int(cluster.TotalStats().Reads); got > oldWalk {
			t.Errorf("rebased v%d costs %d reads, more than the %d the old chain needed", l, got, oldWalk)
		}
	}
}
