package experiments

import (
	"context"
	"math/rand"

	"github.com/secarchive/sec/internal/analysis"
	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/workload"
)

// Ablation experiments beyond the paper's figures, for the design choices
// DESIGN.md calls out.

// Puncture quantifies the storage/resilience trade-off of puncturing the
// non-systematic delta codewords (the paper's Section IV-D future work):
// dropping t of the n delta shards saves storage but introduces failure
// patterns that lose the delta - and with it the later versions - even
// though x_1 survives.
func Puncture(ctx context.Context) (*Table, error) {
	const gamma = 1
	full, err := erasure.New(erasure.NonSystematicCauchy, exampleN, exampleK)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "puncture",
		Title:   "Puncturing non-systematic SEC deltas, (6,3) code, gamma=1 (paper future work)",
		Columns: []string{"punctured", "delta-shards", "delta-overhead", "delta-loss@p=0.1", "archive-loss@p=0.1", "archive-loss@p=0.2", "criterion2-sets"},
	}
	for punctured := 0; punctured <= 2; punctured++ {
		deltaCode := full
		if punctured > 0 {
			deltaCode, err = full.Punctured(punctured)
			if err != nil {
				return nil, err
			}
		}
		deltaLoss := analysis.ProbLoseDelta(deltaCode, gamma, 0.1)
		archiveLoss1, err := analysis.ArchiveLossColocated(full, deltaCode, []int{gamma}, 0.1)
		if err != nil {
			return nil, err
		}
		archiveLoss2, err := analysis.ArchiveLossColocated(full, deltaCode, []int{gamma}, 0.2)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cellInt(punctured),
			cellInt(deltaCode.N()),
			cell(analysis.DeltaStorageOverhead(exampleN, exampleK, punctured)),
			cell(deltaLoss),
			cell(archiveLoss1),
			cell(archiveLoss2),
			cellInt(len(deltaCode.Criterion2RowSets(2 * gamma))),
		})
	}
	return t, nil
}

// Reversed compares the per-version access cost of all four schemes on the
// Section III-D chain, showing Reversed SEC's mirror-image profile: the
// latest version costs k while the oldest costs the full chain walk.
func Reversed(ctx context.Context) (*Table, error) {
	const (
		n, k      = 20, 10
		blockSize = 8
	)
	rng := rand.New(rand.NewSource(10))
	versions := make([][]byte, 0, len(Fig9Gammas)+1)
	v := make([]byte, k*blockSize)
	rng.Read(v)
	versions = append(versions, v)
	for _, gamma := range Fig9Gammas {
		next, err := workload.SparseEdit(rng, v, blockSize, gamma)
		if err != nil {
			return nil, err
		}
		versions = append(versions, next)
		v = next
	}
	t := &Table{
		ID:      "reversed",
		Title:   "Per-version access cost by scheme, Section III-D chain (Reversed SEC ablation)",
		Columns: []string{"l", "basic", "optimized", "reversed", "non-differential"},
	}
	schemes := []core.Scheme{core.BasicSEC, core.OptimizedSEC, core.ReversedSEC, core.NonDifferential}
	archives := make([]*core.Archive, len(schemes))
	for i, scheme := range schemes {
		a, err := buildArchive(ctx, scheme, erasure.NonSystematicCauchy, n, k, blockSize, versions)
		if err != nil {
			return nil, err
		}
		archives[i] = a
	}
	for l := 1; l <= len(versions); l++ {
		row := []string{cellInt(l)}
		for _, a := range archives {
			_, stats, err := a.RetrieveContext(ctx, l)
			if err != nil {
				return nil, err
			}
			row = append(row, cellInt(stats.NodeReads))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
