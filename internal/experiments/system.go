package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/secarchive/sec/internal/analysis"
	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/simulate"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/workload"
)

// System-level experiments: the same quantities as the analytic figures,
// measured end-to-end on live archives with failure injection, closing the
// loop between the paper's formulas and the running system.

// Fig4SysGrid is the failure-probability grid for the system-measured
// average-I/O experiment (sparser than the analytic grid: each point costs
// thousands of degraded retrievals).
var Fig4SysGrid = []float64{0.02, 0.06, 0.10, 0.14, 0.18}

// Fig4System measures mu_1 on live (6,3) archives under Monte Carlo
// failure injection and compares it with the exact analysis of Fig. 4: for
// each trial, nodes fail independently with probability p, and if at least
// k survive the second version's 1-sparse delta is retrieved through the
// archive's real degraded-read path.
func Fig4System(ctx context.Context) (*Table, error) {
	const trials = 4000
	gn, gs, err := exampleCodes()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(14))
	t := &Table{
		ID:      "fig4sys",
		Title:   "Average I/O reads mu_1 measured on live archives vs exact analysis (paper Fig. 4)",
		Columns: []string{"p", "systematic(measured)", "systematic(exact)", "non-systematic(measured)", "non-systematic(exact)"},
	}
	for _, p := range Fig4SysGrid {
		sysMeasured, err := measureDegradedDeltaReads(ctx, rng, core.BasicSEC, erasure.SystematicCauchy, p, trials)
		if err != nil {
			return nil, err
		}
		nonMeasured, err := measureDegradedDeltaReads(ctx, rng, core.BasicSEC, erasure.NonSystematicCauchy, p, trials)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cell(p),
			cell(sysMeasured), cell(analysis.AvgSparseIOExact(gs, 1, p)),
			cell(nonMeasured), cell(analysis.AvgSparseIOExact(gn, 1, p)),
		})
	}
	return t, nil
}

// measureDegradedDeltaReads builds one (6,3) archive with a 1-sparse
// second version, then samples failure patterns and averages the reads the
// archive actually spends on the delta object, conditioned on x_1 being
// retrievable (>= k live), exactly like eq. 21.
func measureDegradedDeltaReads(ctx context.Context, rng *rand.Rand, scheme core.Scheme, kind erasure.Kind, p float64, trials int) (float64, error) {
	cluster := store.NewMemCluster(0)
	a, err := core.New(core.Config{
		Name: "deg", Scheme: scheme, Code: kind,
		N: exampleN, K: exampleK, BlockSize: 4,
	}, cluster)
	if err != nil {
		return 0, err
	}
	v1 := make([]byte, a.Capacity())
	rng.Read(v1)
	if _, err := a.CommitContext(ctx, v1); err != nil {
		return 0, err
	}
	v2, err := workload.SparseEdit(rng, v1, 4, 1)
	if err != nil {
		return 0, err
	}
	if _, err := a.CommitContext(ctx, v2); err != nil {
		return 0, err
	}
	var kept int
	var total float64
	for trial := 0; trial < trials; trial++ {
		cluster.HealAll()
		live := 0
		for node := 0; node < exampleN; node++ {
			if rng.Float64() < p {
				if err := cluster.Fail(node); err != nil {
					return 0, err
				}
			} else {
				live++
			}
		}
		if live < exampleK {
			continue // the archive is lost; eq. 21 conditions this away
		}
		_, stats, err := a.RetrieveContext(ctx, 2)
		if err != nil {
			return 0, fmt.Errorf("degraded retrieve with %d live: %w", live, err)
		}
		deltaObject := stats.Objects[len(stats.Objects)-1]
		total += float64(deltaObject.Reads)
		kept++
	}
	cluster.HealAll()
	if kept == 0 {
		return 0, nil
	}
	return total / float64(kept), nil
}

// LSweepLengths are the archive lengths for the L-sweep experiment.
var LSweepLengths = []int{2, 3, 5, 8, 12}

// LSweep generalizes Fig. 7 to longer archives: expected and measured
// percentage I/O reduction for reading all L versions as L grows, for one
// favourable (exponential) and one unfavourable (Poisson) sparsity PMF.
// The reduction approaches the per-delta saving as the first version's
// full read amortizes - the paper's Section V-C observation ("up to 20%"
// for 5 versions) extended.
func LSweep(ctx context.Context) (*Table, error) {
	const trialsPerPoint = 150
	rng := rand.New(rand.NewSource(15))
	t := &Table{
		ID:      "lsweep",
		Title:   "Percent reduction in whole-archive reads vs version count L, (6,3) code",
		Columns: []string{"L", "exp(alpha=1.1):analytic(%)", "exp(alpha=1.1):measured(%)", "poisson(lambda=5):analytic(%)", "poisson(lambda=5):measured(%)"},
	}
	expPMF, err := analysis.TruncatedExponential(1.1, exampleK)
	if err != nil {
		return nil, err
	}
	poiPMF, err := analysis.TruncatedPoisson(5, exampleK)
	if err != nil {
		return nil, err
	}
	for _, l := range LSweepLengths {
		row := []string{cellInt(l)}
		for _, pmf := range [][]float64{expPMF, poiPMF} {
			analytic := analysis.PercentReductionArchive(exampleK, pmf, l)
			measured, err := measureArchiveReduction(ctx, rng, pmf, l, trialsPerPoint)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(analytic), cell(measured))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// RepairRates are the per-step node failure probabilities for the repair
// simulation experiment.
var RepairRates = []float64{0.02, 0.05, 0.08}

// Repair quantifies what the paper's static analysis brackets out: without
// remedial action an archive decays as nodes fail, while device
// replacement plus shard rebuilding (core.Archive.RepairNode) holds
// availability near 1 at the cost of k reads of repair traffic per rebuilt
// object. 300-step simulations per failure rate, with and without repair.
func Repair(ctx context.Context) (*Table, error) {
	const steps = 300
	t := &Table{
		ID:      "repair",
		Title:   "Archive availability over time with and without node repair, (8,4) code, L=4",
		Columns: []string{"fail-rate/step", "availability(repair)", "availability(no-repair)", "failures", "repairs", "shards-rebuilt", "repair-reads"},
	}
	for _, rate := range RepairRates {
		withRepair, err := runRepairSim(ctx, rate, 1, steps)
		if err != nil {
			return nil, err
		}
		noRepair, err := runRepairSim(ctx, rate, simulate.NoRepair, steps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cell(rate),
			cell(withRepair.Availability()),
			cell(noRepair.Availability()),
			cellInt(withRepair.FailuresInjected),
			cellInt(withRepair.RepairsCompleted),
			cellInt(withRepair.ShardsRebuilt),
			cellInt(withRepair.RepairReads),
		})
	}
	return t, nil
}

func runRepairSim(ctx context.Context, rate float64, repairDelay, steps int) (simulate.Result, error) {
	rng := rand.New(rand.NewSource(16))
	cluster := store.NewMemCluster(0)
	archive, err := core.New(core.Config{
		Name: "repair-sim", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy,
		N: 8, K: 4, BlockSize: 16,
	}, cluster)
	if err != nil {
		return simulate.Result{}, err
	}
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(ctx, v); err != nil {
		return simulate.Result{}, err
	}
	for i := 0; i < 3; i++ {
		v, err = workload.SparseEdit(rng, v, 16, 1)
		if err != nil {
			return simulate.Result{}, err
		}
		if _, err := archive.CommitContext(ctx, v); err != nil {
			return simulate.Result{}, err
		}
	}
	return simulate.Run(ctx, archive, cluster, simulate.Config{
		FailurePerStep: rate,
		RepairDelay:    repairDelay,
		Steps:          steps,
		Seed:           17,
	})
}

func measureArchiveReduction(ctx context.Context, rng *rand.Rand, pmf []float64, l, trials int) (float64, error) {
	sampler, err := workload.NewSampler(pmf, rng)
	if err != nil {
		return 0, err
	}
	total := 0
	for trial := 0; trial < trials; trial++ {
		chain, err := workload.GenerateChain(rng, exampleK, 4, l, sampler.Sample)
		if err != nil {
			return 0, err
		}
		a, err := buildArchive(ctx, core.BasicSEC, erasure.NonSystematicCauchy, exampleN, exampleK, 4, chain.Versions)
		if err != nil {
			return 0, err
		}
		_, stats, err := a.RetrieveAllContext(ctx, l)
		if err != nil {
			return 0, err
		}
		total += stats.NodeReads
	}
	avg := float64(total) / float64(trials)
	baseline := float64(l * exampleK)
	return (baseline - avg) / baseline * 100, nil
}
