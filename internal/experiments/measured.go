package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/secarchive/sec/internal/analysis"
	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/workload"
)

// measuredTrials is the number of simulated archives per PMF parameter in
// the Fig. 7/8 measurements.
const measuredTrials = 400

// buildArchive commits the version chain to a fresh in-memory archive.
func buildArchive(ctx context.Context, scheme core.Scheme, kind erasure.Kind, n, k, blockSize int, versions [][]byte) (*core.Archive, error) {
	a, err := core.New(core.Config{
		Name:      "exp",
		Scheme:    scheme,
		Code:      kind,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, store.NewMemCluster(0))
	if err != nil {
		return nil, err
	}
	for _, v := range versions {
		if _, err := a.CommitContext(ctx, v); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Table1 reproduces the paper's Table I for the Section IV-C set-up: a 3KB
// object in three 1KB blocks, a 1-sparse second version, and a (6,3) code.
// Node counts and I/O reads are measured on live archives; the complexity
// rows are the paper's qualitative classifications.
func Table1(ctx context.Context) (*Table, error) {
	const blockSize = 1024
	rng := rand.New(rand.NewSource(1))
	v1 := make([]byte, 3*blockSize)
	rng.Read(v1)
	v2 := append([]byte(nil), v1...)
	for i := 0; i < blockSize; i++ { // modify only the first 1KB block
		v2[i] ^= byte(1 + rng.Intn(255))
	}
	versions := [][]byte{v1, v2}

	type column struct {
		name   string
		scheme core.Scheme
		kind   erasure.Kind
		encode [2]string // encoding form per version
		cplx   [2]string // encoding complexity per version
		decode [2]string // decoding complexity per version
	}
	columns := []column{
		{
			name: "differential non-systematic", scheme: core.BasicSEC, kind: erasure.NonSystematicCauchy,
			encode: [2]string{"c1 = GN*x1", "c2 = GN*z2"},
			cplx:   [2]string{"matrix multiplication", "matrix multiplication"},
			decode: [2]string{"inverse operation", "sparse reconstruction"},
		},
		{
			name: "differential systematic", scheme: core.BasicSEC, kind: erasure.SystematicCauchy,
			encode: [2]string{"c1 = GS*x1", "c2 = GS*z2"},
			cplx:   [2]string{"parity only", "parity only"},
			decode: [2]string{"low", "sparse reconstruction"},
		},
		{
			name: "non-differential systematic", scheme: core.NonDifferential, kind: erasure.SystematicCauchy,
			encode: [2]string{"c1 = GS*x1", "c2 = GS*x2"},
			cplx:   [2]string{"parity only", "parity only"},
			decode: [2]string{"low", "low"},
		},
	}

	t := &Table{
		ID:      "table1",
		Title:   "Differential vs non-differential erasure coding, Section IV-C example (paper Table I)",
		Columns: []string{"version", "parameter"},
	}
	type measurement struct {
		nodes [2]int
		reads [2]int
	}
	measurements := make([]measurement, len(columns))
	for i, col := range columns {
		t.Columns = append(t.Columns, col.name)
		a, err := buildArchive(ctx, col.scheme, col.kind, exampleN, exampleK, blockSize, versions)
		if err != nil {
			return nil, err
		}
		for v := 0; v < 2; v++ {
			measurements[i].nodes[v] = exampleN
			_, stats, err := a.RetrieveContext(ctx, v+1)
			if err != nil {
				return nil, err
			}
			// The per-version row reports the reads spent on that
			// version's own object (the paper's Table I counts the
			// object's reads, not the chain's).
			last := stats.Objects[len(stats.Objects)-1]
			measurements[i].reads[v] = last.Reads
		}
	}
	for v := 0; v < 2; v++ {
		version := fmt.Sprintf("%d%s", v+1, map[int]string{0: "st", 1: "nd"}[v])
		addRow := func(param string, get func(i int) string) {
			row := []string{version, param}
			for i := range columns {
				row = append(row, get(i))
			}
			t.Rows = append(t.Rows, row)
		}
		addRow("encoding", func(i int) string { return columns[i].encode[v] })
		addRow("encoding complexity", func(i int) string { return columns[i].cplx[v] })
		addRow("nr. of nodes", func(i int) string { return cellInt(measurements[i].nodes[v]) })
		addRow("decoding complexity", func(i int) string { return columns[i].decode[v] })
		addRow("i/o reads (measured)", func(i int) string { return cellInt(measurements[i].reads[v]) })
	}
	return t, nil
}

// Fig7Params returns the PMF parameter grids used for Figs. 7 and 8.
func Fig7Params() (alphas, lambdas []float64) {
	return []float64{0.1, 0.4, 0.7, 1.0, 1.3, 1.6}, []float64{3, 4, 5, 6, 7, 8, 9}
}

// Fig7 computes the average percentage reduction in I/O reads to access
// {x1, x2} versus the non-differential baseline, for truncated exponential
// and Poisson sparsity PMFs: the paper's analytic expectation side by side
// with a measured value from simulated archives.
func Fig7(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Percent reduction in I/O reads to access x1 and x2, (6,3) code (paper Fig. 7)",
		Columns: []string{"family", "parameter", "reduction-analytic(%)", "reduction-measured(%)"},
	}
	rng := rand.New(rand.NewSource(7))
	alphas, lambdas := Fig7Params()
	run := func(family string, param float64, pmf []float64) error {
		analytic := analysis.PercentReductionJoint(exampleK, pmf)
		avg, err := measureJointReads(ctx, rng, pmf)
		if err != nil {
			return err
		}
		measured := (2*float64(exampleK) - avg) / (2 * float64(exampleK)) * 100
		t.Rows = append(t.Rows, []string{family, cell(param), cell(analytic), cell(measured)})
		return nil
	}
	for _, alpha := range alphas {
		pmf, err := analysis.TruncatedExponential(alpha, exampleK)
		if err != nil {
			return nil, err
		}
		if err := run("exponential", alpha, pmf); err != nil {
			return nil, err
		}
	}
	for _, lambda := range lambdas {
		pmf, err := analysis.TruncatedPoisson(lambda, exampleK)
		if err != nil {
			return nil, err
		}
		if err := run("poisson", lambda, pmf); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// measureJointReads builds trial archives with PMF-sampled delta sparsity
// and returns the mean measured reads for RetrieveAll(2).
func measureJointReads(ctx context.Context, rng *rand.Rand, pmf []float64) (float64, error) {
	sampler, err := workload.NewSampler(pmf, rng)
	if err != nil {
		return 0, err
	}
	total := 0
	for trial := 0; trial < measuredTrials; trial++ {
		chain, err := workload.GenerateChain(rng, exampleK, 4, 2, sampler.Sample)
		if err != nil {
			return 0, err
		}
		a, err := buildArchive(ctx, core.BasicSEC, erasure.NonSystematicCauchy, exampleN, exampleK, 4, chain.Versions)
		if err != nil {
			return 0, err
		}
		_, stats, err := a.RetrieveAllContext(ctx, 2)
		if err != nil {
			return 0, err
		}
		total += stats.NodeReads
	}
	return float64(total) / measuredTrials, nil
}

// Fig8 computes the average percentage increase in I/O reads to access x2
// alone (relative to the non-differential k reads) for basic and optimized
// SEC, analytic and measured.
func Fig8(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Percent increase in I/O reads to access x2, (6,3) code (paper Fig. 8)",
		Columns: []string{"family", "parameter", "basic-analytic(%)", "basic-measured(%)", "optimized-analytic(%)", "optimized-measured(%)"},
	}
	rng := rand.New(rand.NewSource(8))
	alphas, lambdas := Fig7Params()
	run := func(family string, param float64, pmf []float64) error {
		basicAnalytic := analysis.PercentIncreaseSecond(exampleK, pmf, false)
		optAnalytic := analysis.PercentIncreaseSecond(exampleK, pmf, true)
		basicMeasured, err := measureSecondReads(ctx, rng, pmf, core.BasicSEC)
		if err != nil {
			return err
		}
		optMeasured, err := measureSecondReads(ctx, rng, pmf, core.OptimizedSEC)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			family, cell(param),
			cell(basicAnalytic), cell(basicMeasured),
			cell(optAnalytic), cell(optMeasured),
		})
		return nil
	}
	for _, alpha := range alphas {
		pmf, err := analysis.TruncatedExponential(alpha, exampleK)
		if err != nil {
			return nil, err
		}
		if err := run("exponential", alpha, pmf); err != nil {
			return nil, err
		}
	}
	for _, lambda := range lambdas {
		pmf, err := analysis.TruncatedPoisson(lambda, exampleK)
		if err != nil {
			return nil, err
		}
		if err := run("poisson", lambda, pmf); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// measureSecondReads returns the mean percentage increase over k of the
// measured reads for Retrieve(2) under the given scheme.
func measureSecondReads(ctx context.Context, rng *rand.Rand, pmf []float64, scheme core.Scheme) (float64, error) {
	sampler, err := workload.NewSampler(pmf, rng)
	if err != nil {
		return 0, err
	}
	total := 0
	for trial := 0; trial < measuredTrials; trial++ {
		chain, err := workload.GenerateChain(rng, exampleK, 4, 2, sampler.Sample)
		if err != nil {
			return 0, err
		}
		a, err := buildArchive(ctx, scheme, erasure.NonSystematicCauchy, exampleN, exampleK, 4, chain.Versions)
		if err != nil {
			return 0, err
		}
		_, stats, err := a.RetrieveContext(ctx, 2)
		if err != nil {
			return 0, err
		}
		total += stats.NodeReads
	}
	avg := float64(total) / measuredTrials
	return (avg - float64(exampleK)) / float64(exampleK) * 100, nil
}

// Fig9Gammas is the Section III-D sparsity sequence {gamma_2..gamma_5}.
var Fig9Gammas = []int{3, 8, 3, 6}

// Fig9 reproduces the Section III-D example on a (20,10) code with L=5
// versions: measured reads to retrieve each individual version and each
// prefix of versions, for basic SEC, optimized SEC and the non-differential
// baseline.
func Fig9(ctx context.Context) (*Table, error) {
	const (
		n, k      = 20, 10
		blockSize = 8
	)
	rng := rand.New(rand.NewSource(9))
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
		ID:      "fig9",
		Title:   "I/O reads for the Section III-D example, (20,10) code, gammas {3,8,3,6} (paper Fig. 9)",
		Columns: []string{"l", "basic:lth", "optimized:lth", "non-differential:lth", "basic:first-l", "optimized:first-l", "non-differential:first-l"},
	}
	schemes := []core.Scheme{core.BasicSEC, core.OptimizedSEC, core.NonDifferential}
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
		var lth, firstL [3]int
		for i, a := range archives {
			_, stats, err := a.RetrieveContext(ctx, l)
			if err != nil {
				return nil, err
			}
			lth[i] = stats.NodeReads
			_, statsAll, err := a.RetrieveAllContext(ctx, l)
			if err != nil {
				return nil, err
			}
			firstL[i] = statsAll.NodeReads
		}
		for _, v := range lth {
			row = append(row, cellInt(v))
		}
		for _, v := range firstL {
			row = append(row, cellInt(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
