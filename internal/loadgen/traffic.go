package loadgen

import "math/rand"

// The traffic shape: which archive a client touches next (zipfian
// popularity over the archive population) and what it does to it (a
// fixed weighted op mix). Both draw from the client's plan RNG, so a
// traffic plan is replayable from its seed exactly like the edit model.

// popularity samples archive indices in [0, m) under a Zipf popularity
// law: a few archives are hot, the long tail is cold — the skew the
// multi-version key-value-store literature assumes for frequently-updated
// objects. Hot ranks are scattered across the index space by a
// deterministic permutation, so archive 0 is not structurally special.
type popularity struct {
	zipf *rand.Zipf
	perm []int
}

// newPopularity returns a sampler over m > 0 archives. Identical (rng
// state, m) yield identical sample sequences.
func newPopularity(rng *rand.Rand, m int) *popularity {
	return &popularity{zipf: rand.NewZipf(rng, zipfS, zipfV, uint64(m-1)), perm: rng.Perm(m)}
}

// sample draws the next archive index in [0, m).
func (p *popularity) sample() int {
	return p.perm[p.zipf.Uint64()]
}

// op is one kind of archive operation the mix can draw.
type op int

const (
	opCommit op = iota
	opRetrieve
	opLatest
	opLog
	opCompact

	numOps = int(opCompact) + 1
)

// opNames names the op kinds in reports.
var opNames = [numOps]string{"commit", "retrieve", "latest", "log", "compact"}

// opMix weights the op kinds in op order; the weights sum to mixTotal.
var opMix = [numOps]int{25, 40, 20, 10, 5}

const mixTotal = 100

// nextOp draws the next op kind proportionally to opMix.
func nextOp(rng *rand.Rand) op {
	u := rng.Intn(mixTotal)
	for o, weight := range opMix {
		if u < weight {
			return op(o)
		}
		u -= weight
	}
	return opCompact // unreachable: the weights sum to mixTotal
}
