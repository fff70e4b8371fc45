package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
)

// Every input of a run — op kinds, targets, sparsity levels, payload bytes —
// is drawn here from the seed, with the program's own generators
// (internal/workload) deliberately not used: a later change to the program
// must not be able to alter the load it is measured under.

// Streams name the independent RNGs one seed is split into. Each client
// plans from its own stream and each archive (which has a single writer) is
// edited from its own; nothing that happens at run time draws from either,
// so ops and payload bytes are the same whatever the scheduling.
const (
	streamLayout = iota // gamma placement, zipf rank order (index 0)
	streamPlan          // one per client: op kinds, targets, gammas
	streamEdit          // one per archive: object bytes and every edit of them
)

// newRNG returns the generator of one indexed stream of one seed
// (splitmix64 over the triple, so neighbouring seeds, streams and indices
// share no prefix).
func newRNG(seed int64, stream, index int) *rand.Rand {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xD1B54A32D192ED03 + uint64(index+1)*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// hash64 is FNV-1a folded over 64-bit words (bytes for the tail): the same
// multiply-xor recurrence, an eighth of the steps, so checking a 2 MB
// payload costs a fraction of retrieving it.
func hash64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// digest folds fixed-width records into one FNV-1a value; plans and payload
// hashes go through it so two runs can be compared by one number.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(v uint64) { *d = digest((uint64(*d) ^ v) * 1099511628211) }

// truncExpPMF is the paper's sparsity model: P(gamma) proportional to
// exp(-alpha*gamma) on 1..k.
func truncExpPMF(alpha float64, k int) []float64 {
	pmf := make([]float64, k)
	total := 0.0
	for g := 1; g <= k; g++ {
		pmf[g-1] = math.Exp(-alpha * float64(g))
		total += pmf[g-1]
	}
	for i := range pmf {
		pmf[i] /= total
	}
	return pmf
}

// zipfPMF is P(rank r) proportional to 1/(r+1)^s over m ranks.
func zipfPMF(m int, s float64) []float64 {
	pmf := make([]float64, m)
	total := 0.0
	for r := range pmf {
		pmf[r] = 1 / math.Pow(float64(r+1), s)
		total += pmf[r]
	}
	for i := range pmf {
		pmf[i] /= total
	}
	return pmf
}

// quantize turns a PMF into exactly count draws (largest-remainder
// rounding), returned as the multiset of 1-based values in ascending order.
// A stratified plan shuffles such a multiset instead of sampling, so
// aggregate costs do not vary with the seed.
func quantize(pmf []float64, count int) []int {
	type share struct {
		value int
		n     int
		rem   float64
	}
	shares := make([]share, len(pmf))
	assigned := 0
	for i, p := range pmf {
		exact := p * float64(count)
		n := int(math.Floor(exact))
		shares[i] = share{value: i + 1, n: n, rem: exact - float64(n)}
		assigned += n
	}
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]].rem > shares[order[b]].rem })
	for i := 0; assigned < count; i++ {
		shares[order[i%len(order)]].n++
		assigned++
	}
	out := make([]int, 0, count)
	for _, s := range shares {
		for j := 0; j < s.n; j++ {
			out = append(out, s.value)
		}
	}
	return out
}

// editBytes is how many bytes of a chosen block one edit rewrites.
const editBytes = 64

// sparseEdit rewrites object in place so that exactly gamma of its k blocks
// differ from before: gamma distinct blocks get editBytes fresh bytes at a
// random offset, the first of them forced to change.
func sparseEdit(rng *rand.Rand, object []byte, blockSize, gamma int) {
	k := len(object) / blockSize
	for _, block := range rng.Perm(k)[:gamma] {
		off := block*blockSize + rng.Intn(blockSize-editBytes+1)
		span := object[off : off+editBytes]
		first := span[0]
		rng.Read(span)
		if span[0] == first {
			span[0] ^= byte(1 + rng.Intn(255))
		}
	}
}

// formulaReads is the paper's formula (3) for Basic SEC over a (n,k) code
// whose sparse reads cost min(2*gamma, k): version l of a chain costs
// k + sum over j = 2..l of min(2*gamma_j, k) shard reads. gammas[j-1] is
// gamma_j, with gammas[0] = 0 for the first version. Retrieving versions
// 1..l together (formula (4)) costs the same reads.
func formulaReads(gammas []int, l, k int) int {
	reads := k
	for j := 2; j <= l; j++ {
		reads += min(2*gammas[j-1], k)
	}
	return reads
}
