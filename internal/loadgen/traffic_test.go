package loadgen

import (
	"math/rand"
	"testing"
)

func TestPopularityZipfSkewAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const m = 128
	p := newPopularity(rng, m)
	hits := make([]int, m)
	const trials = 20000
	for i := 0; i < trials; i++ {
		a := p.sample()
		if a < 0 || a >= m {
			t.Fatalf("sample %d out of range", a)
		}
		hits[a]++
	}
	// Zipf skew: the hottest archive must dwarf the median one, and the
	// tail must still be touched (the permutation spreads ranks, so find
	// the hot archive empirically).
	hottest, touched := 0, 0
	for _, h := range hits {
		if h > hottest {
			hottest = h
		}
		if h > 0 {
			touched++
		}
	}
	if hottest < trials/10 {
		t.Errorf("hottest archive drew %d of %d samples: no Zipf head", hottest, trials)
	}
	if touched < m/4 {
		t.Errorf("only %d of %d archives touched: no tail", touched, m)
	}
}

// TestPopularitySeedReproducible: the same seed yields the identical
// archive sequence.
func TestPopularitySeedReproducible(t *testing.T) {
	draw := func() []int {
		p := newPopularity(rand.New(rand.NewSource(92)), 64)
		out := make([]int, 500)
		for i := range out {
			out[i] = p.sample()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMixerProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	counts := make([]int, numOps)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[nextOp(rng)]++
	}
	for o := 0; o < numOps; o++ {
		got := float64(counts[o]) / trials
		expect := float64(opMix[o]) / mixTotal
		if got < expect-0.01 || got > expect+0.01 {
			t.Errorf("%s: empirical %.3f vs weight %.3f", opNames[o], got, expect)
		}
	}
}

// TestMixerSeedReproducible: the same seed yields the identical op
// sequence.
func TestMixerSeedReproducible(t *testing.T) {
	draw := func() []op {
		rng := rand.New(rand.NewSource(95))
		out := make([]op, 500)
		for i := range out {
			out[i] = nextOp(rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}
