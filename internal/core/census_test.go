package core_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/analysis"
	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestFailureCensus holds the served read path and node repair to the paper's
// resilience claim (Section V-A) on every failure pattern of every stored kind
// under both placements ((12,10): those of at most n-k+2 dead nodes). Versions
// read back byte-identical or fail with ErrUnavailable as censusOracle says;
// a dead node refuses repair, and the lowest live node, wiped, is rebuilt as
// the oracle says. A repaired chain is whole, so the next pattern reads
// through the rebuilt shards. Spot rows pin what reading v2 costs.
func TestFailureCensus(t *testing.T) {
	for _, kind := range censusKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			code, err := erasure.New(kind.cfg.Code, kind.cfg.N, kind.cfg.K)
			if err != nil {
				t.Fatal(err)
			}
			gen := code.Generator()
			criterion2 := func(live []int, size int) bool { return len(gen.SelectRows(live).Criterion2Rows(size)) > 0 }
			place := cmp.Or(kind.cfg.Placement, store.Placement(store.ColocatedPlacement{}))
			a, cluster, versions := censusChain(t, kind.cfg, store.NewMemCluster(0))
			size, patterns, spareGroup0 := cluster.Size(), 0, 0
			for mask := 0; mask < 1<<size; mask++ {
				var dead []int
				for m := mask; m != 0; m &= m - 1 {
					dead = append(dead, bits.TrailingZeros(uint(m)))
				}
				if kind.maxDead > 0 && len(dead) > kind.maxDead {
					continue
				}
				patterns++
				at := fmt.Sprintf("%s/%v", kind.name, dead)
				if a == nil {
					a, cluster, versions = censusChain(t, kind.cfg, store.NewMemCluster(0))
				}
				if err := cluster.Fail(dead...); err != nil {
					t.Fatal(err)
				}
				down := func(node int) bool { return mask>>node&1 == 1 }
				readable, repairable := censusOracle(a.Manifest(), place, criterion2, down)
				all := true
				for v := 1; v <= len(versions); v++ {
					got, stats, err := a.RetrieveContext(t.Context(), v)
					all = all && readable[v]
					if readable[v] && (err != nil || !bytes.Equal(got, versions[v-1])) {
						t.Fatalf("%s: v%d must read back: err = %v", at, v, err)
					} else if !readable[v] && !errors.Is(err, core.ErrUnavailable) {
						t.Fatalf("%s: v%d err = %v, want ErrUnavailable", at, v, err)
					}
					if want, ok := kind.spots[fmt.Sprint(dead)]; ok && v == 2 {
						if got := (censusReads{stats.NodeReads, stats.SparseReads, stats.CompressedReads}); got != want {
							t.Errorf("%s: v2 reads (nodes, sparse, compressed) = %v, want %v", at, got, want)
						}
						delete(kind.spots, fmt.Sprint(dead))
					}
					if v == 2 && err == nil && mask != 0 && mask&(1<<kind.cfg.N-1) == 0 {
						spareGroup0++
					}
				}
				if _, _, err := a.RetrieveAllContext(t.Context(), len(versions)); (err == nil) != all {
					t.Fatalf("%s: RetrieveAll err = %v, every version readable: %v", at, err, all)
				}
				if len(dead) > 0 {
					if _, err := a.RepairNodeContext(t.Context(), dead[0]); !errors.Is(err, store.ErrNodeDown) {
						t.Fatalf("%s: repair of dead node %d: err = %v, want ErrNodeDown", at, dead[0], err)
					}
				}
				if x := bits.TrailingZeros(^uint(mask)); x < size { // the lowest live node
					node, _ := cluster.Node(x)
					node.(*store.MemNode).Wipe()
					_, err := a.RepairNodeContext(t.Context(), x)
					if (err == nil) != repairable(x) || err != nil && !errors.Is(err, core.ErrUnavailable) {
						t.Fatalf("%s: repair of wiped node %d: err = %v, oracle says repairable: %v", at, x, err, repairable(x))
					} else if err != nil {
						a = nil // node x stays empty: the next pattern commits afresh
					}
				}
				cluster.HealAll()
			}
			t.Logf("%d failure patterns over %d nodes", patterns, size)
			if patterns != kind.patterns || len(kind.spots) > 0 {
				t.Errorf("%d patterns, want %d; spot rows never reached: %v", patterns, kind.patterns, kind.spots)
			}
			// Dispersed, group 0 whole and group 1 hit: v2 lives exactly when its
			// delta does, so the paper's count of a delta's patterns applies. A
			// CDEC delta of gamma 1 is lost only with all its n-k+1 rows: of the
			// 2^n-1 patterns that hit group 1, the 2^(k-1) that take them all.
			c := analysis.CensusFor(code, 1)
			want := c.MDSRecoverable + c.SparseOnly
			if kind.cfg.CompressDeltas {
				want = 1<<kind.cfg.N - 1 - 1<<(kind.cfg.K-1)
			}
			if kind.cfg.Placement != nil && spareGroup0 != want {
				t.Errorf("v2 read back under %d patterns that spare group 0, want %d", spareGroup0, want)
			}
		})
	}
}

// censusReads is what reading v2 costs: node reads, sparse and compressed
// objects.
type censusReads struct{ nodes, sparse, compressed int }

// censusKind is one stored kind the census runs every failure pattern of.
type censusKind struct {
	name              string
	cfg               core.Config
	maxDead, patterns int                    // maxDead 0: every pattern
	spots             map[string]censusReads // dead nodes -> the reads of v2
}

// censusKinds lists the kinds afresh for each test, which deletes the spot
// rows it reaches.
func censusKinds() []censusKind {
	ns, sys := erasure.NonSystematicCauchy, erasure.SystematicCauchy
	dispersed := store.DispersedPlacement{N: 6}
	return []censusKind{
		{"non-systematic(6,3)", core.Config{Code: ns, N: 6, K: 3}, 0, 64, map[string]censusReads{"[0 2 4]": {5, 1, 0}}},
		{"systematic(6,3)", core.Config{Code: sys, N: 6, K: 3}, 0, 64, map[string]censusReads{"[]": {5, 1, 0}, "[4 5]": {6, 0, 0}}},
		{"non-systematic(8,4)", core.Config{Code: ns, N: 8, K: 4}, 0, 256, nil},
		{"systematic(8,4)", core.Config{Code: sys, N: 8, K: 4}, 0, 256, nil},
		{"cdec(8,4)", core.Config{Code: ns, N: 8, K: 4, CompressDeltas: true}, 0, 256, map[string]censusReads{"[0 2 4 6]": {5, 0, 1}}},
		{"cdec/systematic(8,4)", core.Config{Code: sys, N: 8, K: 4, CompressDeltas: true}, 0, 256, map[string]censusReads{"[0 2 4 6]": {5, 0, 1}}},
		{"reversed(6,3)", core.Config{Scheme: core.ReversedSEC, CheckpointEvery: 2, Code: ns, N: 6, K: 3}, 0, 64, nil},
		{"reversed/systematic(6,3)", core.Config{Scheme: core.ReversedSEC, CheckpointEvery: 2, Code: sys, N: 6, K: 3}, 0, 64, nil},
		{"non-systematic(12,10)", core.Config{Code: ns, N: 12, K: 10}, 4, 794, nil},
		{"dispersed/non-systematic(6,3)", core.Config{Code: ns, N: 6, K: 3, Placement: dispersed}, 0, 4096, nil},
		{"dispersed/systematic(6,3)", core.Config{Code: sys, N: 6, K: 3, Placement: dispersed}, 0, 4096, nil},
		{"windowed/non-systematic(6,3)", core.Config{Code: ns, N: 6, K: 3, BlockSize: 256}, 0, 64, map[string]censusReads{"[0 2 4]": {5, 1, 0}}},
		{"optimized(6,3)", core.Config{Scheme: core.OptimizedSEC, Code: ns, N: 6, K: 3}, 0, 64, map[string]censusReads{"[]": {5, 1, 0}, "[0 2 4]": {5, 1, 0}}},
		{"optimized/systematic(6,3)", core.Config{Scheme: core.OptimizedSEC, Code: sys, N: 6, K: 3}, 0, 64, map[string]censusReads{"[]": {5, 1, 0}, "[4 5]": {6, 0, 0}}},
		{"cdec(6,3)", core.Config{Code: ns, N: 6, K: 3, CompressDeltas: true}, 0, 64, map[string]censusReads{"[]": {4, 0, 1}, "[0 2 4]": {4, 0, 1}}},
		{"cdec/systematic(6,3)", core.Config{Code: sys, N: 6, K: 3, CompressDeltas: true}, 0, 64, map[string]censusReads{"[]": {4, 0, 1}, "[0 1 2]": {4, 0, 1}}},
		{"reversed/cdec(6,3)", core.Config{Scheme: core.ReversedSEC, CheckpointEvery: 2, Code: ns, N: 6, K: 3, CompressDeltas: true}, 0, 64, nil},
		{"dispersed/cdec(6,3)", core.Config{Code: ns, N: 6, K: 3, CompressDeltas: true, Placement: dispersed}, 0, 4096, nil},
	}
}

// censusChain commits on cluster, a fresh growable one, v1 in full, v2 a
// gamma = 1 delta, v3 = v1, v4 = v3 (gamma = 0) and v5 dense; under Basic
// SEC a compaction after v3 rebases it onto v1 as a gamma = 0 delta. A
// dispersed chain stops at v2. Blocks are 4 bytes unless the kind sets a
// size; a kind with blocks of 256 bytes edits only bytes [128, 192) of
// them, v5 included, so every delta is stored at that 64-byte window, but
// the gamma = 0 ones, stored at the first 64 bytes.
func censusChain(t *testing.T, cfg core.Config, cluster *store.Cluster) (*core.Archive, *store.Cluster, [][]byte) {
	t.Helper()
	cfg.Name, cfg.Scheme, cfg.BlockSize = "census", cmp.Or(cfg.Scheme, core.BasicSEC), cmp.Or(cfg.BlockSize, 4)
	a, err := core.New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]byte, 2*a.Capacity())
	rand.New(rand.NewSource(31)).Read(objects)
	v1, v5 := objects[:a.Capacity()], objects[a.Capacity():]
	v2 := editBlocks(v1, cfg.BlockSize, 0)
	windowed := cfg.BlockSize == 256
	if windowed {
		v2, v5 = bytes.Clone(v1), bytes.Clone(v1)
		v2[150] ^= 0xA5
		for b := 0; b < cfg.K; b++ {
			copy(v5[b*256+128:b*256+192], objects[a.Capacity()+b*64:])
		}
	}
	versions := [][]byte{v1, v2, v1, v1, v5}
	if cfg.Placement != nil {
		versions = versions[:2]
	}
	for i, v := range versions {
		mustCommit(t, a, v)
		if i == 2 && cfg.Scheme == core.BasicSEC {
			if info, err := a.CompactToContext(t.Context(), 1); err != nil || len(info.Rebased) != 1 {
				t.Fatalf("compaction rebased %v: %v", info.Rebased, err)
			}
		}
	}
	for _, e := range a.Manifest().Entries {
		want := &core.Window{Off: 128, Width: 64}
		if e.Gamma == 0 {
			want.Off = 0
		}
		if e.Delta && windowed != (e.Window != nil) || windowed && e.Delta && *e.Window != *want {
			t.Fatalf("v%d of a chain with %d-byte blocks stores its delta at window %v", e.Version, cfg.BlockSize, e.Window)
		}
	}
	return a, cluster, versions
}

// censusOracle decides from the manifest alone, calling nothing of the read
// path, which versions survive the nodes down reports dead, and whether a
// wiped node x can be rebuilt: every codeword with a row on x needs its code's
// k rows on other live nodes. A full codeword survives with k live rows, a
// CDEC one (gamma + n - k rows) with gamma, and a plain delta (n rows) with
// gamma = 0, with k, or, when 2*gamma < k, if criterion2
// finds 2*gamma of its live rows that satisfy Criterion 2. A version survives
// if a search reaches it from a surviving full codeword over surviving
// deltas, each joining its version and its base.
func censusOracle(m core.Manifest, place store.Placement, criterion2 func(live []int, size int) bool, down func(node int) bool) (readable []bool, repairable func(x int) bool) {
	type codeword struct { // base 0: a full codeword
		version, base, rows, k, gamma int
		plain                         bool
	}
	var cws []codeword
	for _, e := range m.Entries {
		if e.Full {
			cws = append(cws, codeword{version: e.Version, rows: m.N, k: m.K})
		}
		switch base := cmp.Or(e.Base, e.Version-1); {
		case e.Compressed:
			cws = append(cws, codeword{e.Version, base, e.Gamma + m.N - m.K, e.Gamma, e.Gamma, false})
		case e.Delta:
			cws = append(cws, codeword{e.Version, base, m.N, m.K, e.Gamma, true})
		}
	}
	liveRows := func(cw codeword, lost int) (live []int) {
		for row := 0; row < cw.rows; row++ {
			if node := place.NodeFor(cw.version-1, row); node != lost && !down(node) {
				live = append(live, row)
			}
		}
		return live
	}
	survives := func(cw codeword) bool {
		live, need := liveRows(cw, -1), 2*cw.gamma
		return len(live) >= cw.k || cw.plain && (cw.gamma == 0 || need < cw.k && len(live) >= need && criterion2(live, need))
	}
	readable = make([]bool, len(m.Entries)+1)
	readable[0] = true // the "base" of a full codeword
	for grew := true; grew; {
		grew = false
		for _, cw := range cws {
			if readable[cw.base] != readable[cw.version] && survives(cw) {
				readable[cw.base], readable[cw.version], grew = true, true, true
			}
		}
	}
	return readable, func(x int) bool {
		for _, cw := range cws { // x, being live, holds a row of cw if losing it costs one
			if live := len(liveRows(cw, x)); live < len(liveRows(cw, -1)) && live < cw.k {
				return false
			}
		}
		return true
	}
}
