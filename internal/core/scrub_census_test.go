package core_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// TestScrubCensus holds scrub to the unique-decoding radius on every census
// kind: every pattern of at most n-k silently flipped rows (byte 3 of each,
// XORed with 0x40) of a full codeword, and of a delta, with every node up
// and with each node that holds one of the codeword's rows down. With m rows
// of the codeword readable, c of them flipped, and r = (m-k)/2 the radius,
// a scrub with repair heals the c rows byte-identical when c <= r. When
// c + r <= m-k, so that no codeword lies within r of the rows, it writes
// nothing and counts the codeword unverified. Past both, the rows may lie
// within r of another codeword, or be one (the code's distance is m-k+1):
// scrub then writes nothing and counts the codeword unverified, as before,
// or rewrites rows to that other codeword, or finds no damage at all; the
// census counts and pins how often each happens. Every other stored shard
// keeps its bytes, a flipped row on the down node included.
func TestScrubCensus(t *testing.T) {
	// patterns, healed, unverified; rewritten and passed past the radius.
	countsOf := map[string][5]int{
		"non-systematic(6,3)":           {588, 158, 430, 0, 0},
		"systematic(6,3)":               {588, 158, 390, 40, 0},
		"non-systematic(8,4)":           {2934, 330, 2604, 0, 0},
		"cdec(8,4)":                     {1653, 231, 1422, 0, 0},
		"gf16(6,3)":                     {588, 158, 430, 0, 0},
		"reversed(6,3)":                 {588, 158, 430, 0, 0},
		"non-systematic(12,10)":         {2054, 74, 1964, 8, 8},
		"dispersed/non-systematic(6,3)": {588, 158, 430, 0, 0},
		"dispersed/systematic(6,3)":     {588, 158, 390, 40, 0},
		"windowed/non-systematic(6,3)":  {588, 158, 430, 0, 0},
		"vandermonde(6,3)":              {588, 158, 430, 0, 0},
		"systematic-vandermonde(6,3)":   {588, 158, 290, 132, 8},
		"optimized(6,3)":                {588, 158, 430, 0, 0},
		"cdec(6,3)":                     {369, 116, 253, 0, 0},
		"cdec/systematic(6,3)":          {369, 116, 227, 26, 0},
		"reversed/cdec(6,3)":            {369, 116, 253, 0, 0},
		"dispersed/cdec(6,3)":           {369, 116, 253, 0, 0},
	}
	for _, kind := range censusKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			place := cmp.Or(kind.cfg.Placement, store.Placement(store.ColocatedPlacement{}))
			a, cluster, _ := censusChain(t, kind.cfg, store.NewGrowableCluster(newHashingNode))
			var counts [5]int
			for _, target := range lengthTargets(t, a.Manifest()) {
				shard := func(row int) shardAt {
					return shardAt{place.NodeFor(target.version-1, row), store.ShardID{Object: target.id, Row: row}}
				}
				downs := []int{-1} // no node down, then each node holding a row
				for row := 0; row < target.rows; row++ {
					if node := shard(row).node; !slices.Contains(downs, node) {
						downs = append(downs, node)
					}
				}
				// What a scrub of the healthy chain reports with each node down:
				// other codewords' rows on it are unreachable, nothing else.
				healthy := make(map[int]core.ScrubReport)
				for _, down := range downs {
					healthy[down] = scrubWithDown(t, a, cluster, down)
					if r := healthy[down]; r.ShardsCorrupt+r.ShardsMissing+r.ObjectsUnverified+r.ObjectsUndecodable+r.Repaired != 0 {
						t.Fatalf("%s: healthy scrub with node %d down: %+v", kind.name, down, r)
					}
				}
				for mask := 0; mask < 1<<target.rows; mask++ {
					if bits.OnesCount(uint(mask)) > target.rows-target.k {
						continue
					}
					for _, down := range downs {
						counts[0]++
						at := fmt.Sprintf("%s/%s rows %b, node %d down", kind.name, target.id, mask, down)
						originals := make(map[shardAt][]byte) // the right bytes of every row
						m, c := target.rows, 0                // rows readable, and flipped among them
						for row := 0; row < target.rows; row++ {
							sh := shard(row)
							originals[sh] = bytes.Clone(shardOn(t, cluster, sh))
							if sh.node == down {
								m--
							}
							if mask>>row&1 == 0 {
								continue
							}
							if sh.node != down {
								c++
							}
							flipped := bytes.Clone(originals[sh])
							flipped[3] ^= 0x40
							putOn(t, cluster, sh, flipped)
						}
						radius := (m - target.k) / 2
						heals := m > target.k && c <= radius
						detects := m <= target.k || c+radius <= m-target.k
						before := storedHashes(t, cluster)
						report := scrubWithDown(t, a, cluster, down)
						want := healthy[down]
						want.ShardsChecked = report.ShardsChecked
						rewritten := !heals && !detects && report.Repaired > 0
						switch {
						case heals:
							want.ShardsCorrupt, want.Repaired = c, c
							counts[1]++
						case rewritten:
							want.ShardsCorrupt, want.Repaired = report.ShardsCorrupt, report.Repaired
							counts[3]++
						case !detects && report == want:
							counts[4]++
						default:
							want.ObjectsUnverified++
							counts[2]++
						}
						if report != want {
							t.Fatalf("%s: scrub = %+v; want %+v", at, report, want)
						}
						for sh, sum := range storedHashes(t, cluster) {
							data, ok := originals[sh]
							switch {
							case heals && ok && sh.node != down:
								if sum != sha256.Sum256(data) {
									t.Fatalf("%s: scrub did not heal %v on node %d", at, sh.id, sh.node)
								}
							case rewritten && ok && sh.node != down:
								// rows of a codeword within the radius, not this one
							case sum != before[sh]:
								t.Fatalf("%s: scrub rewrote %v on node %d, a healthy shard or one it could not verify", at, sh.id, sh.node)
							}
						}
						for sh, data := range originals {
							putOn(t, cluster, sh, data)
						}
					}
				}
			}
			t.Logf("%d flip patterns: %d healed, %d unverified; past the radius %d rewritten, %d passed", counts[0], counts[1], counts[2], counts[3], counts[4])
			if counts != countsOf[kind.name] {
				t.Errorf("patterns, healed, unverified, rewritten, passed = %v, want %v", counts, countsOf[kind.name])
			}
		})
	}
}

// scrubWithDown scrubs with repair while the given node, unless it is -1,
// is down.
func scrubWithDown(t *testing.T, a *core.Archive, cluster *store.Cluster, down int) core.ScrubReport {
	t.Helper()
	if down >= 0 {
		if err := cluster.Fail(down); err != nil {
			t.Fatal(err)
		}
		defer cluster.HealAll()
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatalf("scrub with node %d down: %v", down, err)
	}
	return report
}
