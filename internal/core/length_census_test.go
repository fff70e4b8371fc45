package core_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// TestLengthCensus holds the one length rule - a codeword shard is its
// codeword's width, BlockSize bytes or its window's, and a shard of any
// other length is a lost row - to every census kind: every pattern of at most n-k rows of a full codeword, and of a delta,
// each row one byte short or one byte long. Every version reads back
// byte-identical; a scrub rewrites exactly the wrong-length rows when the
// rest verify them (more than k right-length rows) and nothing otherwise,
// and no other stored shard changes; and a node, wiped, is rebuilt to the
// bytes it held - right-length rows, from right-length sources - whenever
// every codeword with a row on it keeps k right-length rows elsewhere, and
// refused with ErrUnavailable when one does not (the next pattern then
// commits afresh).
func TestLengthCensus(t *testing.T) {
	patternsOf := map[string]int{
		"non-systematic(6,3)":           164,
		"systematic(6,3)":               164,
		"non-systematic(8,4)":           648,
		"cdec(8,4)":                     384,
		"gf16(6,3)":                     164,
		"reversed(6,3)":                 164,
		"non-systematic(12,10)":         312,
		"dispersed/non-systematic(6,3)": 164,
		"dispersed/systematic(6,3)":     164,
		"windowed/non-systematic(6,3)":  164,
		"vandermonde(6,3)":              164,
		"systematic-vandermonde(6,3)":   164,
		"optimized(6,3)":                164,
		"cdec(6,3)":                     110,
		"cdec/systematic(6,3)":          110,
		"reversed/cdec(6,3)":            110,
		"dispersed/cdec(6,3)":           110,
	}
	for _, kind := range censusKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			ctx := t.Context()
			place := cmp.Or(kind.cfg.Placement, store.Placement(store.ColocatedPlacement{}))
			fresh := func() (*core.Archive, *store.Cluster, [][]byte) {
				return censusChain(t, kind.cfg, store.NewGrowableCluster(newHashingNode))
			}
			a, cluster, versions := fresh()
			readAll := func(at string) {
				t.Helper()
				for v, want := range versions {
					if got, _, err := a.RetrieveContext(ctx, v+1); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: v%d err = %v, bytes equal %v", at, v+1, err, bytes.Equal(got, want))
					}
				}
			}
			patterns, refused := 0, 0
			for _, target := range lengthTargets(t, a.Manifest()) {
				for mask := 1; mask < 1<<target.rows; mask++ {
					if bits.OnesCount(uint(mask)) > target.rows-target.k {
						continue
					}
					for _, grow := range []bool{false, true} {
						patterns++
						at := fmt.Sprintf("%s/%s rows %b grown %v", kind.name, target.id, mask, grow)
						if a == nil {
							a, cluster, versions = fresh()
						}
						// originals holds the right bytes of every damaged row.
						originals := make(map[shardAt][]byte)
						for row := 0; row < target.rows; row++ {
							if mask>>row&1 == 1 {
								sh := shardAt{place.NodeFor(target.version-1, row), store.ShardID{Object: target.id, Row: row}}
								originals[sh] = bytes.Clone(shardOn(t, cluster, sh))
							}
						}
						damage := func() {
							for sh, data := range originals {
								wrong := data[:len(data)-1]
								if grow {
									wrong = append(bytes.Clone(data), 0xEE)
								}
								putOn(t, cluster, sh, wrong)
							}
						}
						damage()
						readAll(at)

						before := storedHashes(t, cluster)
						report, err := a.ScrubContext(ctx, true)
						verified := len(originals) < target.rows-target.k
						want := core.ScrubReport{ShardsChecked: report.ShardsChecked, ShardsCorrupt: len(originals)}
						if verified {
							want.Repaired = len(originals)
						} else {
							want.ObjectsUnverified = 1
						}
						if err != nil || report != want {
							t.Fatalf("%s: scrub = %+v, %v; want %+v", at, report, err, want)
						}
						for sh, sum := range storedHashes(t, cluster) {
							data, damaged := originals[sh]
							switch {
							case damaged && verified && sum != sha256.Sum256(data):
								t.Fatalf("%s: scrub did not heal %v on node %d", at, sh.id, sh.node)
							case (!damaged || !verified) && sum != before[sh]:
								t.Fatalf("%s: scrub rewrote %v on node %d, a shard it could not verify or a healthy one", at, sh.id, sh.node)
							}
						}

						damage()
						x := patterns % cluster.Size()
						expect := make(map[store.ShardID][]byte) // the bytes node x holds
						node, _ := cluster.Node(x)
						for id := range node.(*hashingNode).stored() {
							data, damaged := originals[shardAt{x, id}]
							if !damaged {
								data = bytes.Clone(shardOn(t, cluster, shardAt{x, id}))
							}
							expect[id] = data
						}
						node.(*hashingNode).Wipe()
						repairable := true
						for row := 0; row < target.rows; row++ {
							_, damaged := originals[shardAt{x, store.ShardID{Object: target.id, Row: row}}]
							repairable = repairable && (damaged || place.NodeFor(target.version-1, row) != x || target.rows-len(originals)-1 >= target.k)
						}
						repair, err := a.RepairNodeContext(ctx, x)
						if !repairable {
							if !errors.Is(err, core.ErrUnavailable) {
								t.Fatalf("%s: repair of wiped node %d: err = %v, want ErrUnavailable", at, x, err)
							}
							a, refused = nil, refused+1 // node x stays empty: the next pattern commits afresh
							continue
						}
						if err != nil || repair.ShardsRepaired != repair.ShardsChecked {
							t.Fatalf("%s: repair of wiped node %d: %+v, %v", at, x, repair, err)
						}
						rebuilt := 0
						for id := range node.(*hashingNode).stored() {
							if got := shardOn(t, cluster, shardAt{x, id}); !bytes.Equal(got, expect[id]) {
								t.Fatalf("%s: node %d rebuilt %v as %d bytes %x, want %x", at, x, id, len(got), got, expect[id])
							}
							rebuilt++
						}
						if rebuilt != repair.ShardsRepaired {
							t.Fatalf("%s: node %d holds %d rebuilt shards, repair reports %d", at, x, rebuilt, repair.ShardsRepaired)
						}
						readAll(at + " repaired")
						for sh, data := range originals {
							putOn(t, cluster, sh, data)
						}
					}
				}
			}
			t.Logf("%d length patterns, %d node repairs refused", patterns, refused)
			if patterns != patternsOf[kind.name] {
				t.Errorf("%d length patterns, want %d", patterns, patternsOf[kind.name])
			}
		})
	}
}

// lengthTarget is a codeword the length census damages: its object, the
// version that places its rows, how many rows it has and how many decode it.
type lengthTarget struct {
	id            string
	version, rows int
	k             int
}

// lengthTargets finds, from the manifest alone, the first full codeword and
// the first delta that is not empty and not rebased.
func lengthTargets(t *testing.T, m core.Manifest) []lengthTarget {
	t.Helper()
	var full, delta *lengthTarget
	for _, e := range m.Entries {
		if e.Full && full == nil {
			full = &lengthTarget{id: core.FullIDForExternal(m.Name, e.Version), version: e.Version, rows: m.N, k: m.K}
		}
		if e.Delta && e.Gamma > 0 && e.Base == 0 && delta == nil {
			delta = &lengthTarget{id: core.DeltaIDForExternal(m.Name, e.Version), version: e.Version, rows: m.N, k: m.K}
			if e.Compressed {
				delta.rows, delta.k = e.Gamma+m.N-m.K, e.Gamma
			}
		}
	}
	if full == nil || delta == nil {
		t.Fatalf("the chain holds no full codeword or no delta: %+v", m.Entries)
	}
	return []lengthTarget{*full, *delta}
}

// shardAt is a stored shard and the node that holds it.
type shardAt struct {
	node int
	id   store.ShardID
}

// shardOn returns the stored bytes of a shard, read-only.
func shardOn(t *testing.T, cluster *store.Cluster, at shardAt) []byte {
	t.Helper()
	node, _ := cluster.Node(at.node)
	data, err := node.(*hashingNode).MemNode.Get(t.Context(), at.id)
	if err != nil {
		t.Fatalf("%v on node %d: %v", at.id, at.node, err)
	}
	return data
}

// putOn stores bytes under a shard behind the archive's back: the damage a
// MemNode cannot detect itself, and its undoing.
func putOn(t *testing.T, cluster *store.Cluster, at shardAt, data []byte) {
	t.Helper()
	node, _ := cluster.Node(at.node)
	if err := node.(*hashingNode).MemNode.Put(t.Context(), at.id, data); err != nil {
		t.Fatal(err)
	}
}

// storedHashes hashes every shard the archive has put on the cluster, as it
// is now.
func storedHashes(t *testing.T, cluster *store.Cluster) map[shardAt][sha256.Size]byte {
	t.Helper()
	sums := make(map[shardAt][sha256.Size]byte)
	for i := 0; i < cluster.Size(); i++ {
		node, _ := cluster.Node(i)
		for id := range node.(*hashingNode).stored() {
			sums[shardAt{i, id}] = sha256.Sum256(shardOn(t, cluster, shardAt{i, id}))
		}
	}
	return sums
}
