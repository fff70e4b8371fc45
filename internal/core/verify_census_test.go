package core_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestVerifiedReadCensus holds everything that hands out or keeps a decoded
// version to the CRC32C its commit recorded, on every census kind. With any
// one stored row silently flipped (byte 3, XORed with 0x40, as
// TestScrubCensus flips it), each of these returns the committed bytes or
// an error that is store.ErrCorrupt, never wrong bytes: RetrieveContext of
// every version and RetrieveAllContext on a reopened archive with the read
// cache on, a commit on another, which first restores the tip it computes
// its delta against, and CompactToContext on a third. Once the row is put
// back, the reader serves every version right, so its cache kept nothing
// the flipped row decoded; a commit or a compaction refused retries and
// succeeds, and the manifest it leaves reads back byte-identical.
func TestVerifiedReadCensus(t *testing.T) {
	for _, kind := range censusKinds() {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			kind.cfg.ReadCacheBytes = 1 << 20
			_, cluster, _ := censusChain(t, kind.cfg, store.NewGrowableCluster(newHashingNode))
			shards := slices.SortedFunc(maps.Keys(storedHashes(t, cluster)), func(x, y shardAt) int {
				return cmp.Or(cmp.Compare(x.id.Object, y.id.Object), cmp.Compare(x.id.Row, y.id.Row), cmp.Compare(x.node, y.node))
			})
			caught := 0
			for _, sh := range shards {
				a, cluster, versions := censusChain(t, kind.cfg, store.NewGrowableCluster(newHashingNode))
				at := fmt.Sprintf("%s, %v on node %d flipped", kind.name, sh.id, sh.node)
				m := a.Manifest()
				original := bytes.Clone(shardOn(t, cluster, sh))
				flip := func() {
					flipped := bytes.Clone(original)
					flipped[3] ^= 0x40
					putOn(t, cluster, sh, flipped)
				}
				check := func(op string, got, want []byte, err error) {
					t.Helper()
					switch {
					case errors.Is(err, store.ErrCorrupt):
						caught++
					case err != nil:
						t.Fatalf("%s: %s: %v, want the committed bytes or ErrCorrupt", at, op, err)
					case !bytes.Equal(got, want):
						t.Fatalf("%s: %s returned wrong bytes", at, op)
					}
				}

				flip()
				reader := openCensus(t, m, cluster)
				for v, want := range versions {
					got, _, err := reader.RetrieveContext(t.Context(), v+1)
					check(fmt.Sprintf("Retrieve(%d)", v+1), got, want, err)
				}
				if all, _, err := reader.RetrieveAllContext(t.Context(), len(versions)); err != nil {
					check("RetrieveAll", nil, nil, err)
				} else {
					for v, want := range versions {
						check(fmt.Sprintf("RetrieveAll, v%d", v+1), all[v], want, nil)
					}
				}
				next := core.EditBlocksForExternal(versions[len(versions)-1], kind.cfg.BlockSize, 1)
				writer := openCensus(t, m, cluster)
				_, err := writer.CommitContext(t.Context(), next)
				check("Commit after a reopen", nil, nil, err)
				putOn(t, cluster, sh, original)
				for v, want := range versions {
					if got, _ := core.MustRetrieveForExternal(t, reader, v+1); !bytes.Equal(got, want) {
						t.Fatalf("%s: after the row was put back, v%d reads wrong: the read cache kept a wrong decode", at, v+1)
					}
				}
				if err != nil {
					core.MustCommitForExternal(t, writer, next)
				}
				requireReadsBack(t, at+", after the commit", openCensus(t, writer.Manifest(), cluster), append(slices.Clone(versions), next))

				flip()
				compactor := openCensus(t, m, cluster)
				_, err = compactor.CompactToContext(t.Context(), 1)
				check("Compact", nil, nil, err)
				putOn(t, cluster, sh, original)
				if err != nil {
					if _, err := compactor.CompactToContext(t.Context(), 1); err != nil {
						t.Fatalf("%s: compaction with the row put back: %v", at, err)
					}
				}
				requireReadsBack(t, at+", after the compaction", openCensus(t, compactor.Manifest(), cluster), versions)
			}
			t.Logf("%d rows flipped one at a time: %d operations refused with ErrCorrupt", len(shards), caught)
			if caught == 0 {
				t.Error("no flipped row was ever caught: the census reads nothing it flips")
			}
		})
	}
}

// openCensus opens the manifest on the cluster, as a process that did not
// commit it would.
func openCensus(t *testing.T, m core.Manifest, cluster *store.Cluster) *core.Archive {
	t.Helper()
	a, err := core.Open(m, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// requireReadsBack requires every version of a to read back as committed.
func requireReadsBack(t *testing.T, at string, a *core.Archive, versions [][]byte) {
	t.Helper()
	if a.Versions() != len(versions) {
		t.Fatalf("%s: %d versions, want %d", at, a.Versions(), len(versions))
	}
	for v, want := range versions {
		if got, _ := core.MustRetrieveForExternal(t, a, v+1); !bytes.Equal(got, want) {
			t.Fatalf("%s: v%d differs from its commit", at, v+1)
		}
	}
}

// TestVerifiedPaddingAndCancellingRows covers two wrong decodes that the
// requested version's CRC32C alone cannot see. A flipped data row of a
// systematic v1 that lands only past the end of a shorter v2 leaves v2's
// bytes right and its zero padding wrong; a commit diffs the whole blocks
// of the tip it restores, so it must refuse rather than store a delta that
// makes the new version read wrong. And a row that the equal deltas of v2
// and its revert v3 both read wrong in the same way leaves v3 right and v2
// wrong: a read of v3 through v2 must not cache v2.
func TestVerifiedPaddingAndCancellingRows(t *testing.T) {
	flip := func(cluster *store.Cluster, node int, id store.ShardID) (restore func()) {
		t.Helper()
		n, _ := cluster.Node(node)
		original, err := n.Get(t.Context(), id)
		if err != nil {
			t.Fatal(err)
		}
		original = bytes.Clone(original) // node memory is read-only
		flipped := bytes.Clone(original)
		flipped[3] ^= 0x40
		if err := n.Put(t.Context(), id, flipped); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := n.Put(t.Context(), id, original); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))

	t.Run("padding", func(t *testing.T) {
		cluster := store.NewMemCluster(0)
		a, err := core.New(core.TestConfigForExternal(core.BasicSEC, erasure.SystematicCauchy), cluster)
		if err != nil {
			t.Fatal(err)
		}
		v1, v3 := make([]byte, a.Capacity()), make([]byte, a.Capacity())
		rng.Read(v1)
		rng.Read(v3)
		v2 := bytes.Clone(v1[:4]) // block 0 only: blocks 1 and 2 are padding
		v2[0] ^= 1
		core.MustCommitForExternal(t, a, v1)
		core.MustCommitForExternal(t, a, v2)
		restore := flip(cluster, 2, store.ShardID{Object: core.FullIDForExternal("t", 1), Row: 2}) // block 2 of v1
		writer := openCensus(t, a.Manifest(), cluster)
		if _, err := writer.CommitContext(t.Context(), v3); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("commit on a tip decoded with wrong padding: %v, want ErrCorrupt", err)
		}
		restore()
		core.MustCommitForExternal(t, writer, v3)
		requireReadsBack(t, "after the commit", openCensus(t, writer.Manifest(), cluster), [][]byte{v1, v2, v3})
	})

	t.Run("cancelling rows", func(t *testing.T) {
		cluster := store.NewMemCluster(0)
		cfg := core.TestConfigForExternal(core.BasicSEC, erasure.NonSystematicCauchy)
		cfg.ReadCacheBytes = 1 << 20
		a, err := core.New(cfg, cluster)
		if err != nil {
			t.Fatal(err)
		}
		v1 := make([]byte, a.Capacity())
		rng.Read(v1)
		versions := [][]byte{v1, core.EditBlocksForExternal(v1, cfg.BlockSize, 1), v1}
		for _, v := range versions {
			core.MustCommitForExternal(t, a, v)
		}
		var restores []func()
		for _, v := range []int{2, 3} { // the two deltas are one codeword's bytes
			restores = append(restores, flip(cluster, 0, store.ShardID{Object: core.DeltaIDForExternal("t", v), Row: 0}))
		}
		reader := openCensus(t, a.Manifest(), cluster)
		if _, _, err := reader.RetrieveContext(t.Context(), 3); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("read of v3 through a wrongly decoded v2: %v, want ErrCorrupt", err)
		}
		for _, restore := range restores {
			restore()
		}
		requireReadsBack(t, "after the rows were put back", reader, versions)
	})
}

// TestStrippedDigestsReadUnverified opens a chain whose manifest lost every
// digest, as a build from before digests writes it back: every version
// still reads byte-identical, unverified, the read cache keeps nothing a
// walk decoded, since nothing vouches for it, and the next commit records
// its own digest.
func TestStrippedDigestsReadUnverified(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := core.TestConfigForExternal(core.BasicSEC, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 1 << 20
	a, err := core.New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{17}, a.Capacity())
	versions := [][]byte{v1, core.EditBlocksForExternal(v1, cfg.BlockSize, 1), core.EditBlocksForExternal(v1, cfg.BlockSize, 2)}
	for _, v := range versions {
		core.MustCommitForExternal(t, a, v)
	}
	var saved bytes.Buffer
	if err := a.Save(&saved); err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`,\n\s*"crc32c": "[0-9a-f]{8}"`).ReplaceAll(saved.Bytes(), nil)
	if bytes.Contains(stripped, []byte("crc32c")) || bytes.Equal(stripped, saved.Bytes()) {
		t.Fatalf("stripping the digests left\n%s", stripped)
	}
	b, err := core.Load(bytes.NewReader(stripped), cluster)
	if err != nil {
		t.Fatal(err)
	}
	requireReadsBack(t, "stripped", b, versions)
	if cs, _ := b.ReadCacheStats(); cs.Versions != 0 {
		t.Errorf("unverified reads were cached: %+v", cs)
	}
	next := core.EditBlocksForExternal(versions[2], cfg.BlockSize, 0)
	core.MustCommitForExternal(t, b, next)
	if e := b.Manifest().Entries[3]; e.CRC32C == "" {
		t.Errorf("a commit on a stripped chain recorded no digest: %+v", e)
	}
	requireReadsBack(t, "after a commit", openCensus(t, b.Manifest(), cluster), append(versions, next))
}
