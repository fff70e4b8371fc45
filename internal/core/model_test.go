package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestArchiveAgainstReferenceModel drives archives with long random
// operation sequences - commits with random sparsity, retrievals of random
// versions, prefix retrievals, failure injection within the fault
// tolerance, device wipes followed by repair - and checks every result
// against a trivial in-memory model (a slice of version contents). After
// every operation the manifest records are held to the same model: an earlier
// snapshot plus the records since must marshal to the manifest itself (see
// replayChecker). Every scheme/code combination is exercised with six
// seeds.
func TestArchiveAgainstReferenceModel(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, kind := range allCodeKinds {
			for seed := int64(0); seed < 6; seed++ {
				name := fmt.Sprintf("%v/%v/seed=%d", scheme, kind, seed)
				t.Run(name, func(t *testing.T) {
					runModelSequence(t, scheme, kind, seed)
				})
			}
		}
	}
}

func runModelSequence(t *testing.T, scheme Scheme, kind erasure.Kind, seed int64) {
	const (
		n, k      = 10, 5
		blockSize = 16
		steps     = 60
	)
	rng := rand.New(rand.NewSource(seed))
	cluster := store.NewMemCluster(0)
	archive, err := New(Config{
		Name:      "model",
		Scheme:    scheme,
		Code:      kind,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}

	var model [][]byte // model[l-1] = contents of version l
	current := make([]byte, k*blockSize)
	rng.Read(current)

	commit := func() {
		// Commits write all n shards durably, so they require a
		// healthy cluster.
		cluster.HealAll()
		next := current
		if len(model) > 0 {
			gamma := rng.Intn(k + 1)
			var err error
			next, err = editRandomBlocks(rng, current, blockSize, gamma)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := archive.CommitContext(t.Context(), next); err != nil {
			t.Fatalf("commit %d: %v", len(model)+1, err)
		}
		current = next
		model = append(model, append([]byte(nil), next...))
	}
	replay := newReplayChecker(t, archive)
	commit() // always start with one version
	replay.check("commit 1")

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // commit a new version
			commit()
		case op < 6: // retrieve a random version
			l := 1 + rng.Intn(len(model))
			got, stats, err := archive.RetrieveContext(t.Context(), l)
			if err != nil {
				t.Fatalf("step %d: retrieve %d: %v", step, l, err)
			}
			if !bytes.Equal(got, model[l-1]) {
				t.Fatalf("step %d: version %d content mismatch", step, l)
			}
			planned, err := archive.PlannedReads(l)
			if err != nil {
				t.Fatal(err)
			}
			if allNodesUp(cluster) && stats.NodeReads != planned {
				t.Fatalf("step %d: measured %d reads, formula predicts %d", step, stats.NodeReads, planned)
			}
		case op < 7: // retrieve a random prefix
			l := 1 + rng.Intn(len(model))
			got, _, err := archive.RetrieveAllContext(t.Context(), l)
			if err != nil {
				t.Fatalf("step %d: retrieveAll %d: %v", step, l, err)
			}
			for j := range got {
				if !bytes.Equal(got[j], model[j]) {
					t.Fatalf("step %d: prefix version %d mismatch", step, j+1)
				}
			}
		case op < 9: // toggle failures within the fault tolerance
			cluster.HealAll()
			for _, node := range rng.Perm(n)[:rng.Intn(n-k+1)] {
				if err := cluster.Fail(node); err != nil {
					t.Fatal(err)
				}
			}
		default: // device replacement: wipe one node and repair it
			cluster.HealAll()
			node := rng.Intn(n)
			wipeArchiveShards(t, archive, cluster, node)
			if _, err := archive.RepairNodeContext(t.Context(), node); err != nil {
				t.Fatalf("step %d: repair node %d: %v", step, node, err)
			}
		}
		replay.check(fmt.Sprintf("step %d", step))
	}

	// Final full verification with all nodes healthy.
	cluster.HealAll()
	all, _, err := archive.RetrieveAllContext(t.Context(), len(model))
	if err != nil {
		t.Fatal(err)
	}
	for j := range all {
		if !bytes.Equal(all[j], model[j]) {
			t.Fatalf("final check: version %d mismatch", j+1)
		}
	}
}

// editRandomBlocks flips bytes in exactly gamma random blocks.
func editRandomBlocks(rng *rand.Rand, object []byte, blockSize, gamma int) ([]byte, error) {
	k := len(object) / blockSize
	if gamma > k {
		gamma = k
	}
	out := append([]byte(nil), object...)
	for _, b := range rng.Perm(k)[:gamma] {
		out[b*blockSize+rng.Intn(blockSize)] ^= byte(1 + rng.Intn(255))
	}
	return out, nil
}

func allNodesUp(cluster *store.Cluster) bool {
	for i := 0; i < cluster.Size(); i++ {
		if !cluster.Available(context.Background(), i) {
			return false
		}
	}
	return true
}

// mixedChain commits the five-version chain that walks every reader: a full
// codeword, a plain sparse delta (2*gamma < k, stored as a build with a
// compress threshold of 1 stored it), a dense delta (gamma = k, read in
// full), a CDEC-compressed delta and an all-zero delta that costs nothing.
func mixedChain(t *testing.T) (*Archive, *store.Cluster, [][]byte) {
	t.Helper()
	const blockSize = 16
	cluster := store.NewMemCluster(0)
	a, err := New(Config{
		Name:           "mixed",
		Scheme:         BasicSEC,
		Code:           erasure.NonSystematicCauchy,
		N:              10,
		K:              5,
		BlockSize:      blockSize,
		CompressDeltas: true,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{0x3C}, a.Capacity())
	v2 := editBlocks(v1, blockSize, 1, 3)
	v3 := editBlocks(v2, blockSize, 0, 1, 2, 3, 4)
	v4 := editBlocks(v3, blockSize, 2)
	versions := [][]byte{v1, v2, v3, v4, v4}
	for i, v := range versions {
		if i == 1 {
			commitPlain(t, a, v)
		} else if _, err := a.CommitContext(t.Context(), v); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	return a, cluster, versions
}

// rebasedChain builds the ten-version chain that takes a whole-prefix read
// through every way it can reach a version. Checkpoints every five commits
// leave full codewords at v1 and v6; a compaction to depth 1 rebases v3 and
// v4 onto v1 and v8 and v9 onto v6 (deltas whose base is not their
// predecessor) and promotes v10 to a checkpoint. v5 is then rebased by hand
// onto v6, a base LATER than the version that no earlier step of the walk has
// in hand - legal in a manifest, though no compaction pass produces it today -
// so the prefix read must fall back to v5's own chain plan, which reads v6 in
// full before v5's delta.
func rebasedChain(t *testing.T) (*Archive, *store.Cluster, [][]byte) {
	t.Helper()
	const blockSize = 16
	cluster := store.NewMemCluster(0)
	a, err := New(Config{
		Name:            "rebased",
		Scheme:          BasicSEC,
		Code:            erasure.NonSystematicCauchy,
		N:               10,
		K:               5,
		BlockSize:       blockSize,
		CheckpointEvery: 5,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{0x3C}, a.Capacity())
	var versions [][]byte
	for i, edit := range [][]int{nil, {0}, {1}, {0}, {2}, {3}, {2}, {4}, {0, 4}, {1}} {
		object = editBlocks(object, blockSize, edit...)
		versions = append(versions, object)
		if _, err := a.CommitContext(t.Context(), object); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	if _, err := a.CompactToContext(t.Context(), 1); err != nil {
		t.Fatal(err)
	}
	x5, err := a.blocking.Split(versions[4])
	if err != nil {
		t.Fatal(err)
	}
	x6, err := a.blocking.Split(versions[5])
	if err != nil {
		t.Fatal(err)
	}
	d, err := delta.Diff(x6, x5)
	if err != nil {
		t.Fatal(err)
	}
	var writes int
	cw, err := a.storeDelta(t.Context(), rebasedDeltaID("rebased", 5, 6), 5, d, &writes)
	if err != nil {
		t.Fatal(err)
	}
	a.entries[4].delta, a.entries[4].base = &cw, 6
	return a, cluster, versions
}

// loseOneRowPerCodeword deletes, from a live node, one row of every stored
// codeword that its healthy read plan fetches: row 1, or row 0 of a
// single-row CDEC plan (colocated placement: row i lives on node i).
func loseOneRowPerCodeword(t *testing.T, a *Archive, cluster *store.Cluster) {
	t.Helper()
	lose := func(id string, row int) {
		nd, err := cluster.Node(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Delete(t.Context(), store.ShardID{Object: id, Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= len(a.entries); v++ {
		for _, cw := range a.stored(v) {
			switch {
			case cw.empty():
			case cw.cdec():
				lose(cw.id, 0)
			default:
				lose(cw.id, 1)
			}
		}
	}
}

// TestMixedChainReadAccounting pins the read accounting of two chains healthy,
// with one node down, and with one shard of every codeword lost on a live node
// (found only when the read comes back short, so every reader has to
// re-plan). The per-object accounting - which objects are read, in which
// order, how many shards each costs and by which decode - is the same in all
// three: only successful reads are charged and a re-plan fetches exactly the
// deficit. What the damage moves is which rows are read, pinned here as reads
// per node (colocated placement: row i lives on node i). A zero delta never
// appears: it costs no reads. On the mixed chain (every reader: full, sparse,
// dense, CDEC, zero) a read of the tip and a read of the whole prefix walk the
// same objects; on the rebased chain the prefix read goes forward from v1,
// through deltas rebased onto earlier anchors, a delta rebased onto a later
// one (v6 is read in full for it, out of version order) and a promoted
// checkpoint, while the tip alone is one full read.
func TestMixedChainReadAccounting(t *testing.T) {
	sparse := func(v, gamma int) ObjectRead {
		return ObjectRead{Version: v, Delta: true, Gamma: gamma, Reads: 2 * gamma, Sparse: true}
	}
	mixed := []ObjectRead{
		{Version: 1, Reads: 5},
		sparse(2, 2),
		{Version: 3, Delta: true, Gamma: 5, Reads: 5},
		{Version: 4, Delta: true, Gamma: 1, Reads: 1, Compressed: true},
	}
	type damage struct {
		name            string
		apply           func(t *testing.T, a *Archive, cluster *store.Cluster)
		tipNodeReads    []uint64
		prefixNodeReads []uint64
	}
	healthy := func(*testing.T, *Archive, *store.Cluster) {}
	deadNode := func(t *testing.T, _ *Archive, cluster *store.Cluster) {
		if err := cluster.Fail(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, chain := range []struct {
		name        string
		build       func(t *testing.T) (*Archive, *store.Cluster, [][]byte)
		tip, prefix []ObjectRead
		damages     []damage
	}{
		{
			name: "mixed", build: mixedChain, tip: mixed, prefix: mixed,
			damages: []damage{
				{"healthy", healthy,
					[]uint64{4, 3, 3, 3, 2, 0, 0, 0, 0, 0}, []uint64{4, 3, 3, 3, 2, 0, 0, 0, 0, 0}},
				{"one dead node", deadNode,
					[]uint64{4, 0, 3, 3, 3, 2, 0, 0, 0, 0}, []uint64{4, 0, 3, 3, 3, 2, 0, 0, 0, 0}},
				{"one lost row per codeword", loseOneRowPerCodeword,
					[]uint64{3, 1, 3, 3, 3, 2, 0, 0, 0, 0}, []uint64{3, 1, 3, 3, 3, 2, 0, 0, 0, 0}},
			},
		},
		{
			name: "rebased", build: rebasedChain,
			tip: []ObjectRead{{Version: 10, Reads: 5}},
			prefix: []ObjectRead{
				{Version: 1, Reads: 5},
				sparse(2, 1), sparse(3, 2), sparse(4, 1),
				{Version: 6, Reads: 5},
				sparse(5, 1), sparse(7, 1), sparse(8, 2), sparse(9, 2),
				{Version: 10, Reads: 5},
			},
			damages: []damage{
				{"healthy", healthy,
					[]uint64{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}, []uint64{10, 10, 6, 6, 3, 0, 0, 0, 0, 0}},
				{"one dead node", deadNode,
					[]uint64{1, 0, 1, 1, 1, 1, 0, 0, 0, 0}, []uint64{10, 0, 10, 6, 6, 3, 0, 0, 0, 0}},
				{"one lost row per codeword", loseOneRowPerCodeword,
					[]uint64{1, 0, 1, 1, 1, 1, 0, 0, 0, 0}, []uint64{10, 0, 10, 6, 6, 3, 0, 0, 0, 0}},
			},
		},
	} {
		for _, dmg := range chain.damages {
			t.Run(chain.name+"/"+dmg.name, func(t *testing.T) {
				a, cluster, versions := chain.build(t)
				dmg.apply(t, a, cluster)
				check := func(what string, stats RetrievalStats, objects []ObjectRead, nodeReads []uint64) {
					t.Helper()
					if len(stats.Objects) != len(objects) {
						t.Fatalf("%s read objects %+v, want %+v", what, stats.Objects, objects)
					}
					var want RetrievalStats
					for i, o := range stats.Objects {
						if o != objects[i] {
							t.Errorf("%s object %d = %+v, want %+v", what, i, o, objects[i])
						}
						want.add(objects[i])
					}
					if stats.NodeReads != want.NodeReads || stats.FullReads != want.FullReads || stats.SparseReads != want.SparseReads ||
						stats.CompressedReads != want.CompressedReads || stats.CacheHits != 0 {
						t.Errorf("%s totals = %+v, want %+v", what, stats, want)
					}
					var got []uint64
					for i := range nodeReads {
						nd, err := cluster.Node(i)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, nd.Stats().Reads)
					}
					if !slices.Equal(got, nodeReads) {
						t.Errorf("%s reads per node = %v, want %v", what, got, nodeReads)
					}
				}
				L := len(versions)
				cluster.ResetStats()
				got, stats, err := a.RetrieveContext(t.Context(), L)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, versions[L-1]) {
					t.Errorf("version %d content mismatch", L)
				}
				check(fmt.Sprintf("RetrieveContext(%d)", L), stats, chain.tip, dmg.tipNodeReads)
				cluster.ResetStats()
				all, stats, err := a.RetrieveAllContext(t.Context(), L)
				if err != nil {
					t.Fatal(err)
				}
				for j := range all {
					if !bytes.Equal(all[j], versions[j]) {
						t.Errorf("prefix version %d content mismatch", j+1)
					}
				}
				check(fmt.Sprintf("RetrieveAllContext(%d)", L), stats, chain.prefix, dmg.prefixNodeReads)
			})
		}
	}
}
