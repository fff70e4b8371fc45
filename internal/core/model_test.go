package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestArchiveAgainstReferenceModel drives archives with long random
// operation sequences - commits with random sparsity, retrievals of random
// versions, prefix retrievals, failure injection within the fault
// tolerance, device wipes followed by repair - and checks every result
// against a trivial in-memory model (a slice of version contents). Every
// scheme/code combination is exercised with several seeds.
func TestArchiveAgainstReferenceModel(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, kind := range allCodeKinds {
			for seed := int64(0); seed < 3; seed++ {
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
	commit() // always start with one version

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

// wipeArchiveShards deletes every shard of the archive on the node.
func wipeArchiveShards(t *testing.T, a *Archive, cluster *store.Cluster, node int) {
	t.Helper()
	nd, err := cluster.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	m := a.Manifest()
	for _, e := range m.Entries {
		for row := 0; row < m.N; row++ {
			if a.Config().Placement.NodeFor(e.Version-1, row) != node {
				continue
			}
			if e.Full {
				_ = nd.Delete(t.Context(), store.ShardID{Object: fullID(m.Name, e.Version), Row: row})
			}
			if e.Delta {
				_ = nd.Delete(t.Context(), store.ShardID{Object: deltaID(m.Name, e.Version), Row: row})
			}
		}
	}
}

// mixedChain commits the five-version chain that walks every reader: a full
// codeword, a sparse delta (2*gamma < k), a dense delta (gamma = k, read in
// full), a CDEC-compressed delta (gamma within CompressGammaMax) and an
// all-zero delta that costs nothing.
func mixedChain(t *testing.T) (*Archive, *store.Cluster, [][]byte) {
	t.Helper()
	const blockSize = 16
	cluster := store.NewMemCluster(0)
	a, err := New(Config{
		Name:             "mixed",
		Scheme:           BasicSEC,
		Code:             erasure.NonSystematicCauchy,
		N:                10,
		K:                5,
		BlockSize:        blockSize,
		CompressDeltas:   true,
		CompressGammaMax: 1,
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
		if _, err := a.CommitContext(t.Context(), v); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	return a, cluster, versions
}

// TestMixedChainReadAccounting pins the read accounting of the mixed chain
// healthy, with one node down, and with one shard of every codeword lost on
// a live node (found only when the read comes back short, so every reader
// has to re-plan). The per-object accounting - which objects are read, how
// many shards each costs and by which decode - is the same in all three:
// only successful reads are charged and a re-plan fetches exactly the
// deficit. What the damage moves is which rows are read, pinned here as
// reads per node (colocated placement: row i lives on node i). Version 5's
// zero delta never appears: it costs no reads. RetrieveContext prefetches
// the whole chain; RetrieveAllContext reads the deltas past the first walk
// one object at a time, and both must choose the same rows.
func TestMixedChainReadAccounting(t *testing.T) {
	objects := []ObjectRead{
		{Version: 1, Reads: 5},
		{Version: 2, Delta: true, Gamma: 2, Reads: 4, Sparse: true},
		{Version: 3, Delta: true, Gamma: 5, Reads: 5},
		{Version: 4, Delta: true, Gamma: 1, Reads: 1, Compressed: true},
	}
	for _, tt := range []struct {
		name      string
		damage    func(t *testing.T, cluster *store.Cluster)
		nodeReads []uint64
	}{
		{
			name:      "healthy",
			damage:    func(*testing.T, *store.Cluster) {},
			nodeReads: []uint64{4, 3, 3, 3, 2, 0, 0, 0, 0, 0},
		},
		{
			name: "one dead node",
			damage: func(t *testing.T, cluster *store.Cluster) {
				if err := cluster.Fail(1); err != nil {
					t.Fatal(err)
				}
			},
			nodeReads: []uint64{4, 0, 3, 3, 3, 2, 0, 0, 0, 0},
		},
		{
			name: "one lost row per codeword",
			damage: func(t *testing.T, cluster *store.Cluster) {
				for _, lost := range []struct {
					id  string
					row int
				}{
					{fullID("mixed", 1), 1},
					{deltaID("mixed", 2), 1},
					{deltaID("mixed", 3), 1},
					{deltaID("mixed", 4), 0},
				} {
					nd, err := cluster.Node(lost.row)
					if err != nil {
						t.Fatal(err)
					}
					if err := nd.Delete(t.Context(), store.ShardID{Object: lost.id, Row: lost.row}); err != nil {
						t.Fatal(err)
					}
				}
			},
			nodeReads: []uint64{3, 1, 3, 3, 3, 2, 0, 0, 0, 0},
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			a, cluster, versions := mixedChain(t)
			tt.damage(t, cluster)
			check := func(what string, stats RetrievalStats) {
				t.Helper()
				if len(stats.Objects) != len(objects) {
					t.Fatalf("%s read objects %+v, want %+v", what, stats.Objects, objects)
				}
				total := 0
				for i, o := range stats.Objects {
					if o != objects[i] {
						t.Errorf("%s object %d = %+v, want %+v", what, i, o, objects[i])
					}
					total += o.Reads
				}
				if stats.NodeReads != total || stats.FullReads != 2 || stats.SparseReads != 1 || stats.CompressedReads != 1 || stats.Hedges != 0 {
					t.Errorf("%s totals = %+v, want %d reads over 2 full, 1 sparse, 1 compressed", what, stats, total)
				}
				for i, want := range tt.nodeReads {
					nd, err := cluster.Node(i)
					if err != nil {
						t.Fatal(err)
					}
					if got := nd.Stats().Reads; got != want {
						t.Errorf("%s read %d shards from node %d, want %d", what, got, i, want)
					}
				}
			}
			cluster.ResetStats()
			got, stats, err := a.RetrieveContext(t.Context(), 5)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, versions[4]) {
				t.Error("version 5 content mismatch")
			}
			check("RetrieveContext(5)", stats)
			cluster.ResetStats()
			all, stats, err := a.RetrieveAllContext(t.Context(), 5)
			if err != nil {
				t.Fatal(err)
			}
			for j := range all {
				if !bytes.Equal(all[j], versions[j]) {
					t.Errorf("prefix version %d content mismatch", j+1)
				}
			}
			check("RetrieveAllContext(5)", stats)
		})
	}
}
