package vcs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func TestRepositoryCompactBoundsHotFiles(t *testing.T) {
	cluster := store.NewMemCluster(6)
	repo, err := NewRepository(core.Config{
		Scheme:    core.BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 4,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	// One hot file revised every commit, one cold file written once.
	hot := bytes.Repeat([]byte{1}, 12)
	if _, err := repo.CommitContext(t.Context(), "r1", map[string][]byte{
		"hot.txt":  hot,
		"cold.txt": bytes.Repeat([]byte{9}, 12),
	}); err != nil {
		t.Fatal(err)
	}
	var hots [][]byte
	hots = append(hots, append([]byte(nil), hot...))
	for r := 2; r <= 8; r++ {
		hot = append([]byte(nil), hot...)
		hot[(r%3)*4] ^= 0xA5
		hots = append(hots, append([]byte(nil), hot...))
		if _, err := repo.CommitContext(t.Context(), fmt.Sprintf("r%d", r), map[string][]byte{"hot.txt": hot}); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := repo.CompactContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := changed["hot.txt"]; !ok {
		t.Fatalf("hot file not compacted: %v", changed)
	}
	if _, ok := changed["cold.txt"]; ok {
		t.Error("cold file reported as compacted")
	}
	for r := 1; r <= 8; r++ {
		content, _, err := repo.CheckoutFileContext(t.Context(), "hot.txt", r)
		if err != nil {
			t.Fatalf("checkout hot.txt@%d: %v", r, err)
		}
		if !bytes.Equal(content, hots[r-1]) {
			t.Errorf("hot.txt@%d differs after compaction", r)
		}
	}
	if got := chainDepths(t, repo, "hot.txt"); len(got) != 8 || slices.Max(got) > 3 {
		t.Errorf("hot.txt chain depths %v: want 8 versions within bound 3", got)
	}
}

// chainDepths reads a file's per-version chain depths off its archive's
// log, the way any client of the gateway sees them.
func chainDepths(t *testing.T, repo *Repository, path string) []int {
	t.Helper()
	entries, err := repo.client.Log(t.Context(), archiveName(path))
	if err != nil {
		t.Fatal(err)
	}
	depths := make([]int, len(entries))
	for i, e := range entries {
		depths[i] = e.ChainDepth
	}
	return depths
}

func TestRepositoryLifecycleConfigFlowsToArchives(t *testing.T) {
	cluster := store.NewMemCluster(6)
	repo, err := NewRepository(core.Config{
		Scheme:          core.BasicSEC,
		Code:            erasure.NonSystematicCauchy,
		N:               6,
		K:               3,
		BlockSize:       4,
		MaxChainLength:  2,
		CheckpointEvery: 4,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte{2}, 12)
	var want [][]byte
	for r := 1; r <= 7; r++ {
		if r > 1 {
			content = append([]byte(nil), content...)
			content[(r%3)*4] ^= 0x5A
		}
		want = append(want, append([]byte(nil), content...))
		if _, err := repo.CommitContext(t.Context(), "r", map[string][]byte{"f": content}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := repo.client.Info(t.Context(), archiveName("f"))
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Manifest.MaxChainLength; got != 2 {
		t.Errorf("archive MaxChainLength = %d, want 2", got)
	}
	if got := chainDepths(t, repo, "f"); len(got) != 7 || slices.Max(got) > 2 {
		t.Errorf("chain depths %v: want 7 versions within auto-compaction bound 2", got)
	}
	// The gateway reclaimed what each auto-compaction superseded as the
	// commits went, so node storage does not leak commit over commit:
	// every node holds one shard per live codeword, plus its copies of the
	// manifest objects - the snapshot and each record published since it
	// was folded (fewer than one per commit) are on n-k+1 = 4 nodes each -
	// and nothing else.
	live := 0
	for _, e := range info.Manifest.Entries {
		if e.Full {
			live++
		}
		if e.Delta {
			live++
		}
	}
	copies := map[string]int{} // manifest object -> nodes holding it
	for i := 0; i < cluster.Size(); i++ {
		node, err := cluster.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for gen := uint64(0); gen <= info.Manifest.Generation; gen++ {
			object := archiveName("f") + "/manifest"
			if gen > 0 {
				object = fmt.Sprintf("%s/%d", object, gen)
			}
			if _, err := node.Get(t.Context(), store.ShardID{Object: object}); err == nil {
				copies[object]++
				held++
			}
		}
		if got := node.(*store.MemNode).Len(); got != live+held {
			t.Errorf("node %d holds %d objects, want %d codeword shards and %d manifest copies (superseded codewords not reclaimed)", i, got, live, held)
		}
	}
	if len(copies) < 1 || len(copies) > 7 {
		t.Errorf("the nodes hold %d manifest objects after 7 commits, want the snapshot and fewer than 7 records", len(copies))
	}
	for object, nodes := range copies {
		if nodes != 4 {
			t.Errorf("%s is on %d nodes, want n-k+1 = 4", object, nodes)
		}
	}
	if copies[archiveName("f")+"/manifest"] == 0 {
		t.Error("no node holds the snapshot")
	}
	for r := 1; r <= 7; r++ {
		content, _, err := repo.CheckoutFileContext(t.Context(), "f", r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(content, want[r-1]) {
			t.Errorf("f@%d differs under lifecycle config", r)
		}
	}
}
