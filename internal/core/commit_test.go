package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestCommitStoresWhatTheDenseEncoderWould pins that a commit's sparse path -
// compare-then-XOR against the cached latest version, then encoding only the
// gamma changed blocks - stores exactly the bytes of the dense reference: the
// k-block delta.Compute of the two versions, put through EncodeInto. The
// chain has gamma 0, 1, k/2 and k deltas, a zero delta straight after a dense
// one (its pooled shard buffers last held dense rows), and is then compacted,
// whose merges diff two materialized versions the same way. Every shard on
// every node is compared, for every shape a delta can be stored in. The
// caller's object is scribbled after each commit: the latest-version cache
// and the next commit's gamma must not have kept any of it.
func TestCommitStoresWhatTheDenseEncoderWould(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Config)
	}{
		{"non-systematic-cauchy", func(*Config) {}},
		{"systematic-cauchy", func(c *Config) { c.Code = erasure.SystematicCauchy }},
		{"punctured", func(c *Config) { c.PunctureDeltas = 2 }},
		{"cdec", func(c *Config) { c.CompressDeltas = true }},
		{"gf16", func(c *Config) { c.Field = GF16 }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			cfg := Config{Name: "dense", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 10, K: 5, BlockSize: 8}
			shape.mut(&cfg)
			cluster := store.NewMemCluster(0)
			a, err := New(cfg, cluster)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(27))
			k := cfg.K
			versions := [][]byte{make([]byte, a.Capacity())}
			rng.Read(versions[0])
			commit := func(want int) {
				t.Helper()
				object := append([]byte(nil), versions[len(versions)-1]...)
				info := mustCommit(t, a, object)
				if info.Gamma != want {
					t.Fatalf("version %d: gamma %d, want %d", info.Version, info.Gamma, want)
				}
				for i := range object {
					object[i] = 0xA5
				}
				if latest, err := a.blocking.Join(a.cache, a.entries[len(a.entries)-1].length); err != nil || !bytes.Equal(latest, versions[len(versions)-1]) {
					t.Fatalf("version %d: the latest-version cache changed with the caller's object", info.Version)
				}
			}
			commit(0)
			for _, gamma := range []int{k, 0, 1, k / 2, k, 0, 1, k / 2, 0, 1} {
				next := append([]byte(nil), versions[len(versions)-1]...)
				for _, b := range rng.Perm(k)[:gamma] {
					next[b*cfg.BlockSize+rng.Intn(cfg.BlockSize)] ^= byte(1 + rng.Intn(255))
				}
				versions = append(versions, next)
				commit(gamma)
			}
			nodesHoldTheDenseEncoding(t, a, cluster, versions, "after commit")

			info, err := a.CompactToContext(t.Context(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Rebased) == 0 || len(info.Promoted) == 0 {
				t.Fatalf("compaction rebased %v and promoted %v; the test wants both", info.Rebased, info.Promoted)
			}
			nodesHoldTheDenseEncoding(t, a, cluster, versions, "after compaction")
		})
	}
}

// nodesHoldTheDenseEncoding compares every row of every codeword the chain
// lists, as its node holds it, with the dense encoding of what the codeword
// stands for: the Split version for a full codeword; for a delta, the
// delta.Compute of its version against its base, expanded for a plain delta
// and its support's blocks alone for a CDEC-compacted one. A row is the
// codeword's window of the dense row, which is zero outside it.
func nodesHoldTheDenseEncoding(t *testing.T, a *Archive, cluster *store.Cluster, versions [][]byte, when string) {
	t.Helper()
	split := func(v int) [][]byte {
		blocks, err := a.blocking.Split(versions[v-1])
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	for v := 1; v <= len(a.entries); v++ {
		for _, cw := range mustStored(t, a, v) {
			blocks := split(v)
			if cw.delta {
				z, err := delta.Compute(split(entryBase(a.entries, v)), blocks)
				if err != nil {
					t.Fatal(err)
				}
				if blocks = z; cw.cdec() {
					if !reflect.DeepEqual(cw.support, delta.Support(z)) {
						t.Fatalf("%s: %s lists support %v, the delta's is %v", when, cw.id, cw.support, delta.Support(z))
					}
					blocks = nil
					for _, s := range cw.support {
						blocks = append(blocks, z[s])
					}
				}
			}
			want, err := cw.code.Encode(blocks)
			if err != nil {
				t.Fatal(err)
			}
			for row, ref := range a.rowRefs(cw, allRows(cw.code.N())) {
				node, err := cluster.Node(ref.Node)
				if err != nil {
					t.Fatal(err)
				}
				got, err := node.Get(t.Context(), ref.ID)
				if err != nil {
					t.Fatalf("%s: %s#%d: %v", when, cw.id, row, err)
				}
				if !bytes.Equal(got, want[row][cw.off:cw.off+cw.width]) {
					t.Errorf("%s: %s#%d differs from the dense encoding at [%d,%d)", when, cw.id, row, cw.off, cw.off+cw.width)
				}
				if delta.Sparsity([][]byte{want[row][:cw.off], want[row][cw.off+cw.width:]}) != 0 {
					t.Errorf("%s: %s#%d: the dense row is not zero outside [%d,%d)", when, cw.id, row, cw.off, cw.off+cw.width)
				}
			}
		}
	}
}

// callCounted wraps a node and counts every call that reaches it.
type callCounted struct {
	store.Node
	calls *atomic.Int64
}

func (n callCounted) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	n.calls.Add(1)
	return n.Node.GetBatch(ctx, ids)
}

func (n callCounted) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	n.calls.Add(1)
	return n.Node.PutBatch(ctx, ids, data)
}

func (n callCounted) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	n.calls.Add(1)
	return n.Node.DeleteBatch(ctx, ids)
}

func (n callCounted) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	n.calls.Add(1)
	return n.Node.Get(ctx, id)
}

func (n callCounted) Put(ctx context.Context, id store.ShardID, data []byte) error {
	n.calls.Add(1)
	return n.Node.Put(ctx, id, data)
}

func (n callCounted) Delete(ctx context.Context, id store.ShardID) error {
	n.calls.Add(1)
	return n.Node.Delete(ctx, id)
}

func (n callCounted) Available(ctx context.Context) bool {
	n.calls.Add(1)
	return n.Node.Available(ctx)
}

// TestOversizedCommitMakesNoNodeCalls: an object over the capacity is refused
// before the commit does anything on the nodes - not even the restore of a
// latest-version cache the archive does not hold - and the superseded queue
// is left as it was.
func TestOversizedCommitMakesNoNodeCalls(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	calls := &atomic.Int64{}
	nodes := make([]store.Node, cfg.N)
	for i := range nodes {
		nodes[i] = callCounted{Node: store.NewMemNode(fmt.Sprintf("node-%d", i)), calls: calls}
	}
	a, err := New(cfg, store.NewCluster(nodes))
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{3}, a.Capacity())
	mustCommit(t, a, object)
	for b := 0; b < cfg.K; b++ {
		object = editBlocks(object, cfg.BlockSize, b)
		mustCommit(t, a, object)
	}
	if _, err := a.CompactToContext(t.Context(), 1); err != nil {
		t.Fatal(err)
	}
	queuedIDs := func() (ids []string) {
		for _, cw := range a.superseded {
			ids = append(ids, cw.id)
		}
		return ids
	}
	queued := queuedIDs()
	if len(queued) == 0 {
		t.Fatal("compaction queued nothing; the test wants a non-empty superseded queue")
	}
	a.cache = nil // as an archive opened from its manifest holds none

	calls.Store(0)
	_, err = a.CommitContext(t.Context(), make([]byte, a.Capacity()+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds blocking capacity") {
		t.Fatalf("oversized commit: err = %v, want the capacity refusal", err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("oversized commit made %d node calls, want 0", got)
	}
	if got := queuedIDs(); !reflect.DeepEqual(got, queued) {
		t.Errorf("superseded queue = %v, want it as it was: %v", got, queued)
	}
	if a.Versions() != cfg.K+1 {
		t.Errorf("versions = %d, want %d", a.Versions(), cfg.K+1)
	}
}
