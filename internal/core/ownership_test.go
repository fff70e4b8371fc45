package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// frameNode hands out shards the way a transport.RemoteNode does - every
// shard of a batch a cap-clipped stretch of one buffer, the response frame -
// and remembers the buffers, so a test can overwrite them once a read has
// returned, as memory that was dropped with its frame may be.
type frameNode struct {
	*store.MemNode
	mu       sync.Mutex
	frames   [][]byte
	failPuts bool
}

func (n *frameNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	results := n.MemNode.GetBatch(ctx, ids)
	var frame []byte
	for _, res := range results {
		frame = append(frame, res.Data...)
	}
	off := 0
	for i, res := range results {
		if res.Err == nil {
			results[i].Data = frame[off : off+len(res.Data) : off+len(res.Data)]
			off += len(res.Data)
		}
	}
	n.mu.Lock()
	n.frames = append(n.frames, frame)
	n.mu.Unlock()
	return results
}

var errPutRefused = errors.New("frameNode: put refused")

func (n *frameNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	if n.failPuts {
		errs := make([]error, len(ids))
		for i := range errs {
			errs[i] = errPutRefused
		}
		return errs
	}
	return n.MemNode.PutBatch(ctx, ids, data)
}

func (n *frameNode) scribble() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, frame := range n.frames {
		for i := range frame {
			frame[i] = 0xA5
		}
	}
	n.frames = nil
}

// TestDecodedVersionsDoNotAliasTheirShards pins the rule that lets shard
// results alias the frame they arrived in: nothing that outlives a read -
// an entry of the decoded-version cache, the latest-version cache a commit
// restores - is memory of a shard. Every frame a read was served from is
// overwritten as soon as the read returns; what the caches then hold must
// still be the committed bytes. The chain has a full codeword, a sparse
// delta, a delta that changed nothing and a dense delta, stored plain and
// CDEC-compacted, so every decode that can produce a cached block runs - over
// a systematic code too, whose identity rows decode by plain copy.
func TestDecodedVersionsDoNotAliasTheirShards(t *testing.T) {
	for _, kind := range []erasure.Kind{erasure.NonSystematicCauchy, erasure.SystematicCauchy} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/compress=%v", kind, compress), func(t *testing.T) {
				decodedVersionsDoNotAliasTheirShards(t, kind, compress)
			})
		}
	}
}

func decodedVersionsDoNotAliasTheirShards(t *testing.T, kind erasure.Kind, compress bool) {
	cfg := testConfig(BasicSEC, kind)
	cfg.BlockSize = 64
	cfg.CompressDeltas = compress
	cfg.ReadCacheBytes = 1 << 20
	nodes := make([]store.Node, cfg.N)
	frames := make([]*frameNode, cfg.N)
	for i := range nodes {
		frames[i] = &frameNode{MemNode: store.NewMemNode("n")}
		nodes[i] = frames[i]
	}
	scribble := func() {
		for _, n := range frames {
			n.scribble()
		}
	}
	cluster := store.NewCluster(nodes)
	writer, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte("block of version one. "), 9)[:cfg.K*cfg.BlockSize]
	versions := [][]byte{v1, editBlocks(v1, cfg.BlockSize, 1)}
	versions = append(versions, versions[1], editBlocks(versions[1], cfg.BlockSize, 0, 1, 2))
	for _, v := range versions {
		mustCommit(t, writer, v)
	}

	// A reopened archive has neither cache filled: every block it comes
	// to hold was decoded from shards the frameNodes served.
	a, err := Open(writer.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range versions {
		got, stats := mustRetrieve(t, a, l+1)
		scribble()
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d as returned changed with its frames", l+1)
		}
		got, stats = mustRetrieve(t, a, l+1)
		if stats.CacheHits != 1 || stats.NodeReads != 0 {
			t.Fatalf("second read of version %d: %+v, want a cache hit", l+1, stats)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cached version %d aliases the frames it was decoded from", l+1)
		}
	}

	// A commit that fails after restoring the latest-version cache
	// leaves the restored blocks in place.
	for _, n := range frames {
		n.failPuts = true
	}
	if _, err := a.CommitContext(t.Context(), editBlocks(versions[3], cfg.BlockSize, 2)); !errors.Is(err, errPutRefused) {
		t.Fatalf("commit against refusing nodes: %v", err)
	}
	scribble()
	latest, err := a.blocking.Join(a.cache, a.cacheLen)
	if err != nil || !bytes.Equal(latest, versions[3]) {
		t.Errorf("restored latest-version cache aliases the frames it was decoded from")
	}
}

// TestWalkSharesUntouchedBlocks pins how a walk builds the next version: a
// delta of sparsity gamma allocates gamma blocks and shares the other
// k - gamma with the version it started from, and a delta that changed
// nothing is no step at all - the version is the blocks of its base, and
// the accounting has no reads and no object for it, as before.
func TestWalkSharesUntouchedBlocks(t *testing.T) {
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.ReadCacheBytes = 1 << 20
	cluster := store.NewMemCluster(cfg.N)
	w, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := []byte("abcdefghijkl")
	v2 := editBlocks(v1, cfg.BlockSize, 1)
	for _, v := range [][]byte{v1, v2, v2} {
		mustCommit(t, w, v)
	}
	// The writer cached each version as it committed it; a fresh archive
	// over the same manifest starts cold, so its read walks the chain.
	a, err := Open(w.Manifest(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := mustRetrieve(t, a, 3)
	if !bytes.Equal(got, v2) {
		t.Fatalf("version 3 = %q, want %q", got, v2)
	}
	if len(stats.Objects) != 2 || stats.NodeReads != cfg.K+2 {
		t.Errorf("accounting = %+v, want the full codeword and the sparse delta, nothing for the zero delta", stats)
	}
	blocks := make([][][]byte, 4)
	for v := 1; v <= 3; v++ {
		var ok bool
		if blocks[v], _, ok = a.rcache.get(v); !ok {
			t.Fatalf("version %d not cached by the walk that passed through it", v)
		}
	}
	for i := 0; i < cfg.K; i++ {
		if shared, changed := &blocks[2][i][0] == &blocks[1][i][0], i == 1; shared == changed {
			t.Errorf("block %d of version 2: shared with version 1 = %v, changed by the delta = %v", i, shared, changed)
		}
		if &blocks[3][i][0] != &blocks[2][i][0] {
			t.Errorf("block %d of version 3 is not the block of version 2 a zero delta leaves it", i)
		}
	}
}
