package sec_test

// End-to-end cancellation and deadline behavior over real TCP nodes: the
// acceptance story of the context-first API. A retrieval against a stalled
// node must return when the caller's context deadline passes - not after
// per-operation-timeout x chain-length - carrying full ShardError
// provenance, and must leave the connection pools and I/O accounting
// intact for the next caller.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

// stallNode wraps a MemNode whose reads park until the stall is released
// (or the server shuts down), modelling a half-dead device that accepts
// connections and answers pings but never delivers data.
type stallNode struct {
	*store.MemNode
	stalled chan struct{} // closed to release the stall
	inside  atomic.Int32  // reads parked or finishing
}

func (s *stallNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	s.inside.Add(1)
	defer s.inside.Add(-1)
	select {
	case <-s.stalled:
	case <-ctx.Done():
	}
	return s.MemNode.GetBatch(ctx, ids)
}

func TestRetrieveDeadlineBoundsStalledChain(t *testing.T) {
	const (
		n, k     = 6, 3
		versions = 5
		deadline = 300 * time.Millisecond
		// opTimeout is deliberately huge: if the context deadline were not
		// mapped onto the wire, the retrieval would hang for this long per
		// stalled operation.
		opTimeout = 30 * time.Second
	)
	stalledAt := 2 // cluster node whose reads hang
	backings := make([]*sec.MemNode, n)
	var stall *stallNode
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		backings[i] = sec.NewMemNode(fmt.Sprintf("mem-%d", i))
		var backend sec.StorageNode = backings[i]
		if i == stalledAt {
			stall = &stallNode{MemNode: backings[i], stalled: make(chan struct{})}
			backend = stall
		}
		srv := sec.NewNodeServer(backend)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		remote := sec.DialNode(fmt.Sprintf("remote-%d", i), addr.String(),
			sec.WithNodeTimeout(opTimeout))
		t.Cleanup(func() { _ = remote.Close() })
		nodes[i] = remote
	}
	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: 512,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}

	// Build a chain: commits go through before the stall is armed, by
	// committing while the stalled node still serves writes (stallNode only
	// parks reads, so commits are unaffected).
	rng := rand.New(rand.NewSource(7))
	object := make([]byte, archive.Capacity())
	rng.Read(object)
	if _, err := archive.CommitContext(t.Context(), object); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= versions; v++ {
		next, err := sec.SparseEdit(rng, object, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := archive.CommitContext(t.Context(), next); err != nil {
			t.Fatal(err)
		}
		object = next
	}

	readsBefore := cluster.TotalStats().Reads
	ctx, cancel := context.WithTimeout(t.Context(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err = archive.RetrieveContext(ctx, versions)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Retrieve against a stalled node under a short deadline: want error")
	}
	// The acceptance bound: ~2x the context deadline plus scheduling slack,
	// and in any case nowhere near one per-op timeout (let alone timeout x
	// chain length).
	if elapsed > 2*deadline+2*time.Second {
		t.Errorf("Retrieve took %v, want ~%v (2x context deadline)", elapsed, 2*deadline)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Retrieve = %v, want context.DeadlineExceeded in the chain", err)
	}
	if errors.Is(err, sec.ErrNodeDown) {
		t.Errorf("deadline expiry misreported as node failure: %v", err)
	}
	var se *sec.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("no ShardError provenance in %v", err)
	}
	if se.Node == "" || se.Shard.Object == "" {
		t.Errorf("ShardError = %+v, want node and shard named", se)
	}

	// Release the stall: the same clients (same pools) must now serve a
	// clean retrieval, and its I/O accounting must match the node counters
	// exactly - the cancelled attempt must not leave phantom or
	// double-counted reads behind. Server handlers parked on the stall
	// finish their (already abandoned) batches once released, so wait for
	// them to return before sampling.
	close(stall.stalled)
	testutil.MustWaitFor(t, 5*time.Second, func() bool { return stall.inside.Load() == 0 },
		"parked reads still running after the stall was released")
	readsAfterCancelled := cluster.TotalStats().Reads
	got, stats, err := archive.RetrieveContext(t.Context(), versions)
	if err != nil {
		t.Fatalf("Retrieve after releasing the stall: %v (pool poisoned?)", err)
	}
	if !bytes.Equal(got, object) {
		t.Error("post-cancellation retrieval returned wrong bytes")
	}
	readsAfterClean := cluster.TotalStats().Reads
	if delta := readsAfterClean - readsAfterCancelled; delta != uint64(stats.NodeReads) {
		t.Errorf("clean retrieval cost %d node reads but reported %d: stats drifted after cancellation",
			delta, stats.NodeReads)
	}
	if readsAfterCancelled-readsBefore > uint64(stats.NodeReads) {
		t.Errorf("cancelled retrieval counted %d reads, more than a full retrieval (%d): double-counting",
			readsAfterCancelled-readsBefore, stats.NodeReads)
	}
}
