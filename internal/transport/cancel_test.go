package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// startBlockingServer serves a blockingNode and returns the client plus
// the node, for tests that need an RPC parked mid-flight.
func startBlockingServer(t *testing.T, opts ...ClientOption) (*RemoteNode, *blockingNode) {
	t.Helper()
	node := &blockingNode{
		MemNode: store.NewMemNode("slow"),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), opts...)
	t.Cleanup(func() { _ = client.Close() })
	return client, node
}

func TestCancelInterruptsInFlightRPC(t *testing.T) {
	client, node := startBlockingServer(t, WithTimeout(30*time.Second))
	id := store.ShardID{Object: "o", Row: 0}
	if err := node.MemNode.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	go func() {
		_, err := client.Get(ctx, id)
		done <- err
	}()
	<-node.entered // the RPC is parked server-side
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get did not return")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Get took %v after cancel, want prompt return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Get = %v, want context.Canceled", err)
	}
	if errors.Is(err, store.ErrNodeDown) {
		t.Errorf("cancelled Get reported ErrNodeDown: cancellation must not read as node failure (%v)", err)
	}
	var se *store.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("cancelled Get carries no ShardError: %v", err)
	}
	if se.Node != "remote" || se.Shard != id || se.Op != "get" {
		t.Errorf("ShardError = %+v, want node remote / shard %v / op get", se, id)
	}

	// The poisoned connection was retired; the pool must still serve new
	// operations once the node responds again.
	close(node.release)
	for i := 0; i < 3; i++ {
		if _, err := client.Get(t.Context(), id); err != nil {
			t.Fatalf("Get %d after cancellation: %v (pool poisoned?)", i, err)
		}
	}
}

func TestContextDeadlineOverridesOperationTimeout(t *testing.T) {
	// The per-op timeout is far in the future; the context deadline must
	// be the one that bounds the wire.
	client, node := startBlockingServer(t, WithTimeout(30*time.Second))
	id := store.ShardID{Object: "o", Row: 1}
	if err := node.MemNode.Put(t.Context(), id, []byte{2}); err != nil {
		t.Fatal(err)
	}
	defer close(node.release)

	ctx, cancel := context.WithTimeout(t.Context(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Get(ctx, id)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Get = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("Get took %v, want ~200ms (the context deadline, not the 30s op timeout)", elapsed)
	}
}

// TestTimeoutClassifiedAlikeOnPooledAndFreshConnections: a get batch that
// runs out the operation timeout is the node's transient failure - Retryable,
// not the context's deadline - whether it went out on a connection kept from
// an earlier call or on a fresh one, and it reaches the node once.
func TestTimeoutClassifiedAlikeOnPooledAndFreshConnections(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			client, node := startBlockingServer(t, WithTimeout(200*time.Millisecond))
			defer close(node.release)
			id := store.ShardID{Object: "o", Row: 2}
			if pooled {
				// A put answers at once and leaves its connection pooled.
				if err := client.Put(t.Context(), id, []byte{3}); err != nil {
					t.Fatal(err)
				}
			}
			_, err := client.Get(t.Context(), id)
			if !store.Retryable(err) || errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("timed-out Get = %v, want a retryable node failure, not context.DeadlineExceeded", err)
			}
			if sent := len(node.entered); sent != 1 {
				t.Errorf("the get batch reached the node %d times, want 1", sent)
			}
		})
	}
}

func TestCloseFailsBatchAsNodeDown(t *testing.T) {
	// Close racing an in-flight batch RPC: every shard of the batch must
	// surface ErrNodeDown (wrapped in ShardError), never a bare I/O error,
	// so retrieval re-planning treats it as a transient node failure.
	node := &blockingNode{
		MemNode: store.NewMemNode("slow"),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(30*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	ids := testIDs("o", 0, 1, 2)
	for i, id := range ids {
		if err := node.MemNode.Put(t.Context(), id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	results := make(chan []store.ShardResult, 1)
	go func() { results <- client.GetBatch(context.Background(), ids) }()
	<-node.entered // the batch is parked server-side
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	close(node.release)
	var res []store.ShardResult
	select {
	case res = <-results:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not return after Close")
	}
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("shard %d succeeded after Close tore the connection", i)
		}
		if !errors.Is(r.Err, store.ErrNodeDown) {
			t.Errorf("shard %d error = %v, want ErrNodeDown", i, r.Err)
		}
		var se *store.ShardError
		if !errors.As(r.Err, &se) || se.Shard != ids[i] {
			t.Errorf("shard %d: no ShardError naming the shard in %v", i, r.Err)
		}
	}
}

func TestShardErrorProvenanceAcrossWire(t *testing.T) {
	// A failure on the server side travels back with the server node's own
	// identity, not just the client-side label.
	mem := store.NewMemNode("server-side-name")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("client-side-name", addr.String())
	t.Cleanup(func() { _ = client.Close() })

	id := store.ShardID{Object: "missing", Row: 3}
	_, err = client.Get(t.Context(), id)
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get of missing shard = %v, want ErrNotFound", err)
	}
	var se *store.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("no ShardError in %v", err)
	}
	if se.Node != "server-side-name" || se.Shard != id || se.Op != "get" {
		t.Errorf("ShardError = %+v, want wire provenance from server-side-name for %v", se, id)
	}

	// Same for per-shard entries of a batch.
	for i, res := range client.GetBatch(t.Context(), testIDs("missing", 4, 5)) {
		var bse *store.ShardError
		if !errors.As(res.Err, &bse) || bse.Node != "server-side-name" {
			t.Errorf("batch entry %d: ShardError = %v, want server-side provenance", i, res.Err)
		}
	}
}
