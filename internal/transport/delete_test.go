package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

func TestRemoteDeleteBatchRoundTrip(t *testing.T) {
	mem, client := startServer(t)
	ids := testIDs("arch/v2-delta", 0, 1, 2, 3)
	data := [][]byte{{1}, {2}, {3}, {4}}
	for i, err := range client.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i, err := range client.DeleteBatch(t.Context(), ids) {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if got := mem.Len(); got != 0 {
		t.Errorf("%d shards survived the delete batch", got)
	}
	if got := mem.Stats().Deletes; got != 4 {
		t.Errorf("backing deletes = %d, want 4", got)
	}
}

func TestRemoteDeleteBatchIsOneRPC(t *testing.T) {
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	ids := testIDs("o", 0, 1, 2, 3, 4, 5)
	data := make([][]byte, len(ids))
	for i := range data {
		data[i] = []byte{byte(i)}
	}
	client.PutBatch(t.Context(), ids, data)
	client.DeleteBatch(t.Context(), ids)
	stats := srv.RequestStats()
	if stats.DeleteBatches != 1 || stats.DeleteBatchShards != 6 {
		t.Errorf("delete batches = %d/%d shards, want 1/6", stats.DeleteBatches, stats.DeleteBatchShards)
	}
}

func TestRemoteDeleteBatchPerShardStatuses(t *testing.T) {
	mem, client := startServer(t)
	present := store.ShardID{Object: "o", Row: 0}
	if err := mem.Put(t.Context(), present, []byte{7}); err != nil {
		t.Fatal(err)
	}
	errs := client.DeleteBatch(t.Context(), testIDs("o", 0, 1, 2))
	if errs[0] != nil {
		t.Errorf("present shard: %v", errs[0])
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(errs[i], store.ErrNotFound) {
			t.Errorf("missing shard %d err = %v, want ErrNotFound", i, errs[i])
		}
		var se *store.ShardError
		if !errors.As(errs[i], &se) || se.Node != "backing" || se.Op != "delete" {
			t.Errorf("missing shard %d lacks wire provenance: %v", i, errs[i])
		}
	}
}

func TestRemoteDeleteBatchServerGone(t *testing.T) {
	srv := NewServer(store.NewMemNode("backing"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRemoteNode("remote", addr.String(), WithTimeout(300*time.Millisecond))
	t.Cleanup(func() { _ = client.Close() })
	_ = srv.Close()

	for i, err := range client.DeleteBatch(t.Context(), testIDs("o", 0, 1)) {
		if !errors.Is(err, store.ErrNodeDown) {
			t.Errorf("delete %d against dead server = %v, want ErrNodeDown", i, err)
		}
	}
}

func TestRemoteDeleteBatchCancelled(t *testing.T) {
	_, client := startServer(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for i, err := range client.DeleteBatch(ctx, testIDs("o", 0, 1)) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("delete %d under cancelled ctx = %v, want Canceled", i, err)
		}
		if errors.Is(err, store.ErrNodeDown) {
			t.Errorf("delete %d misattributes cancellation to node health", i)
		}
	}
}
