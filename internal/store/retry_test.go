package store

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	down := shardErr("get", ShardID{Object: "o"}, "n0", ErrNodeDown)
	wrapped := shardErr("get", ShardID{Object: "o"}, "n0",
		fmt.Errorf("%w: %w", ErrNodeDown, errors.New("dial tcp: connection refused")))
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"node down", down, true},
		{"node down with cause", wrapped, true},
		{"not found", shardErr("get", ShardID{}, "n0", ErrNotFound), false},
		{"corrupt", shardErr("get", ShardID{}, "n0", ErrCorrupt), false},
		{"cancelled", shardErr("get", ShardID{}, "n0", context.Canceled), false},
		{"deadline", shardErr("get", ShardID{}, "n0", context.DeadlineExceeded), false},
		{"unknown", errors.New("mystery"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryPolicyBackoffBounds pins the fixed backoff: retry r waits
// retryBaseDelay doubled r-1 times, capped at retryMaxDelay, less at most
// retryJitter of itself.
func TestRetryPolicyBackoffBounds(t *testing.T) {
	for retry, full := range map[int]time.Duration{
		1:  5 * time.Millisecond,
		2:  10 * time.Millisecond,
		3:  20 * time.Millisecond,
		7:  250 * time.Millisecond, // 320ms, capped
		60: 250 * time.Millisecond,
	} {
		for range 100 {
			if d := retryDelay(retry); d <= full/2 || d > full {
				t.Fatalf("retryDelay(%d) = %v, want in (%v, %v]", retry, d, full/2, full)
			}
		}
	}
}

// flakyNode wraps a MemNode so its reads fail the first `remaining`
// shards they see with ErrNodeDown; batches counts the get batches it saw,
// and each calls onBatch when it is set.
type flakyNode struct {
	*MemNode
	remaining int
	batches   int
	onBatch   func()
}

func (n *flakyNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	n.batches++
	if n.onBatch != nil {
		n.onBatch()
	}
	results := make([]ShardResult, len(ids))
	for i, id := range ids {
		if n.remaining > 0 {
			n.remaining--
			results[i] = ShardResult{Err: shardErr("get", id, n.ID(), ErrNodeDown)}
			continue
		}
		data, err := n.MemNode.Get(ctx, id)
		results[i] = ShardResult{Data: data, Err: err}
	}
	return results
}

// TestClusterRetryPolicyGet drives a plain cluster: a shard that fails
// transiently is re-issued until the retry rule's attempts run out.
func TestClusterRetryPolicyGet(t *testing.T) {
	mem := NewMemNode("flaky")
	id := ShardID{Object: "o", Row: 0}
	if err := mem.Put(t.Context(), id, []byte{9}); err != nil {
		t.Fatal(err)
	}

	// Failing every attempt but the last, the read succeeds on it.
	n := &flakyNode{MemNode: mem, remaining: retryAttempts - 1}
	got, err := NewCluster([]Node{n}).Get(t.Context(), 0, id)
	if err != nil {
		t.Fatalf("Get with retries: %v", err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Get = %v, want [9]", got)
	}
	if n.batches != retryAttempts {
		t.Errorf("the node saw %d batches, want %d", n.batches, retryAttempts)
	}

	// Failing every attempt, the last failure is final.
	n = &flakyNode{MemNode: mem, remaining: retryAttempts + 1}
	if _, err := NewCluster([]Node{n}).Get(t.Context(), 0, id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get past the attempts = %v, want ErrNodeDown", err)
	}
	if n.batches != retryAttempts {
		t.Errorf("the node saw %d batches, want %d", n.batches, retryAttempts)
	}
}

// TestClusterRetryPolicyGetBatch re-issues only the shards that failed: the
// retry is one batch of the failed shard, not the whole batch again.
func TestClusterRetryPolicyGetBatch(t *testing.T) {
	mem := NewMemNode("flaky")
	ids := []ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	for i, id := range ids {
		if err := mem.Put(t.Context(), id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := &flakyNode{MemNode: mem, remaining: 1}
	c := NewCluster([]Node{n})

	refs := []ShardRef{{Node: 0, ID: ids[0]}, {Node: 0, ID: ids[1]}}
	results := c.GetBatch(t.Context(), refs)
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("shard %d after retry: %v", i, res.Err)
		}
	}
	if n.batches != 2 {
		t.Errorf("the node saw %d batches, want 2", n.batches)
	}
	if gets := c.WireStats().Reads; gets != 2 {
		t.Errorf("the cluster counted %d gets, want 2: one per shard that arrived", gets)
	}
}

// TestClusterRetryStopsOnCancel: an operation cancelled while its shard
// waits for a retry is not re-issued.
func TestClusterRetryStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	n := &flakyNode{MemNode: NewMemNode("flaky"), remaining: retryAttempts, onBatch: cancel}
	if _, err := NewCluster([]Node{n}).Get(ctx, 0, ShardID{Object: "o"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get = %v, want the first attempt's ErrNodeDown", err)
	}
	if n.batches != 1 {
		t.Errorf("the node saw %d batches, want 1", n.batches)
	}
}

// TestHealthyRetryPassAllocatesNothing pins a healthy GetBatch at the
// allocations it made before every cluster retried: a pass in which no
// shard failed retryably builds no retry list.
func TestHealthyRetryPassAllocatesNothing(t *testing.T) {
	const nodes, shards = 6, 12
	c := NewMemCluster(nodes)
	refs := make([]ShardRef, shards)
	for i := range refs {
		refs[i] = ShardRef{Node: i % nodes, ID: ShardID{Object: "o", Row: i}}
		if err := c.Put(t.Context(), refs[i].Node, refs[i].ID, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.GetBatch(t.Context(), refs) }); allocs != 53 {
		t.Errorf("a healthy GetBatch of %d shards on %d nodes made %v allocations, want 53", shards, nodes, allocs)
	}
}
