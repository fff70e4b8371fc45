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

func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2}
	// No jitter: exact exponential with cap.
	for retry, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 40 * time.Millisecond, // capped
	} {
		if got := p.Backoff(retry); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", retry, got, want)
		}
	}
	// Full jitter stays within (0, d].
	p.Jitter = 1
	for retry := 1; retry <= 4; retry++ {
		d := p.Backoff(retry)
		if d < 0 || d > 40*time.Millisecond {
			t.Errorf("jittered Backoff(%d) = %v out of range", retry, d)
		}
	}
	// Zero policy: no delays.
	if got := (RetryPolicy{}).Backoff(1); got != 0 {
		t.Errorf("zero policy Backoff = %v, want 0", got)
	}
}

// flakyNode wraps a MemNode so its reads fail the first `remaining`
// shards they see with ErrNodeDown.
type flakyNode struct {
	*MemNode
	remaining int
}

func (n *flakyNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
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

func TestClusterRetryPolicyGet(t *testing.T) {
	mem := NewMemNode("flaky")
	id := ShardID{Object: "o", Row: 0}
	if err := mem.Put(t.Context(), id, []byte{9}); err != nil {
		t.Fatal(err)
	}
	n := &flakyNode{MemNode: mem, remaining: 2}
	c := NewCluster([]Node{n})

	// Without a policy the first failure is final.
	if _, err := c.Get(t.Context(), 0, id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get without retry = %v, want ErrNodeDown", err)
	}

	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	got, err := c.Get(t.Context(), 0, id)
	if err != nil {
		t.Fatalf("Get with retry: %v", err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Get = %v, want [9]", got)
	}
}

func TestClusterRetryPolicyGetBatch(t *testing.T) {
	mem := NewMemNode("flaky")
	ids := []ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	for i, id := range ids {
		if err := mem.Put(t.Context(), id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := &flakyNode{MemNode: mem, remaining: 2}
	c := NewCluster([]Node{n})
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2})

	refs := []ShardRef{{Node: 0, ID: ids[0]}, {Node: 0, ID: ids[1]}}
	results := c.GetBatch(t.Context(), refs)
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("shard %d after retry: %v", i, res.Err)
		}
	}
}
