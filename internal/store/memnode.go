package store

import (
	"context"
	"sync"
)

// MemNode is an in-memory storage node with failure injection. It is the
// simulation substitute for the paper's physical storage devices; its I/O
// counters provide the exact read counts the evaluation reports.
type MemNode struct {
	id string

	mu     sync.Mutex
	failed bool
	shards map[ShardID][]byte
	stats  NodeStats
}

var _ Node = (*MemNode)(nil)
var _ FaultInjector = (*MemNode)(nil)

// NewMemNode returns an empty, available in-memory node.
func NewMemNode(id string) *MemNode {
	return &MemNode{id: id, shards: make(map[ShardID][]byte)}
}

// ID returns the node identifier.
func (n *MemNode) ID() string { return n.id }

// Put stores a copy of data under id: a put batch of one.
func (n *MemNode) Put(ctx context.Context, id ShardID, data []byte) error {
	return putOne(ctx, n, id, data)
}

// Get returns the shard contents, read-only: a get batch of one.
func (n *MemNode) Get(ctx context.Context, id ShardID) ([]byte, error) {
	return getOne(ctx, n, id)
}

// Delete removes the shard: a delete batch of one.
func (n *MemNode) Delete(ctx context.Context, id ShardID) error {
	return deleteOne(ctx, n, id)
}

// GetBatch reads several shards under one lock acquisition. It fails a
// shard with ErrNodeDown while the node is failed and ErrNotFound when the
// shard is absent; each successful read is counted. The context is checked
// per shard, so a cancelled batch fails its remaining shards with the
// context's error. A result's Data is the stored shard itself, not a copy:
// PutBatch stores a fresh copy and nothing writes a stored shard in place,
// so the bytes a reader holds never change under it. It is cap-clipped, so
// an append to it reallocates instead of writing behind the stored bytes.
func (n *MemNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	results := make([]ShardResult, len(ids))
	//lint:allow lockheld in-memory node; the only ctx-aware callee is admit, which reads ctx.Err and never blocks
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, id := range ids {
		if err := admit(ctx, "get", id, n.id, n.failed); err != nil {
			results[i] = ShardResult{Err: err}
			continue
		}
		data, ok := n.shards[id]
		if !ok {
			results[i] = ShardResult{Err: shardErr("get", id, n.id, ErrNotFound)}
			continue
		}
		n.stats.Reads++
		n.stats.BytesRead += uint64(len(data))
		results[i] = ShardResult{Data: data[:len(data):len(data)]}
	}
	return results
}

// PutBatch stores a copy of each shard under one lock acquisition, counting
// each successful write. The context is checked per shard.
func (n *MemNode) PutBatch(ctx context.Context, ids []ShardID, data [][]byte) []error {
	errs := make([]error, len(ids))
	//lint:allow lockheld in-memory node; the only ctx-aware callee is admit, which reads ctx.Err and never blocks
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, id := range ids {
		if errs[i] = admit(ctx, "put", id, n.id, n.failed); errs[i] != nil {
			continue
		}
		n.shards[id] = append([]byte(nil), data[i]...)
		n.stats.Writes++
		n.stats.BytesWritten += uint64(len(data[i]))
	}
	return errs
}

// DeleteBatch removes several shards under one lock acquisition, counting
// each successful delete individually. Each shard fails or succeeds
// independently, with ErrNotFound for a shard already absent; the context
// is checked per shard.
func (n *MemNode) DeleteBatch(ctx context.Context, ids []ShardID) []error {
	errs := make([]error, len(ids))
	//lint:allow lockheld in-memory node; the only ctx-aware callee is admit, which reads ctx.Err and never blocks
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, id := range ids {
		if errs[i] = admit(ctx, "delete", id, n.id, n.failed); errs[i] != nil {
			continue
		}
		if _, ok := n.shards[id]; !ok {
			errs[i] = shardErr("delete", id, n.id, ErrNotFound)
			continue
		}
		delete(n.shards, id)
		n.stats.Deletes++
	}
	return errs
}

// Available reports whether the node accepts operations.
func (n *MemNode) Available(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.failed
}

// SetFailed injects or clears a crash-stop failure. Data is retained across
// failures.
func (n *MemNode) SetFailed(failed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = failed
}

// Stats returns a snapshot of the I/O counters.
func (n *MemNode) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the I/O counters.
func (n *MemNode) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = NodeStats{}
}

// Len returns the number of shards currently stored.
func (n *MemNode) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.shards)
}

// Wipe discards every stored shard, modelling the replacement of a failed
// device with an empty one. Counters and failure state are unaffected.
func (n *MemNode) Wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.shards)
}
