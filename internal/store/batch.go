package store

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/obs"
)

// ShardResult is the per-shard outcome of a batch operation. Exactly one
// of Data and Err is meaningful: a successful Get carries the shard bytes,
// a failure carries an error wrapping one of the store sentinels
// (ErrNotFound, ErrCorrupt, ErrNodeDown) or a transport-specific cause.
type ShardResult struct {
	// Data holds the shard contents of a successful Get, read-only (see
	// Node.GetBatch). It is nil for Put results and for failures.
	Data []byte
	// Err is nil on success. On failure it wraps the store sentinel
	// describing the shard's fate, so callers can errors.Is their way to
	// a healing decision per shard instead of per batch.
	Err error
	// Release, when non-nil, hands Data back to the node that lent it, which
	// may then reuse the memory: the holder calls it at most once, when it
	// is done with Data, and does not touch Data afterwards. Nil means the
	// memory is left to the garbage collector, as is Data whose Release is
	// never called.
	Release func()
}

// BatchNode is Node, whose methods are the batches. The name and the
// forwarders below remain for the benchmark module, which uses them; a
// benchmark-only follow-up removes them.
type BatchNode = Node

// GetShards is n.GetBatch; a benchmark-only follow-up removes it.
func GetShards(ctx context.Context, n Node, ids []ShardID) []ShardResult { return n.GetBatch(ctx, ids) }

// PutShards is n.PutBatch; a benchmark-only follow-up removes it.
func PutShards(ctx context.Context, n Node, ids []ShardID, data [][]byte) []error {
	return n.PutBatch(ctx, ids, data)
}

// DeleteShards is n.DeleteBatch; a benchmark-only follow-up removes it.
func DeleteShards(ctx context.Context, n Node, ids []ShardID) []error { return n.DeleteBatch(ctx, ids) }

// ShardRef addresses one shard on one cluster node, the unit of a
// cluster-level batch.
type ShardRef struct {
	// Node is the cluster node index holding the shard.
	Node int
	// ID names the shard on that node.
	ID ShardID
}

// nodeBatch collects the positions of one node's refs within a
// cluster-level batch, so per-node results can be scattered back in order.
type nodeBatch struct {
	index   int // cluster node index
	node    Node
	nodeErr error // non-nil when the node index was out of range
	idx     []int // positions into the original refs slice
	ids     []ShardID
}

// groupByNode partitions refs into per-node batches, preserving the
// original order within each node.
func (c *Cluster) groupByNode(refs []ShardRef) []*nodeBatch {
	order := make([]*nodeBatch, 0, 4)
	byNode := make(map[int]*nodeBatch, 4)
	for i, ref := range refs {
		b, ok := byNode[ref.Node]
		if !ok {
			n, err := c.Node(ref.Node)
			b = &nodeBatch{index: ref.Node, node: n, nodeErr: err}
			byNode[ref.Node] = b
			order = append(order, b)
		}
		b.idx = append(b.idx, i)
		b.ids = append(b.ids, ref.ID)
	}
	return order
}

// observeBatch feeds one node batch's outcome to the health tracker as a
// single observation, with latency how long a get batch took (zero for the
// others): any authoritative response (success, ErrNotFound, ErrCorrupt)
// counts as node-healthy and its latency as a sample of the node's estimate;
// a batch that produced only transient failures counts as one failure, not
// one per shard, which makes the node silent when it took as long as a slow
// node's batch.
func (c *Cluster) observeBatch(node int, n int, latency time.Duration, errAt func(int) error) {
	var transient error
	for i := 0; i < n; i++ {
		failure, observable := transientFailure(errAt(i))
		if observable && !failure {
			c.health.observe(node, nil, latency)
			return
		}
		if failure {
			transient = errAt(i)
		}
	}
	if transient != nil {
		c.health.observe(node, transient, latency)
	}
}

// retryableIdx returns the positions whose error is transient per
// Retryable, i.e. the shards worth re-issuing.
func retryableIdx(n int, errAt func(int) error) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if Retryable(errAt(i)) {
			idx = append(idx, i)
		}
	}
	return idx
}

// GetBatch reads the listed shards, grouping them by node and issuing one
// batch per node; batches to distinct nodes run concurrently. The result
// slice is aligned with refs. Out-of-range node indices yield per-shard
// ErrClusterTooSmall results instead of failing the whole batch. Shards
// that fail transiently are re-issued under the cluster's retry policy.
func (c *Cluster) GetBatch(ctx context.Context, refs []ShardRef) []ShardResult {
	results := c.getBatchOnce(ctx, refs)
	p := c.retryPolicy()
	for retry := 1; retry < p.attempts(); retry++ {
		idx := retryableIdx(len(results), func(i int) error { return results[i].Err })
		if len(idx) == 0 || p.Sleep(ctx, retry) != nil {
			break
		}
		sub := make([]ShardRef, len(idx))
		for j, i := range idx {
			sub[j] = refs[i]
		}
		for j, res := range c.getBatchOnce(ctx, sub) {
			results[idx[j]] = res
		}
	}
	return results
}

// getBatchOnce performs one pass of GetBatch with no retries.
func (c *Cluster) getBatchOnce(ctx context.Context, refs []ShardRef) []ShardResult {
	results := make([]ShardResult, len(refs))
	runNodeBatches(c.groupByNode(refs), func(b *nodeBatch) {
		if b.nodeErr != nil {
			for _, i := range b.idx {
				results[i] = ShardResult{Err: b.nodeErr}
			}
			return
		}
		span := obs.Start(ctx, "node-get")
		start := c.health.now()
		for j, res := range b.node.GetBatch(ctx, b.ids) {
			results[b.idx[j]] = res
			if res.Err == nil {
				c.wire.countGet(len(res.Data))
			}
		}
		latency := c.health.now().Sub(start)
		span.EndBatch(b.index, len(b.ids))
		c.observeBatch(b.index, len(b.idx), latency, func(j int) error { return results[b.idx[j]].Err })
	})
	return results
}

// PutBatch stores data[i] under refs[i], grouped into one batch per node;
// batches to distinct nodes run concurrently. It returns one error per
// shard, aligned with refs. Shards that fail transiently are re-issued
// under the cluster's retry policy.
func (c *Cluster) PutBatch(ctx context.Context, refs []ShardRef, data [][]byte) []error {
	if len(data) != len(refs) {
		panic(fmt.Sprintf("store: PutBatch got %d refs but %d payloads", len(refs), len(data)))
	}
	errs := c.putBatchOnce(ctx, refs, data)
	p := c.retryPolicy()
	for retry := 1; retry < p.attempts(); retry++ {
		idx := retryableIdx(len(errs), func(i int) error { return errs[i] })
		if len(idx) == 0 || p.Sleep(ctx, retry) != nil {
			break
		}
		sub := make([]ShardRef, len(idx))
		subData := make([][]byte, len(idx))
		for j, i := range idx {
			sub[j], subData[j] = refs[i], data[i]
		}
		for j, err := range c.putBatchOnce(ctx, sub, subData) {
			errs[idx[j]] = err
		}
	}
	return errs
}

// putBatchOnce performs one pass of PutBatch with no retries.
func (c *Cluster) putBatchOnce(ctx context.Context, refs []ShardRef, data [][]byte) []error {
	errs := make([]error, len(refs))
	runNodeBatches(c.groupByNode(refs), func(b *nodeBatch) {
		if b.nodeErr != nil {
			for _, i := range b.idx {
				errs[i] = b.nodeErr
			}
			return
		}
		payloads := make([][]byte, len(b.idx))
		for j, i := range b.idx {
			payloads[j] = data[i]
		}
		span := obs.Start(ctx, "node-put")
		for j, err := range b.node.PutBatch(ctx, b.ids, payloads) {
			errs[b.idx[j]] = err
			if err == nil {
				c.wire.countPut(len(payloads[j]))
			}
		}
		span.EndBatch(b.index, len(b.ids))
		c.observeBatch(b.index, len(b.idx), 0, func(j int) error { return errs[b.idx[j]] })
	})
	return errs
}

// DeleteBatch removes the listed shards, grouped into one batch per node;
// batches to distinct nodes run concurrently. It returns one error per
// shard, aligned with refs (nil for successes, errors wrapping ErrNotFound
// for shards already absent). Shards that fail transiently are re-issued
// under the cluster's retry policy; a delete retried past a success
// reports ErrNotFound, the documented at-least-once contract.
func (c *Cluster) DeleteBatch(ctx context.Context, refs []ShardRef) []error {
	errs := c.deleteBatchOnce(ctx, refs)
	p := c.retryPolicy()
	for retry := 1; retry < p.attempts(); retry++ {
		idx := retryableIdx(len(errs), func(i int) error { return errs[i] })
		if len(idx) == 0 || p.Sleep(ctx, retry) != nil {
			break
		}
		sub := make([]ShardRef, len(idx))
		for j, i := range idx {
			sub[j] = refs[i]
		}
		for j, err := range c.deleteBatchOnce(ctx, sub) {
			errs[idx[j]] = err
		}
	}
	return errs
}

// deleteBatchOnce performs one pass of DeleteBatch with no retries.
func (c *Cluster) deleteBatchOnce(ctx context.Context, refs []ShardRef) []error {
	errs := make([]error, len(refs))
	runNodeBatches(c.groupByNode(refs), func(b *nodeBatch) {
		if b.nodeErr != nil {
			for _, i := range b.idx {
				errs[i] = b.nodeErr
			}
			return
		}
		span := obs.Start(ctx, "node-delete")
		for j, err := range b.node.DeleteBatch(ctx, b.ids) {
			errs[b.idx[j]] = err
			if err == nil {
				c.wire.countDelete()
			}
		}
		span.EndBatch(b.index, len(b.ids))
		c.observeBatch(b.index, len(b.idx), 0, func(j int) error { return errs[b.idx[j]] })
	})
	return errs
}

// runNodeBatches executes one function per node batch, in parallel when
// more than one node is involved (each batch writes disjoint result
// positions, so no further synchronization is needed).
func runNodeBatches(batches []*nodeBatch, run func(*nodeBatch)) {
	if len(batches) <= 1 {
		for _, b := range batches {
			run(b)
		}
		return
	}
	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func(b *nodeBatch) {
			defer wg.Done()
			run(b)
		}(b)
	}
	wg.Wait()
}
