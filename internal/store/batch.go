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
	data    [][]byte // a put batch's payloads, aligned with ids
}

// groupByNode partitions the refs at positions pos (every ref when pos is
// nil) into per-node batches, preserving the original order within each
// node; data, when non-nil, holds the payloads aligned with refs.
func (c *Cluster) groupByNode(refs []ShardRef, data [][]byte, pos []int) []*nodeBatch {
	order := make([]*nodeBatch, 0, 4)
	byNode := make(map[int]*nodeBatch, 4)
	count := len(refs)
	if pos != nil {
		count = len(pos)
	}
	for j := 0; j < count; j++ {
		i := j
		if pos != nil {
			i = pos[j]
		}
		ref := refs[i]
		b, ok := byNode[ref.Node]
		if !ok {
			n, err := c.Node(ref.Node)
			b = &nodeBatch{index: ref.Node, node: n, nodeErr: err}
			byNode[ref.Node] = b
			order = append(order, b)
		}
		b.idx = append(b.idx, i)
		b.ids = append(b.ids, ref.ID)
		if data != nil {
			b.data = append(b.data, data[i])
		}
	}
	return order
}

// observeBatch feeds one node batch's outcome, which took elapsed, to the
// health tracker as a single observation: any authoritative response
// (success, ErrNotFound, ErrCorrupt) counts as node-healthy, and a get
// batch's elapsed (sample) as a sample of the node's latency estimate; a
// batch that produced only transient failures counts as one failure, not
// one per shard, which makes the node silent when it took as long as a slow
// node's batch.
func (c *Cluster) observeBatch(node int, n int, elapsed time.Duration, sample bool, errAt func(int) error) {
	var transient error
	for i := 0; i < n; i++ {
		failure, observable := transientFailure(errAt(i))
		if observable && !failure {
			var latency time.Duration
			if sample {
				latency = elapsed
			}
			c.health.observe(node, nil, latency)
			return
		}
		if failure {
			transient = errAt(i)
		}
	}
	if transient != nil {
		c.health.observe(node, transient, elapsed)
	}
}

// batchKind is what sets one kind of cluster batch apart: the span it
// records, whether its latency samples the node's estimate (get batches
// only), the node call, and how an outcome carries its error.
type batchKind[R any] struct {
	span   string
	sample bool
	// call runs b against its node, counting what crossed the wire; its
	// outcomes are aligned with b.ids.
	call   func(ctx context.Context, c *Cluster, b *nodeBatch) []R
	errOf  func(R) error
	failed func(error) R // the outcome of a shard whose node index is out of range
}

var (
	getKind = batchKind[ShardResult]{span: "node-get", sample: true, call: getNodeBatch,
		errOf: func(r ShardResult) error { return r.Err }, failed: func(err error) ShardResult { return ShardResult{Err: err} }}
	putKind    = batchKind[error]{span: "node-put", call: putNodeBatch, errOf: errorOf, failed: errorOf}
	deleteKind = batchKind[error]{span: "node-delete", call: deleteNodeBatch, errOf: errorOf, failed: errorOf}
)

func errorOf(err error) error { return err }

func getNodeBatch(ctx context.Context, c *Cluster, b *nodeBatch) []ShardResult {
	results := b.node.GetBatch(ctx, b.ids)
	for _, res := range results {
		if res.Err == nil {
			c.wire.countGet(len(res.Data))
		}
	}
	return results
}

func putNodeBatch(ctx context.Context, c *Cluster, b *nodeBatch) []error {
	errs := b.node.PutBatch(ctx, b.ids, b.data)
	for j, err := range errs {
		if err == nil {
			c.wire.countPut(len(b.data[j]))
		}
	}
	return errs
}

func deleteNodeBatch(ctx context.Context, c *Cluster, b *nodeBatch) []error {
	errs := b.node.DeleteBatch(ctx, b.ids)
	for _, err := range errs {
		if err == nil {
			c.wire.countDelete()
		}
	}
	return errs
}

// runBatch is the one body of GetBatch, PutBatch and DeleteBatch. It groups
// refs (and data, a put's payloads) by node and runs kind's call once per
// node, concurrently across nodes, each timed, traced and observed
// (observeBatch). Then, by the retry rule (retryAttempts), it re-issues the
// shards whose failure is Retryable and whose node the health tracker does
// not hold off: a node whose batch failed as slowly as a slow node's is not
// asked again within the operation, so the attempts never wait out a hung
// node's timeout twice, and neither is a node Fail holds failed. A pass
// where no shard failed that way allocates nothing more.
func runBatch[R any](ctx context.Context, c *Cluster, kind batchKind[R], refs []ShardRef, data [][]byte) []R {
	out := make([]R, len(refs))
	var pos []int // the positions a pass issues; nil is every ref
	for attempt := 1; ; attempt++ {
		runNodeBatches(c.groupByNode(refs, data, pos), func(b *nodeBatch) {
			if b.nodeErr != nil {
				for _, i := range b.idx {
					out[i] = kind.failed(b.nodeErr)
				}
				return
			}
			span := obs.Start(ctx, kind.span)
			start := c.health.now()
			for j, r := range kind.call(ctx, c, b) {
				out[b.idx[j]] = r
			}
			elapsed := c.health.now().Sub(start)
			span.EndBatch(b.index, len(b.ids))
			c.observeBatch(b.index, len(b.idx), elapsed, kind.sample, func(j int) error { return kind.errOf(out[b.idx[j]]) })
		})
		if attempt >= retryAttempts {
			return out
		}
		var again []int
		for i, r := range out {
			if Retryable(kind.errOf(r)) && !c.health.holdsOff(refs[i].Node) {
				again = append(again, i)
			}
		}
		if len(again) == 0 || retrySleep(ctx, attempt) != nil {
			return out
		}
		pos = again
	}
}

// GetBatch reads the listed shards, grouping them by node and issuing one
// batch per node; batches to distinct nodes run concurrently. The result
// slice is aligned with refs. Out-of-range node indices yield per-shard
// ErrClusterTooSmall results instead of failing the whole batch. Shards
// that fail transiently are re-issued by the retry rule (see runBatch).
func (c *Cluster) GetBatch(ctx context.Context, refs []ShardRef) []ShardResult {
	return runBatch(ctx, c, getKind, refs, nil)
}

// PutBatch stores data[i] under refs[i], grouped into one batch per node;
// batches to distinct nodes run concurrently. It returns one error per
// shard, aligned with refs. Shards that fail transiently are re-issued by
// the retry rule (see runBatch).
func (c *Cluster) PutBatch(ctx context.Context, refs []ShardRef, data [][]byte) []error {
	if len(data) != len(refs) {
		panic(fmt.Sprintf("store: PutBatch got %d refs but %d payloads", len(refs), len(data)))
	}
	return runBatch(ctx, c, putKind, refs, data)
}

// DeleteBatch removes the listed shards, grouped into one batch per node;
// batches to distinct nodes run concurrently. It returns one error per
// shard, aligned with refs (nil for successes, errors wrapping ErrNotFound
// for shards already absent). Shards that fail transiently are re-issued by
// the retry rule (see runBatch); a delete retried past a success reports
// ErrNotFound, the documented at-least-once contract.
func (c *Cluster) DeleteBatch(ctx context.Context, refs []ShardRef) []error {
	return runBatch(ctx, c, deleteKind, refs, nil)
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
