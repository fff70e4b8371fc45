package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrClusterTooSmall is returned when an operation addresses a node index
// beyond the cluster and the cluster cannot grow.
var ErrClusterTooSmall = errors.New("store: cluster has too few nodes")

// NodeFactory creates the node with the given index when a growable cluster
// expands.
type NodeFactory func(index int) Node

// Cluster is an ordered set of storage nodes. It is safe for concurrent
// use. Clusters created with a NodeFactory grow on demand (EnsureSize);
// fixed clusters reject out-of-range node indices.
type Cluster struct {
	mu      sync.RWMutex
	nodes   []Node
	factory NodeFactory

	// health tracks per-node failure history and latency, which Probe
	// answers from (see Probe).
	health *healthTracker

	// wire holds the client-side wire counters (see WireStats).
	wire wireCounters

	// inOrder runs a fan-out's node batches one after another (RunInOrder).
	inOrder atomic.Bool
}

// RunInOrder makes the cluster run each fan-out's node batches one after
// another, in the order its refs first name each node, so that the nodes
// see every call in one order from run to run: for crash enumeration.
func (c *Cluster) RunInOrder() { c.inOrder.Store(true) }

type wireCounters struct {
	reads, writes, deletes  atomic.Uint64
	bytesRead, bytesWritten atomic.Uint64
}

func (w *wireCounters) countGet(n int) { w.reads.Add(1); w.bytesRead.Add(uint64(n)) }
func (w *wireCounters) countPut(n int) { w.writes.Add(1); w.bytesWritten.Add(uint64(n)) }
func (w *wireCounters) countDelete()   { w.deletes.Add(1) }

// WireStats snapshots the shard operations this cluster client completed
// and the payload bytes they moved, from the client's side of the wire: a
// node's Stats count what it served (to anyone, since its last reset); these
// count what THIS client actually transferred, retries included - each
// successful attempt counts once, each re-issued shard of a retried batch
// counts again, and batch shards count individually. Framing overhead is
// excluded: the numbers are shard payload bytes, the quantity the paper's
// I/O model prices.
func (c *Cluster) WireStats() NodeStats {
	return NodeStats{
		Reads:        c.wire.reads.Load(),
		Writes:       c.wire.writes.Load(),
		Deletes:      c.wire.deletes.Load(),
		BytesRead:    c.wire.bytesRead.Load(),
		BytesWritten: c.wire.bytesWritten.Load(),
	}
}

// ResetWireStats zeroes the cluster client's wire counters.
func (c *Cluster) ResetWireStats() {
	c.wire.reads.Store(0)
	c.wire.writes.Store(0)
	c.wire.deletes.Store(0)
	c.wire.bytesRead.Store(0)
	c.wire.bytesWritten.Store(0)
}

// NewCluster returns a fixed cluster over the given nodes.
func NewCluster(nodes []Node) *Cluster {
	return &Cluster{nodes: append([]Node(nil), nodes...), health: newHealthTracker()}
}

// NewMemCluster returns a growable cluster backed by in-memory nodes,
// pre-populated with `size` nodes.
func NewMemCluster(size int) *Cluster {
	c := NewGrowableCluster(func(i int) Node { return NewMemNode(fmt.Sprintf("mem-%d", i)) })
	if err := c.EnsureSize(size); err != nil {
		panic(err) // unreachable: mem factory never fails
	}
	return c
}

// NewGrowableCluster returns an empty cluster that expands with the given
// factory.
func NewGrowableCluster(factory NodeFactory) *Cluster {
	return &Cluster{factory: factory, health: newHealthTracker()}
}

// NewDiskCluster returns a growable cluster of durable disk-backed nodes
// rooted at baseDir (node i lives in baseDir/node-i), pre-populated with
// size nodes. Reopening the same baseDir reattaches to the shards already
// on disk. A node whose directory cannot be initialized joins the cluster
// as a permanently-down node (every shard operation reports ErrNodeDown
// with the cause) rather than failing the whole cluster.
func NewDiskCluster(baseDir string, size int) (*Cluster, error) {
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating disk cluster at %s: %w", baseDir, err)
	}
	c := NewGrowableCluster(DiskNodeFactory(baseDir))
	if err := c.EnsureSize(size); err != nil {
		return nil, err
	}
	return c, nil
}

// DiskNodeFactory returns a NodeFactory creating disk-backed nodes under
// baseDir, for growable clusters. Initialization failures yield a downed
// placeholder node instead of an error: NodeFactory is infallible by
// contract, and a cluster member that cannot open its storage is exactly a
// node that is down.
func DiskNodeFactory(baseDir string) NodeFactory {
	return func(i int) Node {
		id := fmt.Sprintf("disk-%d", i)
		n, err := NewDiskNode(id, filepath.Join(baseDir, fmt.Sprintf("node-%d", i)))
		if err != nil {
			return &downNode{id: id, err: err}
		}
		return n
	}
}

// downNode is a placeholder for a node whose backend could not be opened.
// It is permanently unavailable and fails every shard with ErrNodeDown
// wrapping the initialization error - or, once the context is done, with the
// context's error, like any other node.
type downNode struct {
	id  string
	err error
}

var _ Node = (*downNode)(nil)

func (n *downNode) ID() string { return n.id }
func (n *downNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	results := make([]ShardResult, len(ids))
	for i, id := range ids {
		results[i].Err = n.fail(ctx, "get", id)
	}
	return results
}
func (n *downNode) PutBatch(ctx context.Context, ids []ShardID, _ [][]byte) []error {
	return n.failAll(ctx, "put", ids)
}
func (n *downNode) DeleteBatch(ctx context.Context, ids []ShardID) []error {
	return n.failAll(ctx, "delete", ids)
}
func (n *downNode) Put(ctx context.Context, id ShardID, data []byte) error {
	return putOne(ctx, n, id, data)
}
func (n *downNode) Get(ctx context.Context, id ShardID) ([]byte, error) { return getOne(ctx, n, id) }
func (n *downNode) Delete(ctx context.Context, id ShardID) error        { return deleteOne(ctx, n, id) }
func (n *downNode) Available(context.Context) bool                      { return false }
func (n *downNode) Stats() NodeStats                                    { return NodeStats{} }
func (n *downNode) ResetStats()                                         {}
func (n *downNode) StatsErr(ctx context.Context) (NodeStats, error) {
	return NodeStats{}, n.fail(ctx, "stats", ShardID{})
}
func (n *downNode) fail(ctx context.Context, op string, id ShardID) error {
	if err := ctx.Err(); err != nil {
		return shardErr(op, id, n.id, err)
	}
	return shardErr(op, id, n.id, fmt.Errorf("%w: %w", ErrNodeDown, n.err))
}
func (n *downNode) failAll(ctx context.Context, op string, ids []ShardID) []error {
	errs := make([]error, len(ids))
	for i, id := range ids {
		errs[i] = n.fail(ctx, op, id)
	}
	return errs
}

// Size returns the current node count.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// EnsureSize grows the cluster to at least size nodes, or returns
// ErrClusterTooSmall if the cluster is fixed and smaller than size.
func (c *Cluster) EnsureSize(size int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) >= size {
		return nil
	}
	if c.factory == nil {
		return fmt.Errorf("%w: have %d, need %d", ErrClusterTooSmall, len(c.nodes), size)
	}
	for len(c.nodes) < size {
		c.nodes = append(c.nodes, c.factory(len(c.nodes)))
	}
	return nil
}

// AddNode appends a node and returns its index.
func (c *Cluster) AddNode(n Node) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = append(c.nodes, n)
	return len(c.nodes) - 1
}

// Node returns the node at the given index.
func (c *Cluster) Node(i int) (Node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("%w: node index %d of %d", ErrClusterTooSmall, i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// Put stores a shard on the node with the given index: a PutBatch of one.
func (c *Cluster) Put(ctx context.Context, node int, id ShardID, data []byte) error {
	return c.PutBatch(ctx, []ShardRef{{Node: node, ID: id}}, [][]byte{data})[0]
}

// Get reads a shard from the node with the given index: a GetBatch of one.
func (c *Cluster) Get(ctx context.Context, node int, id ShardID) ([]byte, error) {
	res := c.GetBatch(ctx, []ShardRef{{Node: node, ID: id}})[0]
	return res.Data, res.Err
}

// Available pings the node with the given index and reports whether it is
// up right now; it never answers from memory, so it is what an operator's
// "is it up" and a repair's target check ask. Out-of-range indices report
// false. The answer, and how long a failed ping took, are observed like a
// batch's (see Probe).
func (c *Cluster) Available(ctx context.Context, node int) bool {
	n, err := c.Node(node)
	if err != nil {
		return false
	}
	start := c.health.now()
	up := n.Available(ctx)
	if !up && ctx.Err() != nil {
		// An expired context reads as unavailable but says nothing about
		// the node.
		return false
	}
	c.health.observeProbe(node, up, c.health.now().Sub(start))
	return up
}

// Liveness is a Probe's answer, keyed by node index: whether each listed node
// is up, and which of those are slow.
type Liveness struct {
	Up map[int]bool
	// Slow holds the up nodes the slow-node rule marks slow - nil when none
	// is, the healthy case - whose rows a read lists after every other row.
	Slow map[int]bool
}

// Probe is the liveness round of a read: it reports, keyed by node index,
// whether each listed node is up, and which of them answer slowly. Liveness
// is remembered from the traffic the cluster already carries, not asked per
// read: a node whose last observation - a batch, a single operation, a ping -
// was an authoritative answer (success, not-found, corrupt) is reported up
// with no RPC. Only the nodes there is reason to doubt are pinged, all at
// once, each distinct node once: never observed, last observed failing
// transiently, or touched by Fail/Heal/HealAll. A healthy read therefore pays
// no ping round at all; a node that died since it was last heard from costs
// the read that finds out one failed batch - that failure doubts it - and
// every later Probe one ping, until it answers again. A node whose last
// failure - a get batch or a ping - took as long as a slow node's batch is
// silent: it accepts connections but does not answer, so a ping would only
// wait out its timeout. Probe reports it down from memory, and once every
// second hands it to one caller to ping again; every other Probe meanwhile
// still reports it down. Slowness is remembered the same way, from the
// latency of the get batches each node answered (NodeHealth.Latency); a slow
// node is still up.
func (c *Cluster) Probe(ctx context.Context, nodes []int) Liveness {
	up := make(map[int]bool, len(nodes))
	distinct := make([]int, 0, len(nodes))
	for _, nd := range nodes {
		if _, seen := up[nd]; !seen {
			up[nd] = true
			distinct = append(distinct, nd)
		}
	}
	ask, silent, slow := c.health.classify(distinct)
	for _, nd := range silent {
		up[nd] = false
	}
	answers := make([]bool, len(ask))
	var wg sync.WaitGroup
	for i, nd := range ask {
		wg.Add(1)
		go func(i, nd int) {
			defer wg.Done()
			answers[i] = c.Available(ctx, nd)
		}(i, nd)
	}
	wg.Wait()
	for i, nd := range ask {
		up[nd] = answers[i]
	}
	return Liveness{Up: up, Slow: slow}
}

// Fail injects a failure into the given nodes. It returns an error if any
// node does not support fault injection. Fail, Heal and HealAll also tell the
// cluster to doubt what it remembers of those nodes, so the next Probe asks
// them: an injected failure is excluded from the very next read plan and a
// healed node re-admitted by it, with no read spent on finding out. Until
// healed, a failed node is not asked again within an operation: the retry
// rule re-issues no shard of it, as no retry could succeed.
func (c *Cluster) Fail(nodes ...int) error { return c.setFailed(true, nodes) }

// Heal clears injected failures on the given nodes.
func (c *Cluster) Heal(nodes ...int) error { return c.setFailed(false, nodes) }

// setFailed applies the failure flag to every listed node, or to none:
// all targets are resolved and validated before any node is mutated, so a
// bad index or a node without fault injection cannot leave a prefix of the
// list failed. The error names every offending node, not just the first.
func (c *Cluster) setFailed(failed bool, nodes []int) error {
	injectors := make([]FaultInjector, 0, len(nodes))
	var unsupported []string
	for _, i := range nodes {
		n, err := c.Node(i)
		if err != nil {
			return err
		}
		inj, ok := n.(FaultInjector)
		if !ok {
			unsupported = append(unsupported, n.ID())
			continue
		}
		injectors = append(injectors, inj)
	}
	if len(unsupported) > 0 {
		return fmt.Errorf("store: node %s does not support fault injection",
			strings.Join(unsupported, ", "))
	}
	for _, inj := range injectors {
		inj.SetFailed(failed)
	}
	for _, i := range nodes {
		c.health.inject(i, failed)
	}
	return nil
}

// HealAll clears injected failures on every node that supports injection.
func (c *Cluster) HealAll() {
	c.mu.RLock()
	nodes := append([]Node(nil), c.nodes...)
	c.mu.RUnlock()
	for i, n := range nodes {
		if inj, ok := n.(FaultInjector); ok {
			inj.SetFailed(false)
			c.health.inject(i, false)
		}
	}
}

// TotalStats returns the sum of all nodes' I/O counters. Nodes whose stats
// cannot be fetched contribute zeros; use TotalStatsChecked when the
// distinction matters (e.g. experiment accounting over a real network).
func (c *Cluster) TotalStats() NodeStats {
	//lint:allow ctxcheck mirrors the ctx-less store.Node Stats contract; TotalStatsChecked is the ctx-aware form
	total, _ := c.TotalStatsChecked(context.Background())
	return total
}

// TotalStatsChecked returns the sum of the reachable nodes' I/O counters
// plus the IDs of nodes whose stats could not be fetched (within the
// context's deadline). A non-empty second return means the total
// undercounts the cluster's true I/O.
func (c *Cluster) TotalStatsChecked(ctx context.Context) (NodeStats, []string) {
	c.mu.RLock()
	nodes := append([]Node(nil), c.nodes...)
	c.mu.RUnlock()
	var total NodeStats
	var unreachable []string
	for _, n := range nodes {
		if r, ok := n.(StatsReporter); ok {
			s, err := r.StatsErr(ctx)
			if err != nil {
				unreachable = append(unreachable, n.ID())
				continue
			}
			total = total.Add(s)
			continue
		}
		total = total.Add(n.Stats())
	}
	return total, unreachable
}

// ResetStats zeroes every node's I/O counters.
func (c *Cluster) ResetStats() {
	c.mu.RLock()
	nodes := append([]Node(nil), c.nodes...)
	c.mu.RUnlock()
	for _, n := range nodes {
		n.ResetStats()
	}
}
