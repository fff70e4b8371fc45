package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// ChaosNode wraps a store.Node and perturbs it according to a Schedule.
// It implements the full node surface — Node, FaultInjector,
// StatsReporter — so it can stand in for any node in a cluster or behind a
// transport.Server, driving the same fault schedules over real TCP.
//
// All schedule evaluation is deterministic given the seed: decisions are
// drawn in operation order from a rand.Rand seeded by the schedule, and
// windows are measured on a tick counter (per-node by default, shared via
// UseClock). It is safe for concurrent use; under concurrent callers the
// injected faults are still drawn from the seeded stream, but their
// assignment to operations follows the arrival interleaving.
type ChaosNode struct {
	inner store.Node

	mu     sync.Mutex
	sched  Schedule
	rng    *rand.Rand
	clock  *Clock
	failed bool
	stats  InjectionStats
}

var _ store.Node = (*ChaosNode)(nil)
var _ store.FaultInjector = (*ChaosNode)(nil)
var _ store.StatsReporter = (*ChaosNode)(nil)

// NewChaosNode wraps inner under the given schedule, with a private tick
// clock. Use UseClock to share a clock across nodes.
func NewChaosNode(inner store.Node, sched Schedule) *ChaosNode {
	return &ChaosNode{
		inner: inner,
		sched: sched,
		rng:   rand.New(rand.NewSource(sched.Seed)),
		clock: &Clock{},
	}
}

// Inner returns the wrapped node.
func (n *ChaosNode) Inner() store.Node { return n.inner }

// UseClock makes the node draw its ticks from the shared clock, aligning
// its schedule windows with every other node on the same clock.
func (n *ChaosNode) UseClock(c *Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = c
}

// SetSchedule replaces the schedule and reseeds the random stream, so a
// drill can switch fault phases at runtime while staying replayable.
func (n *ChaosNode) SetSchedule(sched Schedule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sched = sched
	n.rng = rand.New(rand.NewSource(sched.Seed))
}

// InjectionStats returns a snapshot of the faults injected so far.
func (n *ChaosNode) InjectionStats() InjectionStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// SetFailed injects or clears a crash-stop failure at the wrapper, so any
// inner node — even one that does not implement store.FaultInjector —
// gains crash-stop injection. Data is retained.
func (n *ChaosNode) SetFailed(failed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = failed
}

// decision is the outcome of evaluating the schedule for one operation.
type decision struct {
	sleep      time.Duration
	err        error // non-nil fails the whole operation
	corruptIdx int   // batch index to fail with ErrCorrupt; -1 for none
	tearAt     int   // batch prefix length to apply; -1 for untorn
}

// decide evaluates the schedule against one operation covering batchLen
// shards, consuming one clock tick and the needed random draws.
func (n *ChaosNode) decide(op OpMask, batchLen int) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := decision{corruptIdx: -1, tearAt: -1}
	tick := n.clock.next()
	if n.failed {
		n.stats.PartitionDrops++
		d.err = transientErr("crash-stop failure")
		return d
	}
	for _, r := range n.sched.Rules {
		if !r.matches(op, tick) {
			continue
		}
		if r.P > 0 && r.P < 1 && n.rng.Float64() >= r.P {
			continue
		}
		switch r.Kind {
		case FaultLatency:
			d.sleep += r.Latency
			if r.Jitter > 0 {
				d.sleep += time.Duration(n.rng.Int63n(int64(r.Jitter)))
			}
			n.stats.Delayed++
		case FaultError:
			if d.err == nil {
				if r.Err != nil {
					d.err = fmt.Errorf("%w: %w", ErrInjected, r.Err)
				} else {
					d.err = transientErr("scripted error")
				}
				n.stats.Errors++
			}
		case FaultCorrupt:
			if op == OpGet && d.corruptIdx < 0 {
				d.corruptIdx = n.rng.Intn(batchLen)
				n.stats.Corruptions++
			}
		case FaultTorn:
			if batchLen > 1 && d.tearAt < 0 {
				d.tearAt = n.rng.Intn(batchLen)
				n.stats.Torn++
			}
		case FaultPartition:
			if d.err == nil {
				d.err = transientErr("partition")
				n.stats.PartitionDrops++
			}
		}
	}
	return d
}

// transientErr builds an injected transient cause: retryable (it wraps
// store.ErrNodeDown) and recognizable (it wraps ErrInjected).
func transientErr(what string) error {
	return fmt.Errorf("%w: %w (%s)", store.ErrNodeDown, ErrInjected, what)
}

// corruptErr builds an injected detected-corruption cause.
func corruptErr() error {
	return fmt.Errorf("%w: %w (bit flip)", store.ErrCorrupt, ErrInjected)
}

// shardErr attributes a fault to this node in the standard taxonomy.
func (n *ChaosNode) shardErr(op string, id store.ShardID, cause error) error {
	return &store.ShardError{Node: n.inner.ID(), Shard: id, Op: op, Err: cause}
}

// pause sleeps the injected latency, bounded by the context.
func (n *ChaosNode) pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ID returns the inner node's identifier.
func (n *ChaosNode) ID() string { return n.inner.ID() }

// Put stores a shard, subject to the schedule. Put, Get and Delete are
// batches of one, so a single operation draws the decision of a one-shard
// batch and a seeded schedule replays the same faults.
func (n *ChaosNode) Put(ctx context.Context, id store.ShardID, data []byte) error {
	return n.PutBatch(ctx, []store.ShardID{id}, [][]byte{data})[0]
}

// Get reads a shard, subject to the schedule.
func (n *ChaosNode) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	res := n.GetBatch(ctx, []store.ShardID{id})[0]
	return res.Data, res.Err
}

// Delete removes a shard, subject to the schedule.
func (n *ChaosNode) Delete(ctx context.Context, id store.ShardID) error {
	return n.DeleteBatch(ctx, []store.ShardID{id})[0]
}

// Available reports node liveness: false while crash-stopped or inside an
// active partition window, the inner node's answer otherwise.
func (n *ChaosNode) Available(ctx context.Context) bool {
	d := n.decide(OpPing, 1)
	if err := n.pause(ctx, d.sleep); err != nil {
		return false
	}
	if d.err != nil {
		return false
	}
	return n.inner.Available(ctx)
}

// perturb evaluates the schedule for one batch of op over ids and sleeps
// the injected latency. It returns how long a prefix of ids the inner node
// is to serve, the errors of the shards it is not to serve (at their index;
// nil below cut), and a shard of the prefix to fail as corrupt, or -1. An
// injected error or a done context fails every shard; a torn batch serves a
// prefix and fails the rest transiently.
func (n *ChaosNode) perturb(ctx context.Context, op OpMask, name string, ids []store.ShardID) (cut int, errs []error, corrupt int) {
	d := n.decide(op, max(len(ids), 1))
	errs = make([]error, len(ids))
	err := n.pause(ctx, d.sleep)
	if err == nil {
		err = d.err
	}
	cut = len(ids)
	switch {
	case err != nil:
		cut = 0
	case d.tearAt >= 0:
		cut, err = d.tearAt, transientErr("torn batch")
	}
	for i := cut; i < len(ids); i++ {
		errs[i] = n.shardErr(name, ids[i], err)
	}
	if d.corruptIdx >= cut {
		return cut, errs, -1
	}
	return cut, errs, d.corruptIdx
}

// GetBatch reads a batch, subject to the schedule: an injected error fails
// every shard, a torn batch applies only a prefix, and injected corruption
// fails one shard of the batch with ErrCorrupt.
func (n *ChaosNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	cut, errs, corrupt := n.perturb(ctx, OpGet, "get", ids)
	results := make([]store.ShardResult, len(ids))
	copy(results, n.inner.GetBatch(ctx, ids[:cut]))
	for i := cut; i < len(ids); i++ {
		results[i].Err = errs[i]
	}
	if corrupt >= 0 {
		results[corrupt] = store.ShardResult{Err: n.shardErr("get", ids[corrupt], corruptErr())}
	}
	return results
}

// PutBatch stores a batch, subject to the schedule; a torn batch persists
// only a prefix, modelling a node that died mid-batch.
func (n *ChaosNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	cut, errs, _ := n.perturb(ctx, OpPut, "put", ids)
	copy(errs, n.inner.PutBatch(ctx, ids[:cut], data[:cut]))
	return errs
}

// DeleteBatch removes a batch, subject to the schedule; a torn batch
// removes only a prefix, the failure mode two-phase GC must survive.
func (n *ChaosNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	cut, errs, _ := n.perturb(ctx, OpDelete, "delete", ids)
	copy(errs, n.inner.DeleteBatch(ctx, ids[:cut]))
	return errs
}

// Stats returns the inner node's I/O counters (injection does not count as
// I/O: a faulted operation never reached the device).
func (n *ChaosNode) Stats() store.NodeStats { return n.inner.Stats() }

// ResetStats zeroes the inner node's I/O counters.
func (n *ChaosNode) ResetStats() { n.inner.ResetStats() }

// StatsErr reports the inner node's counters, delegating to its
// StatsReporter when it has one.
func (n *ChaosNode) StatsErr(ctx context.Context) (store.NodeStats, error) {
	if r, ok := n.inner.(store.StatsReporter); ok {
		return r.StatsErr(ctx)
	}
	return n.inner.Stats(), nil
}
