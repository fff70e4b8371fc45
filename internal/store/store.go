// Package store provides the distributed storage substrate for SEC: storage
// nodes holding coded shards, clusters of nodes, redundancy placement
// strategies (colocated and dispersed, Section IV of the paper), failure
// injection, and exact I/O accounting.
//
// The paper's retrieval metric is the number of node reads; every shard a
// node reads successfully, in a batch or alone, counts as one I/O read in
// the node's statistics, which the experiment harness aggregates and
// compares against the closed-form formulas (3)-(4).
//
// # Contexts
//
// Every node operation takes a context.Context as its first argument and is
// expected to honor it: an implementation returns promptly once the context
// is cancelled or its deadline passes, failing the operation with an error
// wrapping ctx.Err(). Cancellation is a property of the request, not the
// node - a cancelled operation says nothing about node health, so
// implementations must not surface it as ErrNodeDown, even on a failed
// node, and callers must not treat it as one (healing and re-planning logic
// checks ctx.Err() before attributing a failure to a node). Nodes check the
// context between shards, so a cancelled batch stops early with the
// remaining shards failed by ctx.Err(); shards already completed stay
// completed (and counted).
//
// # One node interface
//
// A node's shard operations are its three batches. Put, Get and Delete are
// a batch of one on every node, so each operation has one code path: one
// place its accounting, locking and fault handling live.
//
// # The ShardError taxonomy
//
// Failed operations return a *ShardError naming the node, the shard, and
// the operation, wrapping one of the sentinels below (or a transport/OS
// cause). errors.Is answers "what happened" (ErrNodeDown? ErrCorrupt?
// context.DeadlineExceeded?) and errors.As(&ShardError{}) answers "where",
// end-to-end: the TCP transport carries the provenance across the wire.
//
// # The ErrCorrupt contract
//
// A node that can verify shard integrity (DiskNode checks a per-shard
// CRC32C at read time) reports a damaged-but-present shard by failing Get
// with an error wrapping ErrCorrupt. Callers must treat ErrCorrupt exactly
// like ErrNotFound for healing purposes - the shard is damaged, the object
// may still be decodable from other rows, and scrub/repair rewrite it -
// and must never fall back to using the returned bytes (there are none).
// Nodes that cannot verify integrity (MemNode, and any remote node whose
// backend cannot) simply never return it.
package store

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors shared by all node implementations.
var (
	// ErrNodeDown is returned by operations on a failed (or unreachable)
	// node.
	ErrNodeDown = errors.New("store: node is down")
	// ErrNotFound is returned by Get and Delete when the shard is not on
	// the node.
	ErrNotFound = errors.New("store: shard not found")
	// ErrCorrupt is returned by Get when the shard is present but fails
	// integrity verification (bad header, truncation, CRC mismatch). See
	// the package comment for the healing contract.
	ErrCorrupt = errors.New("store: shard corrupt")
	// ErrBusy is returned when a resource's admission bound is exceeded
	// (for example a gateway archive whose writer queue is full). The
	// request was never started; the caller may retry after backoff.
	ErrBusy = errors.New("store: resource busy")
	// ErrConflict is returned when an optimistic precondition fails (a
	// commit against an expected version that is no longer current, or
	// creating a resource that already exists). Retrying without
	// re-reading current state will not succeed.
	ErrConflict = errors.New("store: version conflict")
)

// ShardError attributes one failed shard operation: which node, which
// shard, which operation, and what went wrong. It is the structured error
// every storage layer returns, so callers can errors.As their way from an
// archive-level failure down to the exact node and shard that caused it.
// The cause wraps one of the store sentinels, a context error, or a
// transport/OS error; errors.Is traverses it as usual.
type ShardError struct {
	// Node is the ID of the node the operation ran against.
	Node string
	// Shard names the affected shard. It is the zero ShardID for
	// node-scoped operations (ping, stats).
	Shard ShardID
	// Op is the operation that failed: "get", "put", "delete", "ping",
	// "stats".
	Op string
	// Err is the underlying cause.
	Err error
}

// Error renders the provenance and the cause.
func (e *ShardError) Error() string {
	if e.Shard == (ShardID{}) {
		return fmt.Sprintf("%s on %s: %v", e.Op, e.Node, e.Err)
	}
	return fmt.Sprintf("%s %v on %s: %v", e.Op, e.Shard, e.Node, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *ShardError) Unwrap() error { return e.Err }

// shardErr builds the canonical per-operation error.
func shardErr(op string, id ShardID, node string, cause error) error {
	return &ShardError{Node: node, Shard: id, Op: op, Err: cause}
}

// admit is the check every shard of a node operation passes first: a done
// context fails the shard with the context's error, and only then does a
// failed node fail it with ErrNodeDown, so a cancelled request is never
// misattributed to node health.
func admit(ctx context.Context, op string, id ShardID, node string, failed bool) error {
	if err := ctx.Err(); err != nil {
		return shardErr(op, id, node, err)
	}
	if failed {
		return shardErr(op, id, node, ErrNodeDown)
	}
	return nil
}

// ShardID identifies one coded shard: the Object names the stored codeword
// (for SEC, one version or delta of one archive) and Row is the generator
// row index of the shard within it.
type ShardID struct {
	Object string
	Row    int
}

// String renders the shard ID for logs and error messages.
func (id ShardID) String() string { return fmt.Sprintf("%s#%d", id.Object, id.Row) }

// NodeStats counts the I/O performed by a node since creation or the last
// reset. Reads and Writes count successful operations, the unit of the
// paper's I/O analysis; bytes track payload volume.
type NodeStats struct {
	Reads        uint64
	Writes       uint64
	Deletes      uint64
	BytesRead    uint64
	BytesWritten uint64
}

// Add returns the element-wise sum of two stat snapshots.
func (s NodeStats) Add(o NodeStats) NodeStats {
	return NodeStats{
		Reads:        s.Reads + o.Reads,
		Writes:       s.Writes + o.Writes,
		Deletes:      s.Deletes + o.Deletes,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
	}
}

// Node is a storage device holding shards. Implementations must be safe for
// concurrent use and must honor the context contract described in the
// package comment: every operation returns promptly (with an error wrapping
// ctx.Err()) once its context is cancelled or past its deadline.
//
// The batches are the operations. Each returns one outcome per id, aligned
// with the input, and every shard succeeds or fails on its own. Batching is
// a transport optimization, not an accounting one: a batch of m successful
// reads counts m Reads in NodeStats, the paper's per-shard I/O metric.
type Node interface {
	// ID returns a stable identifier for logs and placement debugging.
	ID() string
	// GetBatch reads every listed shard. The Data of a successful result
	// is read-only: the node may share it with what it stores and with
	// other readers (MemNode hands out the shard it holds), so a caller
	// that wants to change the bytes copies them first. A result with a
	// Release lends its memory until Release is called.
	GetBatch(ctx context.Context, ids []ShardID) []ShardResult
	// PutBatch stores data[i] under ids[i], overwriting any previous
	// contents, and returns one error per shard (nil for successes).
	// len(data) must equal len(ids).
	PutBatch(ctx context.Context, ids []ShardID, data [][]byte) []error
	// DeleteBatch removes every listed shard, returning one error per
	// shard (nil for successes, ErrNotFound for shards already absent).
	DeleteBatch(ctx context.Context, ids []ShardID) []error
	// Put, Get and Delete are the batch operations over one shard, and
	// behave, fail and count exactly as a batch of one.
	Put(ctx context.Context, id ShardID, data []byte) error
	Get(ctx context.Context, id ShardID) ([]byte, error)
	Delete(ctx context.Context, id ShardID) error
	// Available reports whether the node can currently serve requests,
	// bounded by the context (an expired context reads as unavailable).
	Available(ctx context.Context) bool
	// Stats returns an I/O counter snapshot.
	Stats() NodeStats
	// ResetStats zeroes the I/O counters.
	ResetStats()
}

// getOne, putOne and deleteOne are the single-shard operations of the nodes
// in this package: a batch of one.
func getOne(ctx context.Context, n Node, id ShardID) ([]byte, error) {
	res := n.GetBatch(ctx, []ShardID{id})[0]
	return res.Data, res.Err
}

func putOne(ctx context.Context, n Node, id ShardID, data []byte) error {
	return n.PutBatch(ctx, []ShardID{id}, [][]byte{data})[0]
}

func deleteOne(ctx context.Context, n Node, id ShardID) error {
	return n.DeleteBatch(ctx, []ShardID{id})[0]
}

// StatsReporter is implemented by nodes that can distinguish "no I/O yet"
// from "stats could not be fetched" (e.g. a remote node behind a dead
// network). Aggregators prefer StatsErr over Stats when available, so an
// unreachable node is reported instead of silently contributing zeros.
type StatsReporter interface {
	StatsErr(ctx context.Context) (NodeStats, error)
}

// FaultInjector is implemented by nodes that support simulated failures
// (crash-stop: a failed node rejects all operations but keeps its data, so
// healing models a transient outage).
type FaultInjector interface {
	SetFailed(failed bool)
}
