// Package secclient is the public SDK for SEC archive gateways: one
// Client API that works identically against a remote secgw daemon over
// TCP (Dial) and against a gateway embedded in the same process (Embed).
// The CLI (cmd/seccli) is built entirely on this package, so local and
// remote use share one code path.
//
// Remote clients reuse the transport's pooled-connection machinery:
// connections are pooled and kept alive, per-request contexts map onto
// wire deadlines (cancellation interrupts in-flight I/O), a read whose
// kept-alive connection turns out stale is sent again once on a fresh one
// (Create, Commit, Compact, Scrub and Repair are sent at most once), and
// responses larger than one frame stream across bounded continuation
// frames. Failures carry
// the store.ShardError taxonomy: errors.Is(err, sec.ErrBusy) detects a
// full writer queue, sec.ErrConflict a stale optimistic precondition,
// sec.ErrShardNotFound an unknown archive or version.
package secclient

import (
	"bytes"
	"context"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/transport"
)

// Backend is the archive-level service contract a Client speaks: the
// remote wire client and the embedded gateway both implement it.
type Backend = transport.ArchiveBackend

// Spec describes the configuration of an archive to create, in the string
// forms its manifest keeps.
type Spec = core.Spec

// Version is one retrieved version with its retrieval accounting.
type Version = transport.ArchiveVersion

// LogEntry describes one version in an archive's history.
type LogEntry = transport.ArchiveLogEntry

// Info describes an archive and the cluster behind it.
type Info = transport.ArchiveInfo

// NodeStatus pairs a node health snapshot with a liveness probe.
type NodeStatus = transport.ArchiveNodeStatus

// CompactReport is the result of a compaction pass.
type CompactReport = transport.CompactReport

// CommitInfo reports what a commit stored.
type CommitInfo = core.CommitInfo

// RetrievalStats is the read accounting of one retrieval.
type RetrievalStats = core.RetrievalStats

// ScrubReport is the result of a scrub pass.
type ScrubReport = core.ScrubReport

// RepairReport is the result of a node repair pass.
type RepairReport = core.RepairReport

// Manifest is the serializable description of an archive.
type Manifest = core.Manifest

// ErrNotServed reports that the dialed peer does not serve archive ops
// (a storage node, or a gateway predating them).
var ErrNotServed = transport.ErrNotServed

// Option configures a Dial'ed client.
type Option func(*dialConfig)

type dialConfig struct {
	id   string
	opts []transport.ClientOption
}

// WithID sets the identifier failures are attributed to (the ShardError
// Node field); it defaults to "secgw@<addr>".
func WithID(id string) Option {
	return func(c *dialConfig) { c.id = id }
}

// WithTimeout bounds each request round trip (in addition to any context
// deadline, whichever is earlier).
func WithTimeout(d time.Duration) Option {
	return func(c *dialConfig) { c.opts = append(c.opts, transport.WithTimeout(d)) }
}

// WithPoolSize caps the client's pooled connections to the gateway.
func WithPoolSize(size int) Option {
	return func(c *dialConfig) { c.opts = append(c.opts, transport.WithPoolSize(size)) }
}

// WithTrace returns ctx marked with trace id: every operation run under it
// carries the id to the gateway, which passes it on in the node batches the
// operation causes, and each hop records its spans under it (the
// gateway's and node servers' Spans). Id 0 means untraced, and returns ctx
// as it is; an untraced request is the same bytes on the wire it always
// was. A gateway that predates tracing refuses traced requests as
// ErrNotServed.
func WithTrace(ctx context.Context, id uint64) context.Context { return obs.WithTrace(ctx, id) }

// Client serves archive operations against a gateway. Methods are safe
// for concurrent use.
type Client struct {
	backend Backend
	remote  *transport.ArchiveClient // nil when embedded
}

// Dial returns a client for the gateway at addr. No connection is made
// until the first operation; use Available to probe liveness.
func Dial(addr string, opts ...Option) *Client {
	cfg := dialConfig{id: "secgw@" + addr}
	for _, opt := range opts {
		opt(&cfg)
	}
	remote := transport.NewArchiveClient(cfg.id, addr, cfg.opts...)
	return &Client{backend: remote, remote: remote}
}

// Embed returns a client backed by an in-process gateway (or any other
// Backend). Close on an embedded client is a no-op: the backend's owner
// manages its lifecycle.
func Embed(b Backend) *Client {
	return &Client{backend: b}
}

// Close releases the client's connections. In-flight operations fail
// fast.
func (c *Client) Close() error {
	if c.remote == nil {
		return nil
	}
	return c.remote.Close()
}

// Available reports whether the gateway answers a liveness probe.
// Embedded clients are always available.
func (c *Client) Available(ctx context.Context) bool {
	if c.remote == nil {
		return true
	}
	return c.remote.Available(ctx)
}

// Create builds a fresh archive under the gateway.
func (c *Client) Create(ctx context.Context, name string, spec Spec) (Info, error) {
	return c.backend.Create(ctx, name, spec)
}

// Commit appends object as the archive's next version.
func (c *Client) Commit(ctx context.Context, name string, object []byte) (CommitInfo, error) {
	return c.backend.Commit(ctx, name, -1, object)
}

// CommitAt appends object only if the archive currently holds exactly
// expect versions; a stale expectation fails with a
// store.ErrConflict-wrapping error (optimistic concurrency).
func (c *Client) CommitAt(ctx context.Context, name string, expect int, object []byte) (CommitInfo, error) {
	return c.backend.Commit(ctx, name, expect, object)
}

// Retrieve decodes one version; version 0 means the latest at request
// time (the version served is reported in the result). The object is in
// Data, the caller's own copy.
func (c *Client) Retrieve(ctx context.Context, name string, version int) (Version, error) {
	return c.retrieve(ctx, name, version)
}

// Latest decodes the newest version.
func (c *Client) Latest(ctx context.Context, name string) (Version, error) {
	return c.retrieve(ctx, name, 0)
}

// retrieve asks the backend for a version. An embedded gateway answers with
// its decoded blocks as Parts, which its read cache may share or which it
// lends (Release); they are joined into Data here and then released, so no
// caller holds memory the gateway shares.
func (c *Client) retrieve(ctx context.Context, name string, version int) (Version, error) {
	v, err := c.backend.Retrieve(ctx, name, version)
	if err == nil && v.Data == nil {
		v.Data, v.Parts = bytes.Join(v.Parts, nil), nil
	}
	if v.Release != nil {
		v.Release()
		v.Release = nil
	}
	return v, err
}

// RetrieveAll decodes versions 1..version (0 = through the latest).
func (c *Client) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, RetrievalStats, error) {
	return c.backend.RetrieveAll(ctx, name, version)
}

// Log returns the archive's version history with per-version chain
// costs.
func (c *Client) Log(ctx context.Context, name string) ([]LogEntry, error) {
	return c.backend.Log(ctx, name)
}

// Info describes the archive and the health of the cluster behind it.
func (c *Client) Info(ctx context.Context, name string) (Info, error) {
	return c.backend.Info(ctx, name)
}

// Compact bounds the archive's chain depth to maxChain (0 = the
// archive's configured policy).
func (c *Client) Compact(ctx context.Context, name string, maxChain int) (CompactReport, error) {
	return c.backend.Compact(ctx, name, maxChain)
}

// Scrub verifies every stored shard, optionally repairing damage.
func (c *Client) Scrub(ctx context.Context, name string, repair bool) (ScrubReport, error) {
	return c.backend.Scrub(ctx, name, repair)
}

// Repair reconstructs the archive's shards on the given cluster node.
func (c *Client) Repair(ctx context.Context, name string, node int) (RepairReport, error) {
	return c.backend.Repair(ctx, name, node)
}
