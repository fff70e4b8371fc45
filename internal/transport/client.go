package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// defaultTimeout bounds each remote operation round trip when the caller's
// context carries no (earlier) deadline.
const defaultTimeout = 5 * time.Second

// defaultPingTimeout bounds a liveness ping. Pings answer "is the node up
// right now", so waiting out a full transfer timeout would make liveness
// probes the slowest part of a degraded read; they get their own short
// deadline and their own connection.
const defaultPingTimeout = time.Second

// defaultPoolSize is the number of pooled connections per remote node.
// Batches to different objects and concurrent archives multiplex over the
// pool instead of queuing behind one serialized connection; a handful of
// connections is enough to keep a node busy without holding a large fd
// budget per peer.
const defaultPoolSize = 4

// maxBatchPutBytes bounds the payload bytes packed into one put-batch
// frame, leaving slack under maxFrame for the request header and per-shard
// framing.
const maxBatchPutBytes = maxFrame - 64<<10

// errClientClosed is the cause recorded when an operation hits a RemoteNode
// whose Close has been called; it wraps into ErrNodeDown so retrieval
// re-planning treats the torn-down client exactly like a transient node
// failure.
var errClientClosed = errors.New("transport: client closed")

// poolConn is one pooled client connection with its buffered reader. A
// request is written through a writer borrowed for it (writeBuffered), as
// the server writes its responses.
type poolConn struct {
	c net.Conn
	r *bufio.Reader
}

func (p *poolConn) close() {
	_ = p.c.Close()
}

// RemoteNode is a store.Node backed by a transport server over TCP. It
// dials lazily and keeps a small pool of connections, so concurrent
// operations (and batches to different objects) run in parallel instead of
// serializing over a single connection; broken connections are re-dialed
// transparently. Liveness pings use a dedicated connection with a short
// deadline, so Available stays fast while transfers are in flight. It is
// safe for concurrent use.
//
// Every operation honors its context: the context deadline (when earlier
// than the per-operation timeout) becomes the wire deadline, and
// cancellation interrupts the in-flight read or write immediately. A
// connection whose RPC was cancelled mid-frame is retired, never returned
// to the pool, so later operations see a clean connection. Cancellation
// surfaces as the context's own error (wrapped in a *store.ShardError),
// not as ErrNodeDown: a cancelled request says nothing about node health.
type RemoteNode struct {
	id          string
	addr        string
	timeout     time.Duration
	pingTimeout time.Duration
	poolSize    int

	sem chan struct{} // caps connections checked out concurrently

	mu       sync.Mutex
	free     []*poolConn            // idle pooled connections
	inflight map[*poolConn]struct{} // connections checked out by running operations
	gen      int                    // bumped by Close so in-flight connections retire instead of re-pooling
	closed   bool                   // set by Close: operations fail fast with ErrNodeDown

	pingMu   sync.Mutex
	ping     *pingCall // the liveness exchange in flight, if any
	pingConn *poolConn // dedicated liveness connection; only the caller running n.ping touches it
}

// pingCall is one liveness exchange and everyone who is waiting for it.
// Callers of Available that arrive while it is in flight take its answer
// instead of queuing a ping - and a ping timeout - of their own.
type pingCall struct {
	done chan struct{} // closed once up and withdrawn are set
	up   bool
	// withdrawn says the exchange ended because its caller's context did:
	// that is no answer about the node, so a waiter asks again itself.
	withdrawn bool
	joined    int // callers sharing the exchange, its own included; guarded by pingMu
}

var _ store.Node = (*RemoteNode)(nil)
var _ store.StatsReporter = (*RemoteNode)(nil)

// ClientOption configures a RemoteNode.
type ClientOption func(*RemoteNode)

// WithTimeout sets the per-operation deadline applied when the caller's
// context has no earlier one (default 5s).
func WithTimeout(d time.Duration) ClientOption {
	return func(n *RemoteNode) { n.timeout = d }
}

// WithPingTimeout sets the deadline for liveness pings (default 1s).
// Available answers false once it expires, so keep it above the expected
// network round trip but well below the operation timeout.
func WithPingTimeout(d time.Duration) ClientOption {
	return func(n *RemoteNode) { n.pingTimeout = d }
}

// WithPoolSize sets how many connections the node keeps pooled (default 4,
// minimum 1). The liveness-ping connection is separate and not counted.
func WithPoolSize(size int) ClientOption {
	return func(n *RemoteNode) {
		if size > 0 {
			n.poolSize = size
		}
	}
}

// NewRemoteNode returns a client node for the server at addr. No connection
// is made until the first operation.
func NewRemoteNode(id, addr string, opts ...ClientOption) *RemoteNode {
	n := &RemoteNode{
		id:          id,
		addr:        addr,
		timeout:     defaultTimeout,
		pingTimeout: defaultPingTimeout,
		poolSize:    defaultPoolSize,
		inflight:    make(map[*poolConn]struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	n.sem = make(chan struct{}, n.poolSize)
	return n
}

// ID returns the client-side node identifier.
func (n *RemoteNode) ID() string { return n.id }

// Addr returns the server address the node dials.
func (n *RemoteNode) Addr() string { return n.addr }

// Put stores a shard on the remote node: a put batch of one.
func (n *RemoteNode) Put(ctx context.Context, id store.ShardID, data []byte) error {
	return n.PutBatch(ctx, []store.ShardID{id}, [][]byte{data})[0]
}

// Get fetches a shard from the remote node: a get batch of one.
func (n *RemoteNode) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	res := n.GetBatch(ctx, []store.ShardID{id})[0]
	return res.Data, res.Err
}

// Delete removes a shard from the remote node: a delete batch of one.
func (n *RemoteNode) Delete(ctx context.Context, id store.ShardID) error {
	return n.DeleteBatch(ctx, []store.ShardID{id})[0]
}

// GetBatch fetches several shards in one round trip per batch frame (large
// batches are chunked). Per-shard outcomes come back independently, so one
// missing or corrupt shard does not cost the rest of the batch.
func (n *RemoteNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	results := make([]store.ShardResult, len(ids))
	for start := 0; start < len(ids); start += maxBatchShards {
		chunk := ids[start:min(start+maxBatchShards, len(ids))]
		body, err := encodeGetBatch(chunk)
		n.batchChunk(ctx, opGetBatch, "get", chunk, parts{body}, err,
			func(i int, res store.ShardResult) { results[start+i] = res })
	}
	return results
}

// batchChunk runs one batch frame of op and hands each shard's outcome to
// set. A frame the server answered shard by shard sets each shard's own
// outcome. Any other failure fails every shard of the frame with its cause:
// a node that is down or a context that is done, as ErrNodeDown or the
// context's error; a peer that does not serve op, a batch that would not
// encode and a response that would not decode, as a non-transient error.
func (n *RemoteNode) batchChunk(ctx context.Context, op byte, name string, ids []store.ShardID, body parts, err error, set func(i int, res store.ShardResult)) {
	if err == nil {
		var resp response
		pool := 0
		if op == opGetBatch {
			pool = getBatchPool(len(ids))
		}
		if resp, err = n.roundTrip(ctx, name, op, store.ShardID{}, pool, body...); err == nil {
			var results []store.ShardResult
			if results, err = decodeBatchResults(resp.payload, ids, n.id, name); err == nil {
				resp.frame.lend(results)
				for i, res := range results {
					set(i, res)
				}
				return
			}
			resp.frame.release()
		}
	}
	for i, id := range ids {
		set(i, store.ShardResult{Err: n.batchErr(name, id, err)})
	}
}

// batchErr re-attributes a whole-batch failure to one shard, preserving
// the cause chain (ErrNodeDown, context errors) while naming the shard the
// caller asked for.
func (n *RemoteNode) batchErr(op string, id store.ShardID, err error) error {
	cause := err
	var se *store.ShardError
	if errors.As(err, &se) && se.Err != nil {
		cause = se.Err
	}
	return &store.ShardError{Node: n.id, Shard: id, Op: op, Err: cause}
}

// PutBatch stores several shards in one round trip per batch frame,
// chunking on both shard count and payload volume so every frame stays
// under the transport size limit.
func (n *RemoteNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	errs := make([]error, len(ids))
	start := 0
	for start < len(ids) {
		end, size := start, 4
		for end < len(ids) && end-start < maxBatchShards {
			entry := 2 + len(ids[end].Object) + 4 + 4 + len(data[end])
			if end > start && size+entry > maxBatchPutBytes {
				break
			}
			size += entry
			end++
		}
		chunk, base := ids[start:end], start
		body, err := encodePutBatch(chunk, data[start:end])
		n.batchChunk(ctx, opPutBatch, "put", chunk, body, err,
			func(i int, res store.ShardResult) { errs[base+i] = res.Err })
		start = end
	}
	return errs
}

// DeleteBatch removes several shards in one round trip per batch frame.
// Per-shard outcomes come back independently (a shard already absent fails
// with ErrNotFound without costing the rest of the batch).
func (n *RemoteNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	errs := make([]error, len(ids))
	for start := 0; start < len(ids); start += maxBatchShards {
		chunk := ids[start:min(start+maxBatchShards, len(ids))]
		body, err := encodeDeleteBatch(chunk)
		n.batchChunk(ctx, opDeleteBatch, "delete", chunk, parts{body}, err,
			func(i int, res store.ShardResult) { errs[start+i] = res.Err })
	}
	return errs
}

// Available reports whether the remote node answers a ping and is up
// within the ping timeout and the context's deadline, whichever is
// earlier. The ping runs on its own connection with its own short
// deadline, so liveness probes stay fast even while every pooled
// connection is busy with bulk transfers. One ping is on the wire at a
// time: a caller that finds one in flight waits for its answer, or leaves
// when its own context ends, so m readers meeting a silent node wait one
// ping timeout between them, not m in a row.
func (n *RemoteNode) Available(ctx context.Context) bool {
	for ctx.Err() == nil {
		n.pingMu.Lock()
		call := n.ping
		mine := call == nil
		if mine {
			if n.isClosed() {
				n.pingMu.Unlock()
				return false
			}
			call = &pingCall{done: make(chan struct{})}
			n.ping = call
		}
		call.joined++
		n.pingMu.Unlock()
		if mine {
			call.up = n.pingOnce(ctx)
			call.withdrawn = !call.up && ctxCause(ctx) != nil
			n.pingMu.Lock()
			n.ping = nil
			n.pingMu.Unlock()
			close(call.done)
			return call.up
		}
		select {
		case <-call.done:
			if !call.withdrawn {
				return call.up
			}
		case <-ctx.Done():
		}
	}
	return false
}

// pingOnce runs one ping exchange on the dedicated connection. Only the
// caller that registered n.ping runs it, so it has the connection to itself.
func (n *RemoteNode) pingOnce(ctx context.Context) bool {
	body, err := encodeRequest(opPing, store.ShardID{})
	if err != nil {
		return false
	}
	deadline := earliestDeadline(ctx, n.pingTimeout)
	reused := n.pingConn != nil
	if n.pingConn == nil {
		cn, err := n.dialDeadline(deadline)
		if err != nil {
			return false
		}
		n.pingConn = cn
	}
	resp, clean, err := n.exchangeCtx(ctx, n.pingConn, body, deadline, 0)
	if err != nil && reused && ctx.Err() == nil {
		// The kept-alive ping connection may be stale (server restarted);
		// retry exactly once on a fresh dial.
		n.pingConn.close()
		n.pingConn = nil
		cn, derr := n.dialDeadline(deadline)
		if derr != nil {
			return false
		}
		n.pingConn = cn
		resp, clean, err = n.exchangeCtx(ctx, n.pingConn, body, deadline, 0)
	}
	if err != nil || !clean {
		n.pingConn.close()
		n.pingConn = nil
		return err == nil && resp.status == statusOK
	}
	return resp.status == statusOK
}

// Stats fetches the remote node's I/O counters. Transport and decode
// failures yield zero counters to satisfy the store.Node interface; use
// StatsErr when "unreachable" must be distinguishable from "idle".
func (n *RemoteNode) Stats() store.NodeStats {
	//lint:allow ctxcheck mirrors the ctx-less store.Node Stats contract; StatsErr is the ctx-aware form
	stats, _ := n.StatsErr(context.Background())
	return stats
}

// StatsErr fetches the remote node's I/O counters, reporting transport and
// decode failures instead of swallowing them into zeros. Aggregators
// (store.Cluster.TotalStatsChecked) use it to flag unreachable nodes so
// experiment I/O accounting is never silently short.
func (n *RemoteNode) StatsErr(ctx context.Context) (store.NodeStats, error) {
	resp, err := n.roundTrip(ctx, "stats", opStats, store.ShardID{}, 0)
	if err != nil {
		return store.NodeStats{}, err
	}
	stats, err := decodeStats(resp.payload)
	if err != nil {
		return store.NodeStats{}, fmt.Errorf("node %s: %w", n.id, err)
	}
	return stats, nil
}

// ResetStats zeroes the remote node's I/O counters (best effort).
func (n *RemoteNode) ResetStats() {
	//lint:allow ctxcheck mirrors the ctx-less store.Node interface; best-effort fire-and-forget reset
	_, _ = n.roundTrip(context.Background(), "stats", opResetStats, store.ShardID{}, 0)
}

// Close tears down every connection - idle, checked out by an in-flight
// operation, and the ping connection - and fails future operations fast.
// An in-flight RPC whose connection is torn mid-frame surfaces ErrNodeDown
// (wrapping errClientClosed and the I/O cause), never a bare I/O error, so
// retrieval re-planning treats the closed client exactly like a transient
// node failure. The node does not re-dial afterwards.
func (n *RemoteNode) Close() error {
	n.mu.Lock()
	free := n.free
	n.free = nil
	inflight := make([]*poolConn, 0, len(n.inflight))
	for cn := range n.inflight {
		inflight = append(inflight, cn)
	}
	n.gen++ // connections checked out right now retire instead of re-pooling
	n.closed = true
	n.mu.Unlock()
	for _, cn := range free {
		cn.close()
	}
	for _, cn := range inflight {
		cn.close()
	}
	// closed is set, so no new ping starts; wait out the one in flight (at
	// most the ping timeout) before taking its connection away.
	n.pingMu.Lock()
	call := n.ping
	n.pingMu.Unlock()
	if call != nil {
		<-call.done
	}
	n.pingMu.Lock()
	if n.pingConn != nil {
		n.pingConn.close()
		n.pingConn = nil
	}
	n.pingMu.Unlock()
	return nil
}

func (n *RemoteNode) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// opErr classifies a failed round trip: a done context surfaces its own
// error (cancellation is a property of the request), everything else is
// attributed to the node as ErrNodeDown so healing treats it as a
// transient node failure.
func (n *RemoteNode) opErr(ctx context.Context, op string, id store.ShardID, cause error) error {
	if ctxErr := ctxCause(ctx); ctxErr != nil {
		return &store.ShardError{Node: n.id, Shard: id, Op: op, Err: ctxErr}
	}
	return &store.ShardError{Node: n.id, Shard: id, Op: op, Err: fmt.Errorf("%w: %w", store.ErrNodeDown, cause)}
}

// roundTrip sends one request frame and reads one response frame over a
// pooled connection. It makes one exchange, which re-dials once for free
// when a kept-alive connection turns out to be stale (the server restarted
// since the last operation) - but only for a replayable op: get and put
// batches, pings, stats and the archive reads are idempotent, and a delete
// batch whose first send was applied but whose response was lost reports
// ErrNotFound on the re-dial, which callers already treat as "gone" -
// at-least-once semantics. An archive op that changes state (create,
// commit, compact, scrub, repair) is sent at most once: no re-dial, so an
// exchange that fails after the request left may or may not have been
// applied, and the caller learns ErrNodeDown. Nothing here retries: a
// failed exchange is the node's failure, which the cluster's retry rule
// (store.Retryable, re-issued by every store.Cluster batch) decides whether
// to re-issue.
//
// The wire deadline is the earlier of the per-operation timeout and the
// context's deadline; cancellation interrupts the exchange immediately, and
// the connection is retired instead of re-pooled.
//
// The payload parts are written from where they lie; the payload returned
// is a sub-slice of its frame, which only the caller refers to from here on.
// A response frame above pool bytes is read into the frame pool, and the
// response's frame holds it for the caller: only batchChunk asks for that,
// for a get batch, whose shards it lends out with a Release. With pool 0
// the response is memory of its own, which the caller keeps.
func (n *RemoteNode) roundTrip(ctx context.Context, name string, op byte, id store.ShardID, pool int, payload ...[]byte) (response, error) {
	body, err := encodeTracedRequest(ctx, op, id, payload...)
	if err != nil {
		return response{}, err
	}
	// A request no frame can carry is the caller's error, not the node's:
	// refuse it here, with every part counted, before a connection is taken.
	if size := body.size(); size > maxFrame {
		return response{}, fmt.Errorf("transport: %s request of %d bytes: %w", name, size, errFrameTooLarge)
	}
	select {
	case n.sem <- struct{}{}:
	case <-ctx.Done():
		return response{}, n.opErr(ctx, name, id, ctx.Err())
	}
	defer func() { <-n.sem }()
	resp, err := n.tryExchange(ctx, body, pool, replayable(op))
	if err != nil {
		return response{}, n.opErr(ctx, name, id, err)
	}
	if err := errorFor(resp.status, resp.payload, n.id, name, id); err != nil {
		resp.frame.release()
		return response{}, err
	}
	return resp, nil
}

// tryExchange performs one pooled request/response exchange, including -
// when redial allows it - the free stale-connection re-dial when a reused
// pooled connection fails while the wire deadline still has time left: an
// exchange that ran out the deadline keeps its own error, so a timeout reads
// the same on a reused connection as on a fresh one. The returned error is a
// raw transport cause (not yet attributed to the node); a nil error means the
// server answered.
func (n *RemoteNode) tryExchange(ctx context.Context, body parts, pool int, redial bool) (response, error) {
	deadline := earliestDeadline(ctx, n.timeout)
	cn, reused, gen, err := n.takeConn(deadline)
	if err != nil {
		return response{}, err
	}
	resp, clean, err := n.exchangeCtx(ctx, cn, body, deadline, pool)
	if err != nil && redial && reused && time.Now().Before(deadline) && ctxCause(ctx) == nil && !n.isClosed() {
		n.retireConn(cn)
		if cn, err = n.dialConn(deadline); err == nil {
			resp, clean, err = n.exchangeCtx(ctx, cn, body, deadline, pool)
		} else {
			cn = nil
		}
	}
	if err != nil {
		if cn != nil {
			n.retireConn(cn)
		}
		return response{}, err
	}
	if !clean {
		n.retireConn(cn)
	} else {
		n.putConn(cn, gen)
	}
	return resp, nil
}

// exchangeCtx runs one request/response exchange under both the wire
// deadline and the context: if the context is cancelled mid-exchange, the
// connection's deadline is pulled into the past, failing the blocked read
// or write immediately. clean reports whether the connection is still fit
// for re-pooling; it is false on any error (a partial frame may be on the
// wire) and on the rare race where the exchange succeeded but the
// cancellation callback had already started - the conn must then be
// retired so the callback cannot poison a later operation's deadline.
func (n *RemoteNode) exchangeCtx(ctx context.Context, cn *poolConn, body parts, deadline time.Time, pool int) (resp response, clean bool, err error) {
	if err := ctx.Err(); err != nil {
		return response{}, true, err
	}
	stop := context.AfterFunc(ctx, func() {
		_ = cn.c.SetDeadline(time.Unix(1, 0)) // interrupt the in-flight read/write
	})
	resp, err = exchangeOn(cn, body, deadline, pool)
	clean = stop() && err == nil
	if err != nil {
		if cause := ctxCause(ctx); cause != nil {
			err = cause
		}
	}
	return resp, clean, err
}

// ctxCause reports why a failed exchange should be attributed to the
// context: its Err when done, or DeadlineExceeded when its deadline has
// passed even though the context timer has not fired yet (the net poller
// and the context run on separate timers, so a wire deadline copied from
// the context can expire a moment before ctx.Err() flips).
func ctxCause(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// exchangeOn writes one request frame and reads one logical response on
// the given connection under the deadline, reassembling statusPartial
// continuation frames into a single payload. A response frame above pool
// bytes is read into the frame pool (see readFrame), and the payload, if it
// is that frame's, comes with it; a reassembled payload is a new slice.
func exchangeOn(cn *poolConn, body parts, deadline time.Time, pool int) (response, error) {
	if err := cn.c.SetDeadline(deadline); err != nil {
		return response{}, err
	}
	if err := writeBuffered(cn.c, func(w io.Writer) error { return writeFrame(w, body...) }); err != nil {
		return response{}, err
	}
	var full []byte
	for {
		raw, frame, err := readFrame(cn.r, nil, pool)
		if err != nil {
			return response{}, err
		}
		status, payload, err := decodeResponse(raw)
		if err != nil {
			frame.release()
			return response{}, err
		}
		if status != statusPartial && full == nil {
			return response{status, payload, frame}, nil
		}
		full = append(full, payload...)
		frame.release()
		if status != statusPartial {
			return response{status: status, payload: full}, nil
		}
	}
}

// response is one logical response: its status, its payload, and the
// pooled frame the payload lies in, nil when it lies in memory of its own.
type response struct {
	status  byte
	payload []byte
	frame   *pooledFrame
}

// takeConn pops an idle pooled connection or dials a new one, registering
// it as in-flight so Close can tear it down, and returns the pool
// generation it belongs to. The caller must hold a sem slot, which caps
// checked-out connections at poolSize. After Close it fails with
// errClientClosed instead of resurrecting the pool.
func (n *RemoteNode) takeConn(deadline time.Time) (cn *poolConn, reused bool, gen int, err error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, false, 0, errClientClosed
	}
	gen = n.gen
	if len(n.free) > 0 {
		cn = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		n.inflight[cn] = struct{}{}
	}
	n.mu.Unlock()
	if cn != nil {
		return cn, true, gen, nil
	}
	cn, err = n.dialConn(deadline)
	return cn, false, gen, err
}

// dialConn dials a fresh connection and registers it as in-flight; if
// Close ran while the dial was outstanding, the connection is torn down
// and errClientClosed returned.
func (n *RemoteNode) dialConn(deadline time.Time) (*poolConn, error) {
	cn, err := n.dialDeadline(deadline)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		cn.close()
		return nil, errClientClosed
	}
	n.inflight[cn] = struct{}{}
	n.mu.Unlock()
	return cn, nil
}

// retireConn drops a checked-out connection for good.
func (n *RemoteNode) retireConn(cn *poolConn) {
	n.mu.Lock()
	delete(n.inflight, cn)
	n.mu.Unlock()
	cn.close()
}

// putConn returns a healthy connection to the pool, unless Close ran
// since it was taken (the generation moved on) or the pool is full.
func (n *RemoteNode) putConn(cn *poolConn, gen int) {
	n.mu.Lock()
	delete(n.inflight, cn)
	if gen == n.gen && len(n.free) < n.poolSize {
		n.free = append(n.free, cn)
		cn = nil
	}
	n.mu.Unlock()
	if cn != nil {
		cn.close()
	}
}

// dialDeadline dials the node, giving up at the wire deadline. A deadline
// already in the past fails immediately (net.DialTimeout would read a
// non-positive timeout as "no timeout").
func (n *RemoteNode) dialDeadline(deadline time.Time) (*poolConn, error) {
	timeout := time.Until(deadline)
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	c, err := net.DialTimeout("tcp", n.addr, timeout)
	if err != nil {
		return nil, err
	}
	return &poolConn{c: c, r: bufio.NewReader(c)}, nil
}

// earliestDeadline returns now+fallback or the context's deadline,
// whichever comes first.
func earliestDeadline(ctx context.Context, fallback time.Duration) time.Time {
	deadline := time.Now().Add(fallback)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}
