package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

// Server serves a store.Node over TCP. The zero value is not usable; use
// NewServer.
type Server struct {
	node     store.Node
	archive  ArchiveBackend
	wrapConn func(net.Conn) net.Conn

	// ops is the base context handed to every node operation; cancelOps
	// aborts in-flight operations when the server is force-closed (Close,
	// or a Shutdown whose drain deadline expired).
	ops       context.Context
	cancelOps context.CancelFunc

	reqs requestCounters

	// spans keeps the node batches of traced requests (Spans).
	spans obs.LazyRing

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// RequestStats counts the node requests a server has dispatched, by kind,
// so tests and benchmarks can assert the wire cost of a workload (e.g. one
// get-batch RPC per node per retrieval). Shard data only ever crosses the
// wire in batches: GetBatches, PutBatches, and DeleteBatches count batch
// RPCs; GetBatchShards, PutBatchShards, and DeleteBatchShards count the
// shards they carried. Archive ops are counted by the backend that serves
// them (gateway.Stats).
type RequestStats struct {
	Pings, Stats                                      uint64
	GetBatches, PutBatches, DeleteBatches             uint64
	GetBatchShards, PutBatchShards, DeleteBatchShards uint64
	// BytesRead counts shard payload bytes served to clients (get-batch
	// responses, and archive retrieve responses); BytesWritten counts shard
	// payload bytes received from clients (put-batch requests, and archive
	// commits). Framing and header bytes are excluded: these are the
	// bytes-on-wire the paper's I/O model prices, so a compressed-delta
	// workload shows up directly as a smaller BytesRead.
	BytesRead, BytesWritten uint64
}

type requestCounters struct {
	pings, stats                          atomic.Uint64
	getBatches, putBatches, deleteBatches atomic.Uint64
	getBatchShards, putBatchShards        atomic.Uint64
	deleteBatchShards                     atomic.Uint64
	bytesRead, bytesWritten               atomic.Uint64
}

// RequestStats returns a snapshot of the server's request counters.
func (s *Server) RequestStats() RequestStats {
	return RequestStats{
		Pings:             s.reqs.pings.Load(),
		Stats:             s.reqs.stats.Load(),
		GetBatches:        s.reqs.getBatches.Load(),
		PutBatches:        s.reqs.putBatches.Load(),
		DeleteBatches:     s.reqs.deleteBatches.Load(),
		GetBatchShards:    s.reqs.getBatchShards.Load(),
		PutBatchShards:    s.reqs.putBatchShards.Load(),
		DeleteBatchShards: s.reqs.deleteBatchShards.Load(),
		BytesRead:         s.reqs.bytesRead.Load(),
		BytesWritten:      s.reqs.bytesWritten.Load(),
	}
}

// Spans returns the spans of the given trace the server holds, oldest
// first; trace 0 returns all of them. A node server records each batch of
// a traced request it serves ("serve-get", "serve-put", "serve-delete");
// it keeps the latest obs.DefaultRingSpans, and none until a request
// carries a trace id.
func (s *Server) Spans(trace uint64) []obs.Span { return s.spans.Spans(trace) }

// ConnCount returns the number of client connections the server is
// currently holding. It exists for connection-leak checks: after every
// client of a test fixture has closed, the count must drain to zero.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// maxResponseChunk is the largest response payload sent in one frame
// (frame body = status byte + payload); longer payloads continue across
// statusPartial frames. A variable so tests can force splitting without
// 64 MiB payloads.
var maxResponseChunk = maxFrame - 1

// connBufSize sizes the buffer a frame is written through, bounds the
// request buffer a served connection keeps between requests, and is the
// size above which a frame is read into the frame pool. A request or
// response below it - a batch of 4 KiB shards, every JSON reply - leaves in
// one write; a shard or object above it is written to the socket from where
// it lies. 64 KiB is about what a loopback socket takes in one write.
const connBufSize = 64 << 10

// frameWriters lends a connection its write buffer for the length of one
// request or response, so that idle connections - most of them, and every
// ping connection always - hold none.
var frameWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, connBufSize) }}

// writeBuffered runs write - the frames of one request or response -
// through a writer borrowed from frameWriters and flushes it to c.
func writeBuffered(c io.Writer, write func(w io.Writer) error) error {
	w := frameWriters.Get().(*bufio.Writer)
	w.Reset(c)
	err := write(w)
	if err == nil {
		err = w.Flush()
	}
	w.Reset(nil) // the pool must not keep the connection alive
	frameWriters.Put(w)
	return err
}

// ScribbleRequests makes every served connection overwrite its request
// buffer as soon as handle returns. Tests set it (in TestMain, before any
// server runs) to prove that nothing served keeps a slice of a request.
var ScribbleRequests bool

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithConnWrapper installs a hook that decorates every accepted
// connection before it is served. It exists for transport-level fault
// injection (see faults.ConnChaos: per-read latency, connection resets),
// so chaos drills can perturb the wire itself and not just the node
// behind it. The wrapper must pass Close and deadline calls through to
// the underlying connection.
func WithConnWrapper(wrap func(net.Conn) net.Conn) ServerOption {
	return func(s *Server) { s.wrapConn = wrap }
}

// WithArchiveBackend installs a backend for the archive-level ops
// (opArchCreate..opArchRepair), turning the server into a gateway
// endpoint. A server without a backend answers those ops with
// statusError, which clients surface as ErrNotServed.
func WithArchiveBackend(b ArchiveBackend) ServerOption {
	return func(s *Server) { s.archive = b }
}

// errServerClosed rejects Listen on a server already shut down.
var errServerClosed = errors.New("transport: server already closed")

// NewServer returns a server exposing the given node. A nil node is
// allowed for gateway-only servers (WithArchiveBackend): shard ops then
// answer statusError, while ping answers statusOK so liveness probes
// reflect the server, not a node it does not have.
func NewServer(node store.Node, opts ...ServerOption) *Server {
	s := &Server{node: node, conns: make(map[net.Conn]struct{})}
	// The ops context is the server-owned root for in-flight request
	// handling; it is detached from any caller on purpose (the server's
	// lifetime, not a request's, bounds it) and cancelled by Close.
	//lint:allow ctxcheck server-owned lifecycle root, cancelled by Close; no caller context exists here
	s.ops, s.cancelOps = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts serving
// in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil, errServerClosed
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	// A request is read into the connection's one request buffer and is
	// valid until handle returns, when the buffer is the server's again. One
	// too large to be worth keeping comes from the frame pool and goes back
	// to it then, or is a buffer of its own, same rule.
	var buf []byte
	for {
		body, frame, err := readFrame(r, buf, connBufSize)
		if err != nil {
			return // EOF, broken peer, or drain deadline: drop the connection
		}
		status, payload, release := s.handle(s.ops, body)
		if ScribbleRequests {
			for i := range body {
				body[i] = 0xA5
			}
		}
		if frame != nil {
			frame.release()
		} else if cap(body) <= connBufSize {
			buf = body
		}
		err = writeBuffered(conn, func(w io.Writer) error { return writeResponse(w, status, payload) })
		if release != nil {
			release() // written or failed: nothing reads the payload any more
		}
		if err != nil {
			return
		}
	}
}

// writeResponse writes one logical response. One larger than a frame (a get
// batch whose shards together exceed maxFrame) is split across continuation
// frames wherever the boundary falls in the part list; the terminal frame
// carries the real status.
func writeResponse(w io.Writer, status byte, payload parts) error {
	for size := payload.size(); size > maxResponseChunk; size -= maxResponseChunk {
		var head parts
		head, payload = payload.split(maxResponseChunk)
		if err := writeFrame(w, append(parts{{statusPartial}}, head...)...); err != nil {
			return err
		}
	}
	return writeFrame(w, append(parts{{status}}, payload...)...)
}

// textPart is a response payload of one message.
func textPart(msg string) parts { return parts{[]byte(msg)} }

// handle answers one request. The payload may be lent (an archive read's
// decoded blocks): release, when not nil, gives it back once the reply is
// written or has failed to write.
func (s *Server) handle(ctx context.Context, body []byte) (status byte, payload parts, release func()) {
	req, err := decodeRequest(body)
	if err != nil {
		return statusError, textPart(err.Error()), nil
	}
	if req.op == opTraced {
		field := req.id.Object
		if req, err = decodeRequest(req.payload); err == nil && (traceOf(field) == 0 || req.op < opArchCreate || req.op > opArchRepair) {
			err = fmt.Errorf("transport: traced frame wraps op %d with a trace field of %d bytes", req.op, len(field))
		}
		if err != nil {
			return statusError, textPart(err.Error()), nil
		}
		ctx = obs.WithTrace(ctx, traceOf(field))
	}
	if req.op >= opArchCreate && req.op <= opArchRepair {
		return s.handleArchive(ctx, req)
	}
	if trace := traceOf(req.id.Object); trace != 0 && req.op >= opGetBatch && req.op <= opDeleteBatch {
		ctx = obs.RecordInto(obs.WithTrace(ctx, trace), &s.spans)
	}
	status, payload = s.handleNode(ctx, req)
	return status, payload, nil
}

// handleNode answers one storage-node request.
func (s *Server) handleNode(ctx context.Context, req request) (status byte, payload parts) {
	if s.node == nil && req.op != opPing {
		return statusError, textPart("transport: no storage node served")
	}
	switch req.op {
	case opPing:
		s.reqs.pings.Add(1)
		if s.node != nil && !s.node.Available(ctx) {
			return statusNodeDown, nil
		}
		return statusOK, nil
	case opStats:
		s.reqs.stats.Add(1)
		return statusOK, parts{encodeStats(s.node.Stats())}
	case opResetStats:
		s.node.ResetStats()
		return statusOK, nil
	case opGetBatch:
		ids, err := decodeGetBatch(req.payload)
		if err != nil {
			return statusError, textPart(err.Error())
		}
		s.reqs.getBatches.Add(1)
		s.reqs.getBatchShards.Add(uint64(len(ids)))
		defer obs.Start(ctx, "serve-get").EndBatch(-1, len(ids))
		results := s.node.GetBatch(ctx, ids)
		for _, res := range results {
			if res.Err == nil {
				s.reqs.bytesRead.Add(uint64(len(res.Data)))
			}
		}
		return statusOK, encodeBatchResults(results)
	case opPutBatch:
		ids, data, err := decodePutBatch(req.payload)
		if err != nil {
			return statusError, textPart(err.Error())
		}
		s.reqs.putBatches.Add(1)
		s.reqs.putBatchShards.Add(uint64(len(ids)))
		defer obs.Start(ctx, "serve-put").EndBatch(-1, len(ids))
		for _, d := range data {
			s.reqs.bytesWritten.Add(uint64(len(d)))
		}
		results := make([]store.ShardResult, len(ids))
		for i, err := range s.node.PutBatch(ctx, ids, data) {
			results[i] = store.ShardResult{Err: err}
		}
		return statusOK, encodeBatchResults(results)
	case opDeleteBatch:
		ids, err := decodeDeleteBatch(req.payload)
		if err != nil {
			return statusError, textPart(err.Error())
		}
		s.reqs.deleteBatches.Add(1)
		s.reqs.deleteBatchShards.Add(uint64(len(ids)))
		defer obs.Start(ctx, "serve-delete").EndBatch(-1, len(ids))
		results := make([]store.ShardResult, len(ids))
		for i, err := range s.node.DeleteBatch(ctx, ids) {
			results[i] = store.ShardResult{Err: err}
		}
		return statusOK, encodeBatchResults(results)
	default:
		return statusError, textPart(fmt.Sprintf("transport: unknown op %d", req.op))
	}
}

// beginClose marks the server closed and returns the listener and a
// snapshot of the active connections, or ok=false when it was already
// closed.
func (s *Server) beginClose() (ln net.Listener, conns []net.Conn, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false
	}
	s.closed = true
	ln = s.listener
	for c := range s.conns {
		conns = append(conns, c)
	}
	return ln, conns, true
}

// connSnapshot returns the connections still being served.
func (s *Server) connSnapshot() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// Close stops accepting connections, cancels in-flight node operations,
// closes active connections, and waits for the handler goroutines to exit.
// It is idempotent. Use Shutdown to drain in-flight requests instead of
// aborting them.
func (s *Server) Close() error {
	ln, conns, ok := s.beginClose()
	if !ok {
		s.wg.Wait()
		return nil
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.cancelOps()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown gracefully stops the server: it stops accepting connections,
// lets every request already in flight finish and flush its response, and
// closes each connection once it goes idle. If the context expires before
// the drain completes, the remaining operations are cancelled and their
// connections force-closed, and the context's error is returned. Like
// Close, it is idempotent (a concurrent or prior Close/Shutdown wins).
func (s *Server) Shutdown(ctx context.Context) error {
	ln, conns, ok := s.beginClose()
	if !ok {
		s.wg.Wait()
		return nil
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Poison reads on every open connection: an idle conn fails its next
	// readFrame immediately and closes; a conn mid-request finishes the
	// request, writes the response, and then fails the next read. Requests
	// never block on the read deadline - only the wait between them does.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.cancelOps()
		for _, c := range s.connSnapshot() {
			_ = c.Close()
		}
		<-done
		return ctx.Err()
	}
}
