package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

func testIDs(object string, rows ...int) []store.ShardID {
	ids := make([]store.ShardID, len(rows))
	for i, r := range rows {
		ids[i] = store.ShardID{Object: object, Row: r}
	}
	return ids
}

func TestRemoteBatchRoundTrip(t *testing.T) {
	mem, client := startServer(t)
	ids := testIDs("arch/v1", 0, 1, 2, 3)
	data := [][]byte{{1}, {2, 2}, {3, 3, 3}, {}}
	for i, err := range client.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i, res := range client.GetBatch(t.Context(), ids) {
		if res.Err != nil {
			t.Fatalf("get %d: %v", i, res.Err)
		}
		if !bytes.Equal(res.Data, data[i]) {
			t.Errorf("shard %d = %v, want %v", i, res.Data, data[i])
		}
	}
	// The backing node counted every shard individually.
	if got := mem.Stats(); got.Reads != 4 || got.Writes != 4 {
		t.Errorf("backing stats = %+v, want 4 reads and 4 writes", got)
	}
}

func TestRemoteBatchIsOneRPC(t *testing.T) {
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	ids := testIDs("o", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	data := make([][]byte, len(ids))
	for i := range data {
		data[i] = []byte{byte(i)}
	}
	client.PutBatch(t.Context(), ids, data)
	client.GetBatch(t.Context(), ids)
	stats := srv.RequestStats()
	if stats.PutBatches != 1 || stats.PutBatchShards != 10 {
		t.Errorf("put batches = %d/%d shards, want 1/10", stats.PutBatches, stats.PutBatchShards)
	}
	if stats.GetBatches != 1 || stats.GetBatchShards != 10 {
		t.Errorf("get batches = %d/%d shards, want 1/10", stats.GetBatches, stats.GetBatchShards)
	}
}

func TestRemoteBatchPerShardStatuses(t *testing.T) {
	mem, client := startServer(t)
	present := store.ShardID{Object: "o", Row: 0}
	if err := mem.Put(t.Context(), present, []byte{7}); err != nil {
		t.Fatal(err)
	}
	results := client.GetBatch(t.Context(), testIDs("o", 0, 1, 2))
	if results[0].Err != nil || !bytes.Equal(results[0].Data, []byte{7}) {
		t.Errorf("present shard = %v/%v", results[0].Data, results[0].Err)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(results[i].Err, store.ErrNotFound) {
			t.Errorf("missing shard %d err = %v, want ErrNotFound", i, results[i].Err)
		}
	}
}

func TestRemoteBatchCorruptStatusPropagates(t *testing.T) {
	// A disk-backed server with one rotten shard file: the batch must carry
	// statusCorrupt for that row only, and the client must surface
	// store.ErrCorrupt for it while the siblings decode fine.
	disk, err := store.NewDiskNode("backing", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(disk)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	ids := testIDs("o", 0, 1, 2)
	for i, err := range client.PutBatch(t.Context(), ids, [][]byte{{1}, {2}, {3}}) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	corruptOneShardFile(t, disk)
	results := client.GetBatch(t.Context(), ids)
	var corrupt, healthy int
	for i, res := range results {
		switch {
		case res.Err == nil:
			healthy++
		case errors.Is(res.Err, store.ErrCorrupt):
			corrupt++
		default:
			t.Errorf("shard %d: unexpected error %v", i, res.Err)
		}
	}
	if corrupt != 1 || healthy != 2 {
		t.Errorf("corrupt=%d healthy=%d, want 1 and 2", corrupt, healthy)
	}
}

// flakyNode serves a fixed number of gets and then crashes, modelling a
// node dying mid-batch: later shards in the same batch frame must come
// back as ErrNodeDown while the earlier ones keep their data.
type flakyNode struct {
	*store.MemNode
	remaining atomic.Int64
}

func (f *flakyNode) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	if f.remaining.Add(-1) < 0 {
		return nil, fmt.Errorf("get %v: %w", id, store.ErrNodeDown)
	}
	return f.MemNode.Get(ctx, id)
}

// GetBatch routes through the crashing Get (instead of the embedded
// MemNode's native batch) so the crash hits mid-batch.
func (f *flakyNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	results := make([]store.ShardResult, len(ids))
	for i, id := range ids {
		data, err := f.Get(ctx, id)
		results[i] = store.ShardResult{Data: data, Err: err}
	}
	return results
}

func TestRemoteBatchMidBatchCrash(t *testing.T) {
	flaky := &flakyNode{MemNode: store.NewMemNode("flaky")}
	ids := testIDs("o", 0, 1, 2, 3)
	for i, id := range ids {
		if err := flaky.MemNode.Put(t.Context(), id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flaky.remaining.Store(2) // crash after two shards
	srv := NewServer(flaky)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	results := client.GetBatch(t.Context(), ids)
	for i := 0; i < 2; i++ {
		if results[i].Err != nil || !bytes.Equal(results[i].Data, []byte{byte(i)}) {
			t.Errorf("pre-crash shard %d = %v/%v", i, results[i].Data, results[i].Err)
		}
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(results[i].Err, store.ErrNodeDown) {
			t.Errorf("post-crash shard %d err = %v, want ErrNodeDown", i, results[i].Err)
		}
	}
}

func TestRemoteBatchServerGone(t *testing.T) {
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRemoteNode("remote", addr.String(), WithTimeout(500*time.Millisecond))
	t.Cleanup(func() { _ = client.Close() })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, res := range client.GetBatch(t.Context(), testIDs("o", 0, 1)) {
		if !errors.Is(res.Err, store.ErrNodeDown) {
			t.Errorf("shard %d err = %v, want ErrNodeDown", i, res.Err)
		}
	}
	for i, err := range client.PutBatch(t.Context(), testIDs("o", 0, 1), [][]byte{{1}, {2}}) {
		if !errors.Is(err, store.ErrNodeDown) {
			t.Errorf("put %d err = %v, want ErrNodeDown", i, err)
		}
	}
}

// legacyServer answers per-shard operations from a node but reports
// statusError for batch ops, like a server that predates batching. It
// returns the server behind it, whose counters see the per-shard requests,
// and the count of batch requests it refused.
func legacyServer(t *testing.T, node store.Node) (net.Addr, *Server, *atomic.Int64) {
	t.Helper()
	inner := NewServer(node)
	refused := &atomic.Int64{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					body, _, err := readFrame(conn, nil, 0)
					if err != nil {
						return
					}
					var status byte
					var payload parts
					if req, err := decodeRequest(body); err == nil && (req.op == opGetBatch || req.op == opPutBatch || req.op == opDeleteBatch) {
						refused.Add(1)
						status, payload = statusError, textPart(fmt.Sprintf("transport: unknown op %d", req.op))
					} else {
						status, payload = inner.handle(context.Background(), body)
					}
					if err := writeResponse(conn, status, payload); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr(), inner, refused
}

// TestRemoteBatchAgainstLegacyPeer: the client speaks only batch ops for
// shard data, so a peer that does not serve them fails every shard of the
// frame with a non-transient error naming the op - one RPC per frame, and no
// per-shard traffic behind it. Single-shard calls are batches of one and
// fail the same way.
func TestRemoteBatchAgainstLegacyPeer(t *testing.T) {
	mem := store.NewMemNode("legacy")
	addr, inner, refused := legacyServer(t, mem)
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	ids := testIDs("o", 0, 1, 2)
	check := func(op string, errs ...error) {
		t.Helper()
		for i, err := range errs {
			var se *store.ShardError
			if !errors.As(err, &se) || se.Op != op || se.Shard != ids[i] || store.Retryable(err) || !strings.Contains(err.Error(), "unknown op") {
				t.Errorf("%s of shard %d against a legacy peer = %v, want a non-transient %s error naming the shard", op, i, err, op)
			}
		}
	}
	check("put", client.PutBatch(t.Context(), ids, [][]byte{{1}, {2}, {3}})...)
	var errs []error
	for _, res := range client.GetBatch(t.Context(), ids) {
		errs = append(errs, res.Err)
	}
	check("get", errs...)
	check("delete", client.DeleteBatch(t.Context(), ids)...)
	_, err := client.Get(t.Context(), ids[0])
	check("get", err)
	if got := refused.Load(); got != 4 {
		t.Errorf("legacy peer refused %d batch frames, want 4 (one per call)", got)
	}
	if st := inner.RequestStats(); st != (RequestStats{}) {
		t.Errorf("requests behind the refused batches: %+v", st)
	}
	if got := mem.Stats(); got != (store.NodeStats{}) {
		t.Errorf("legacy backing stats = %+v, want none", got)
	}
}

// blockingNode parks every read until released, for testing connection
// multiplexing and ping latency under load.
type blockingNode struct {
	*store.MemNode
	entered chan struct{}
	release chan struct{}
}

func (b *blockingNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done(): // a force-closed server cancels parked operations
	}
	return b.MemNode.GetBatch(ctx, ids)
}

func TestRemotePoolMultiplexesConnections(t *testing.T) {
	const workers = 3
	node := &blockingNode{
		MemNode: store.NewMemNode("slow"),
		entered: make(chan struct{}, workers),
		release: make(chan struct{}),
	}
	id := store.ShardID{Object: "o", Row: 0}
	if err := node.MemNode.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(),
		WithTimeout(5*time.Second), WithPoolSize(workers))
	t.Cleanup(func() { _ = client.Close() })

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Get(context.Background(), id); err != nil {
				t.Error(err)
			}
		}()
	}
	// All workers must reach the node concurrently: over a single serialized
	// connection only one request would be in the handler at a time and this
	// would deadlock instead of draining.
	for i := 0; i < workers; i++ {
		select {
		case <-node.entered:
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d of %d requests in flight: pool is serializing", i, workers)
		}
	}
	close(node.release)
	wg.Wait()
}

func TestAvailableFastUnderLoad(t *testing.T) {
	// With every pooled connection busy in a slow transfer, a liveness ping
	// must still answer promptly on its dedicated connection.
	node := &blockingNode{
		MemNode: store.NewMemNode("slow"),
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	id := store.ShardID{Object: "o", Row: 0}
	if err := node.MemNode.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(),
		WithTimeout(10*time.Second), WithPoolSize(2), WithPingTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = client.Get(context.Background(), id)
		}()
	}
	<-node.entered
	<-node.entered // both pooled connections now held by blocked transfers
	start := time.Now()
	up := client.Available(t.Context())
	elapsed := time.Since(start)
	close(node.release)
	wg.Wait()
	if !up {
		t.Error("Available = false while the node is up")
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("ping took %v behind busy transfers, want well under the ping deadline", elapsed)
	}
}

func TestRemoteBatchAfterServerRestart(t *testing.T) {
	// A pooled connection kept alive across a server restart must be
	// re-dialed transparently for batch operations too.
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRemoteNode("remote", addr.String(), WithTimeout(time.Second))
	t.Cleanup(func() { _ = client.Close() })
	ids := testIDs("o", 0, 1)
	data := [][]byte{{1}, {2}}
	for _, err := range client.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(mem)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	for i, res := range client.GetBatch(t.Context(), ids) {
		if res.Err != nil || !bytes.Equal(res.Data, data[i]) {
			t.Errorf("post-restart shard %d = %v/%v", i, res.Data, res.Err)
		}
	}
}

func TestExchangeReassemblesPartialFrames(t *testing.T) {
	// A logical response split across statusPartial continuation frames
	// must come back as one payload with the terminal status.
	c1, c2 := net.Pipe()
	defer c1.Close()
	done := make(chan error, 1)
	go func() {
		defer c2.Close()
		r := bufio.NewReader(c2)
		if _, _, err := readFrame(r, nil, 0); err != nil {
			done <- err
			return
		}
		for _, part := range [][]byte{[]byte("hel"), []byte("lo ")} {
			if err := writeFrame(c2, []byte{statusPartial}, part); err != nil {
				done <- err
				return
			}
		}
		done <- writeFrame(c2, []byte{statusOK}, []byte("world"))
	}()
	cn := &poolConn{c: c1, r: bufio.NewReader(c1)}
	req, err := encodeRequest(opPing, store.ShardID{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := exchangeOn(cn, req, time.Now().Add(2*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != statusOK || string(resp.payload) != "hello world" {
		t.Errorf("reassembled = %d %q, want statusOK \"hello world\"", resp.status, resp.payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRemoteBatchSplitResponseCountsReadsOnce(t *testing.T) {
	// Force the server to split the batch response across several frames
	// and verify the shards round-trip intact with every read counted
	// exactly once: an oversized batch must never degrade into a
	// per-shard re-read of already-counted shards.
	defer func(prev int) { maxResponseChunk = prev }(maxResponseChunk)
	maxResponseChunk = 64

	mem, client := startServer(t)
	ids := testIDs("o", 0, 1, 2, 3)
	data := make([][]byte, len(ids))
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, 100) // each shard > chunk
	}
	for i, err := range client.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	mem.ResetStats()
	for i, res := range client.GetBatch(t.Context(), ids) {
		if res.Err != nil {
			t.Fatalf("get %d: %v", i, res.Err)
		}
		if !bytes.Equal(res.Data, data[i]) {
			t.Errorf("shard %d mismatch across split response", i)
		}
	}
	if got := mem.Stats().Reads; got != uint64(len(ids)) {
		t.Errorf("reads = %d, want %d: split response must not trigger re-reads", got, len(ids))
	}
}

func TestCloseRetiresInFlightConnections(t *testing.T) {
	// Close tears down the connection a running Get has checked out: the
	// Get fails as ErrNodeDown (never a bare I/O error), nothing slips
	// back into the pool, and later operations fail fast instead of
	// re-dialing a closed client.
	node := &blockingNode{
		MemNode: store.NewMemNode("slow"),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	id := store.ShardID{Object: "o", Row: 0}
	if err := node.MemNode.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(5*time.Second), WithPoolSize(1))
	done := make(chan error, 1)
	go func() {
		_, err := client.Get(context.Background(), id)
		done <- err
	}()
	<-node.entered // the Get holds the only pooled connection
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	close(node.release)
	err = <-done
	if !errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("in-flight Get after Close = %v, want ErrNodeDown", err)
	}
	var se *store.ShardError
	if !errors.As(err, &se) || se.Shard != id || se.Op != "get" {
		t.Errorf("in-flight Get after Close: no ShardError provenance in %v", err)
	}
	client.mu.Lock()
	leaked := len(client.free) + len(client.inflight)
	client.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d connections still held after Close", leaked)
	}
	if _, err := client.Get(t.Context(), id); !errors.Is(err, store.ErrNodeDown) {
		t.Errorf("Get after Close = %v, want ErrNodeDown", err)
	}
}

func TestBatchProtocolRoundTrip(t *testing.T) {
	ids := []store.ShardID{{Object: "a", Row: 0}, {Object: "b/c#d", Row: -3}, {Object: "", Row: 7}}
	body, err := encodeGetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeGetBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ids) {
		t.Fatalf("decoded %d ids, want %d", len(back), len(ids))
	}
	for i := range ids {
		if back[i] != ids[i] {
			t.Errorf("id %d = %+v, want %+v", i, back[i], ids[i])
		}
	}

	data := [][]byte{{1, 2}, nil, {3}}
	pb, err := encodePutBatch(ids, data)
	if err != nil {
		t.Fatal(err)
	}
	pids, pdata, err := decodePutBatch(flat(pb))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if pids[i] != ids[i] || !bytes.Equal(pdata[i], data[i]) {
			t.Errorf("put entry %d = %+v/%v", i, pids[i], pdata[i])
		}
	}

	results := []store.ShardResult{
		{Data: []byte{9, 9}},
		{Err: fmt.Errorf("gone: %w", store.ErrNotFound)},
		{Err: fmt.Errorf("rotten: %w", store.ErrCorrupt)},
	}
	rb := flat(encodeBatchResults(results))
	decoded, err := decodeBatchResults(rb, ids, "test-node", "get")
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].Err != nil || !bytes.Equal(decoded[0].Data, []byte{9, 9}) {
		t.Errorf("result 0 = %+v", decoded[0])
	}
	if !errors.Is(decoded[1].Err, store.ErrNotFound) {
		t.Errorf("result 1 err = %v", decoded[1].Err)
	}
	if !errors.Is(decoded[2].Err, store.ErrCorrupt) {
		t.Errorf("result 2 err = %v", decoded[2].Err)
	}
}

func TestBatchProtocolRejectsMalformed(t *testing.T) {
	// Forged count far beyond the remaining bytes.
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := decodeGetBatch(forged); err == nil {
		t.Error("forged get-batch count: want error")
	}
	if _, _, err := decodePutBatch(forged); err == nil {
		t.Error("forged put-batch count: want error")
	}
	if _, err := decodeBatchResults(forged, nil, "test-node", "get"); err == nil {
		t.Error("forged result count: want error")
	}
	// Count/ids mismatch must be rejected, not misattributed.
	rb := flat(encodeBatchResults([]store.ShardResult{{Data: []byte{1}}}))
	if _, err := decodeBatchResults(rb, testIDs("o", 0, 1), "test-node", "get"); err == nil {
		t.Error("result count mismatch: want error")
	}
	// Truncated frames.
	good, err := encodeGetBatch(testIDs("obj", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeGetBatch(good[:cut]); err == nil {
			t.Errorf("truncated get batch at %d decoded", cut)
		}
	}
	// Trailing garbage.
	if _, err := decodeGetBatch(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Oversized batch refused at encode time.
	if _, err := encodeGetBatch(make([]store.ShardID, maxBatchShards+1)); !errors.Is(err, errBatchTooLarge) {
		t.Errorf("oversized batch err = %v, want errBatchTooLarge", err)
	}
}

func TestServerRejectsMalformedBatch(t *testing.T) {
	srv := NewServer(store.NewMemNode("n"))
	for _, payload := range [][]byte{nil, {1}, {0, 0, 1, 0}, {0xFF, 0xFF, 0xFF, 0xFF}} {
		body, err := requestFrame(request{op: opGetBatch, payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		status, _ := srv.handle(t.Context(), body)
		if status != statusError {
			t.Errorf("malformed batch payload %v: status = %d, want statusError", payload, status)
		}
	}
	if got := srv.RequestStats().GetBatches; got != 0 {
		t.Errorf("malformed batches counted: %d", got)
	}
}
