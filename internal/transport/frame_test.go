package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

// flat is a part list as the one buffer it is written as.
func flat(p parts) []byte { return bytes.Join(p, nil) }

// requestFrame is the body of a request frame as one buffer.
func requestFrame(req request) ([]byte, error) {
	p, err := encodeRequest(req.op, req.id, req.payload)
	return flat(p), err
}

// responseFrame is the body of a single-frame response as one buffer.
func responseFrame(status byte, payload parts) []byte {
	return append([]byte{status}, flat(payload)...)
}

// The reference assemblers: the encoders as they were while every frame
// was built in one buffer (make + append of every payload byte) before it
// was written. TestFramesFromPartsEqualAssembledFrames holds what the
// part-writing encoders put on the wire against them.

func refRequest(op byte, id store.ShardID, payload []byte) []byte {
	body := make([]byte, 0, 1+2+len(id.Object)+4+len(payload))
	body = append(body, op)
	body = binary.BigEndian.AppendUint16(body, uint16(len(id.Object)))
	body = append(body, id.Object...)
	body = binary.BigEndian.AppendUint32(body, uint32(int32(id.Row)))
	return append(body, payload...)
}

func refFrame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// refResponse is one logical response as the frames a server writes for it
// with maxResponseChunk at chunk.
func refResponse(status byte, payload []byte, chunk int) []byte {
	var wire []byte
	for len(payload) > chunk {
		wire = append(wire, refFrame(append([]byte{statusPartial}, payload[:chunk]...))...)
		payload = payload[chunk:]
	}
	return append(wire, refFrame(append([]byte{status}, payload...))...)
}

func refShardIDs(ids []store.ShardID) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		body = binary.BigEndian.AppendUint16(body, uint16(len(id.Object)))
		body = append(body, id.Object...)
		body = binary.BigEndian.AppendUint32(body, uint32(int32(id.Row)))
	}
	return body
}

func refPutBatch(ids []store.ShardID, data [][]byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for i, id := range ids {
		body = binary.BigEndian.AppendUint16(body, uint16(len(id.Object)))
		body = append(body, id.Object...)
		body = binary.BigEndian.AppendUint32(body, uint32(int32(id.Row)))
		body = binary.BigEndian.AppendUint32(body, uint32(len(data[i])))
		body = append(body, data[i]...)
	}
	return body
}

func refBatchResults(results []store.ShardResult) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(results)))
	for _, res := range results {
		body = append(body, statusFor(res.Err))
		if res.Err == nil {
			body = binary.BigEndian.AppendUint32(body, uint32(len(res.Data)))
			body = append(body, res.Data...)
			continue
		}
		msg := encodeWireError(res.Err)
		body = binary.BigEndian.AppendUint32(body, uint32(len(msg)))
		body = append(body, msg...)
	}
	return body
}

func refArchCommit(expect int, object []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(expect+1)), object...)
}

func refArchVersion(t *testing.T, v ArchiveVersion) []byte {
	meta := mustJSON(t, archVersionMeta{Version: v.Version, Stats: v.Stats})
	body := binary.BigEndian.AppendUint32(nil, uint32(len(meta)))
	return append(append(body, meta...), v.Data...)
}

func refArchVersions(t *testing.T, versions [][]byte, stats core.RetrievalStats) []byte {
	meta := mustJSON(t, archVersionMeta{Version: len(versions), Stats: stats})
	body := binary.BigEndian.AppendUint32(nil, uint32(len(meta)))
	body = append(body, meta...)
	body = binary.BigEndian.AppendUint32(body, uint32(len(versions)))
	for _, v := range versions {
		body = binary.BigEndian.AppendUint32(body, uint32(len(v)))
		body = append(body, v...)
	}
	return body
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tappedServer serves node and backend behind a connection wrapper that
// records both directions, the way chaos drills wrap connections: nothing
// on the write path may need the connection to be a *net.TCPConn.
func tappedServer(t *testing.T, node store.Node, backend ArchiveBackend) (addr string, tap func() *wireTap) {
	t.Helper()
	taps := make(chan *wireTap, 1) // the one pooled connection of the one client
	srv := NewServer(node, WithArchiveBackend(backend), WithConnWrapper(func(c net.Conn) net.Conn {
		w := &wireTap{Conn: c}
		taps <- w
		return w
	}))
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	var w *wireTap
	return a.String(), func() *wireTap {
		if w == nil {
			w = <-taps
		}
		return w
	}
}

// cutKinds says where the statusPartial boundaries of a payload written in
// the given parts fall at the given chunk size: inside a payload part, on
// a boundary between parts, inside one of the header parts the encoder
// built (those shorter than 16 bytes).
func cutKinds(p parts, chunk int) (inPayload, onBoundary, inHeader bool) {
	for cut := chunk; cut < p.size(); cut += chunk {
		off := 0
		for _, part := range p {
			switch {
			case cut == off:
				onBoundary = true
			case cut > off && cut < off+len(part) && len(part) < 16:
				inHeader = true
			case cut > off && cut < off+len(part):
				inPayload = true
			}
			off += len(part)
		}
	}
	return inPayload, onBoundary, inHeader
}

// TestFramesFromPartsEqualAssembledFrames checks, for every archive op and
// the three batch ops, that the bytes written from parts are the bytes of
// the frame assembled in one buffer - request and response, length prefix
// included - also when the response is split across statusPartial frames
// with the boundary inside a payload part, on a part boundary and inside
// an entry header.
func TestFramesFromPartsEqualAssembledFrames(t *testing.T) {
	defer func(prev int) { maxResponseChunk = prev }(maxResponseChunk)
	ctx := t.Context()
	spec := ArchiveSpec{Scheme: "reversed-sec", Code: "systematic-cauchy", N: 6, K: 3, BlockSize: 4}
	ids := testIDs("obj", 0, 1, 2, 7)
	data := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100), {}, bytes.Repeat([]byte{3}, 40)}
	gold := goldenBackend{}
	type exchange struct {
		name     string
		call     func(node *RemoteNode, arch *ArchiveClient) error
		req      []byte // the assembled request body
		status   byte
		response func() []byte // the assembled logical response payload
	}
	archID := func(row int) store.ShardID { return store.ShardID{Object: "gold", Row: row} }
	object := []byte("version three")
	exchanges := []exchange{
		{"put-batch", func(n *RemoteNode, _ *ArchiveClient) error { return firstErr(n.PutBatch(ctx, ids[:3], data[:3])) },
			refRequest(opPutBatch, store.ShardID{}, refPutBatch(ids[:3], data[:3])), statusOK,
			func() []byte { return refBatchResults(make([]store.ShardResult, 3)) }},
		// Row 7 was never put: its entry is an error record among the data.
		{"get-batch", func(n *RemoteNode, _ *ArchiveClient) error { n.GetBatch(ctx, ids); return nil },
			refRequest(opGetBatch, store.ShardID{}, refShardIDs(ids)), statusOK, nil},
		{"delete-batch", func(n *RemoteNode, _ *ArchiveClient) error { n.DeleteBatch(ctx, ids[:2]); return nil },
			refRequest(opDeleteBatch, store.ShardID{}, refShardIDs(ids[:2])), statusOK,
			func() []byte { return refBatchResults(make([]store.ShardResult, 2)) }},
		{"arch-create", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Create(ctx, "gold", spec); return err },
			refRequest(opArchCreate, archID(0), mustJSON(t, spec)), statusOK,
			func() []byte { return mustJSON(t, goldenInfo) }},
		{"arch-commit", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Commit(ctx, "gold", 2, object); return err },
			refRequest(opArchCommit, archID(0), refArchCommit(2, object)), statusOK,
			func() []byte { info, _ := gold.Commit(ctx, "gold", 2, object); return mustJSON(t, info) }},
		{"arch-get", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Retrieve(ctx, "gold", 3); return err },
			refRequest(opArchGet, archID(3), nil), statusOK,
			func() []byte { v, _ := gold.Retrieve(ctx, "gold", 3); return refArchVersion(t, v) }},
		{"arch-get-all", func(_ *RemoteNode, a *ArchiveClient) error { _, _, err := a.RetrieveAll(ctx, "gold", 0); return err },
			refRequest(opArchGetAll, archID(0), nil), statusOK,
			func() []byte { vs, st, _ := gold.RetrieveAll(ctx, "gold", 0); return refArchVersions(t, vs, st) }},
		{"arch-log", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Log(ctx, "gold"); return err },
			refRequest(opArchLog, archID(0), nil), statusOK,
			func() []byte { l, _ := gold.Log(ctx, "gold"); return mustJSON(t, l) }},
		{"arch-info", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Info(ctx, "gold"); return err },
			refRequest(opArchInfo, archID(0), nil), statusOK,
			func() []byte { return mustJSON(t, goldenInfo) }},
		{"arch-compact", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Compact(ctx, "gold", 4); return err },
			refRequest(opArchCompact, archID(4), nil), statusOK,
			func() []byte { r, _ := gold.Compact(ctx, "gold", 4); return mustJSON(t, r) }},
		{"arch-scrub", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Scrub(ctx, "gold", true); return err },
			refRequest(opArchScrub, archID(1), nil), statusOK,
			func() []byte { r, _ := gold.Scrub(ctx, "gold", true); return mustJSON(t, r) }},
		{"arch-repair", func(_ *RemoteNode, a *ArchiveClient) error { _, err := a.Repair(ctx, "gold", 5); return err },
			refRequest(opArchRepair, archID(5), nil), statusOK,
			func() []byte { r, _ := gold.Repair(ctx, "gold", 5); return mustJSON(t, r) }},
	}
	if len(exchanges) != len(archOps)+3 {
		t.Fatalf("%d exchanges for %d archive ops and 3 batch ops", len(exchanges), len(archOps))
	}
	// 109 ends the first get-batch frame with the first shard (4 + 5 + 100),
	// 111 cuts the second shard's entry header, 64 cuts inside shards.
	var inPayload, onBoundary, inHeader bool
	for _, chunk := range []int{maxFrame - 1, 64, 109, 111, 7} {
		maxResponseChunk = chunk
		mem := store.NewMemNode("n")
		addr, tap := tappedServer(t, mem, gold)
		node := NewRemoteNode("n", addr, WithTimeout(2*time.Second), WithPoolSize(1))
		arch := &ArchiveClient{n: node}
		t.Cleanup(func() { _ = node.Close() })
		for _, ex := range exchanges {
			if err := ex.call(node, arch); err != nil {
				t.Fatalf("chunk %d, %s: %v", chunk, ex.name, err)
			}
			req, resp := tap().drain()
			if want := refFrame(ex.req); !bytes.Equal(req, want) {
				t.Errorf("chunk %d, %s request:\n got  %x\n want %x", chunk, ex.name, req, want)
			}
			var payload []byte
			if ex.response != nil {
				payload = ex.response()
			} else {
				results := mem.GetBatch(ctx, ids)
				payload = refBatchResults(results)
				a, b, c := cutKinds(encodeBatchResults(results), chunk)
				inPayload, onBoundary, inHeader = inPayload || a, onBoundary || b, inHeader || c
			}
			if want := refResponse(ex.status, payload, chunk); !bytes.Equal(resp, want) {
				t.Errorf("chunk %d, %s response:\n got  %x\n want %x", chunk, ex.name, resp, want)
			}
		}
	}
	if !inPayload || !onBoundary || !inHeader {
		t.Errorf("split boundaries tried: inside a shard %v, on a part boundary %v, inside an entry header %v; want all three",
			inPayload, onBoundary, inHeader)
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestOversizedRequestRefusedBeforeTheWire is the size check where the
// whole frame is summed: a commit that fits the frame limit on its own but
// not with its archive name in the header is the caller's error - typed,
// not attributed to the node, not retried - and the pooled connection it
// never touched serves the next call.
func TestOversizedRequestRefusedBeforeTheWire(t *testing.T) {
	stub := &stubArchiveBackend{}
	var accepted atomic.Int32
	srv := NewServer(nil, WithArchiveBackend(stub), WithConnWrapper(func(c net.Conn) net.Conn {
		accepted.Add(1)
		return c
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewArchiveClient("gw", addr.String(), WithTimeout(5*time.Second), WithPoolSize(1))
	t.Cleanup(func() { _ = client.Close() })
	ctx := t.Context()
	name := strings.Repeat("n", 200)
	if _, err := client.Info(ctx, name); err != nil {
		t.Fatal(err)
	}
	_, err = client.Commit(ctx, name, -1, make([]byte, maxFrame-64))
	if !errors.Is(err, errFrameTooLarge) || errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("commit one frame cannot carry: err = %v, want errFrameTooLarge and not ErrNodeDown", err)
	}
	if _, err := client.Info(ctx, name); err != nil {
		t.Fatal(err)
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("server accepted %d connections, want 1: the refused commit retired or re-dialed the pooled one", got)
	}
	for _, call := range stub.calls {
		if strings.HasPrefix(call, "commit") {
			t.Errorf("backend saw %q", call)
		}
	}
}

// TestBatchResultsOwnDisjointStretchesOfTheFrame pins what a caller may do
// with the shards of one batch result now that they alias the frame they
// arrived in: they do not overlap, each lies inside the payload, and append
// to one reallocates instead of reaching the next.
func TestBatchResultsOwnDisjointStretchesOfTheFrame(t *testing.T) {
	ids := testIDs("o", 0, 1, 2)
	want := [][]byte{bytes.Repeat([]byte{1}, 50), bytes.Repeat([]byte{2}, 70), bytes.Repeat([]byte{3}, 30)}
	payload := refBatchResults([]store.ShardResult{{Data: want[0]}, {Data: want[1]}, {Data: want[2]}})
	results, err := decodeBatchResults(payload, ids, "n", "get")
	if err != nil {
		t.Fatal(err)
	}
	checkInsideDisjoint(t, payload, results)
	for i := range results {
		if cap(results[i].Data) != len(results[i].Data) {
			t.Errorf("shard %d has cap %d over len %d: append would write into the frame", i, cap(results[i].Data), len(results[i].Data))
		}
		_ = append(results[i].Data, bytes.Repeat([]byte{0xEE}, 200)...)
	}
	for i := range results {
		if !bytes.Equal(results[i].Data, want[i]) {
			t.Errorf("shard %d changed when its neighbours were appended to", i)
		}
	}
	// The same over a connection, where the payload is a response frame.
	_, client := startServer(t)
	for i, err := range client.PutBatch(t.Context(), ids, want) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	got := client.GetBatch(t.Context(), ids)
	for i := range got {
		_ = append(got[i].Data, 0xEE)
	}
	for i := range got {
		if got[i].Err != nil || !bytes.Equal(got[i].Data, want[i]) {
			t.Errorf("shard %d over the wire = %v / %v", i, got[i].Data, got[i].Err)
		}
	}
}

// checkInsideDisjoint fails unless every result's data lies inside payload
// and no two of them share a byte.
func checkInsideDisjoint(t *testing.T, payload []byte, results []store.ShardResult) {
	t.Helper()
	end := 0 // results are decoded front to back
	for i, res := range results {
		if res.Err != nil || len(res.Data) == 0 {
			continue
		}
		off := int(uintptr(unsafe.Pointer(unsafe.SliceData(res.Data))) - uintptr(unsafe.Pointer(unsafe.SliceData(payload))))
		if off < 0 || off+len(res.Data) > len(payload) {
			t.Fatalf("result %d does not lie inside the payload it was decoded from", i)
		}
		if off < end {
			t.Fatalf("result %d starts at byte %d, inside the result before it (which ends at %d)", i, off, end)
		}
		end = off + len(res.Data)
	}
}

// TestRequestBufferIsTheServersAfterHandle runs with ScribbleRequests on
// (TestMain): what a put stored must not change when the connection's
// request buffer is overwritten and then reused by a later, shorter request.
func TestRequestBufferIsTheServersAfterHandle(t *testing.T) {
	if !ScribbleRequests {
		t.Fatal("the transport suite is meant to run with ScribbleRequests on")
	}
	mem, client := startServer(t)
	ctx := t.Context()
	ids := testIDs("o", 0, 1)
	data := [][]byte{bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{9}, 200)}
	if err := firstErr(client.PutBatch(ctx, ids, data)); err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, store.ShardID{Object: "p", Row: 0}, []byte("short")); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := mem.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Errorf("shard %d as stored = %x / %v: the node kept a slice of the request", i, got, err)
		}
	}
}

// TestGetBatchAllocationPerByte bounds what a batch read allocates, as a
// count: bytes allocated on both ends of a loopback connection per shard
// byte returned, with every shard released once checked. A node hands out
// the shards it stores without a copy, and a response frame of a few large
// shards - three of 200 KiB, the rows one node holds of a version and its
// two deltas - comes from the frame pool and goes back to it: what is left
// is per-request bookkeeping, 0.002 B/B, and the frame of a read that
// resumed on another P than the last release ran on, which misses the
// per-P cache of the sync.Pool; the bound allows three such misses in
// sixteen reads. A frame above maxPooledFrame - twelve such shards - is a
// make the size of what it carries: 1.01 B/B, bounded at that plus 20 %.
// At the parent commit both batches read 1.07 B/B. Under the race
// detector, which empties pools at random, the bounds are not checked.
func TestGetBatchAllocationPerByte(t *testing.T) {
	for _, tc := range []struct {
		shards int
		bound  float64
	}{
		{3, 0.25},
		{12, 1.21},
	} {
		t.Run(fmt.Sprintf("%dx200KiB", tc.shards), func(t *testing.T) {
			_, client := startServer(t)
			ctx := t.Context()
			ids := testIDs("o", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)[:tc.shards]
			data := make([][]byte, len(ids))
			for i := range data {
				data[i] = bytes.Repeat([]byte{byte(i + 1)}, 200<<10)
			}
			if err := firstErr(client.PutBatch(ctx, ids, data)); err != nil {
				t.Fatal(err)
			}
			read := func() {
				for i, res := range client.GetBatch(ctx, ids) {
					if res.Err != nil || !bytes.Equal(res.Data, data[i]) {
						t.Fatalf("shard %d: wrong bytes or error %v", i, res.Err)
					}
					if res.Release != nil {
						res.Release()
					}
				}
			}
			read() // the connection is dialled, the pool holds a frame
			const reads = 16
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reads; i++ {
				read()
			}
			runtime.ReadMemStats(&after)
			perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(reads*len(ids)*200<<10)
			t.Logf("%.4f bytes allocated per shard byte returned", perByte)
			if perByte > tc.bound && !testutil.RaceEnabled {
				t.Errorf("a %d x 200 KiB batch read allocates %.4f B/B, want at most %.2f", tc.shards, perByte, tc.bound)
			}
		})
	}
}
