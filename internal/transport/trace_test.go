package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

// TestTraceIDRidesInBatchHeader: an untraced batch request is the bytes it
// always was; a traced one differs only in the header's object field, which
// carries the id and which a node server does not otherwise read, so a
// server of any age stores the batch. A current one records it under the
// id, and records nothing for untraced batches.
func TestTraceIDRidesInBatchHeader(t *testing.T) {
	const trace = 0x0102030405060708
	ids := testIDs("o", 0, 1)
	data := [][]byte{{1}, {2}}
	body, err := encodePutBatch(ids, data)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := encodeRequest(opPutBatch, store.ShardID{}, body...)
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := encodeTracedRequest(t.Context(), opPutBatch, store.ShardID{}, body...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(untraced, nil), bytes.Join(plain, nil)) {
		t.Errorf("untraced put batch % x, want % x", bytes.Join(untraced, nil), bytes.Join(plain, nil))
	}
	traced, err := encodeTracedRequest(obs.WithTrace(t.Context(), trace), opPutBatch, store.ShardID{}, body...)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{opPutBatch, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}, bytes.Join(body, nil)...)
	if got := bytes.Join(traced, nil); !bytes.Equal(got, want) {
		t.Errorf("traced put batch % x, want % x", got, want)
	}

	mem := store.NewMemNode("traced")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("remote", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	for _, err := range client.PutBatch(t.Context(), ids, data) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if spans := srv.Spans(0); len(spans) != 0 {
		t.Errorf("untraced batch recorded %+v", spans)
	}
	for _, res := range client.GetBatch(obs.WithTrace(t.Context(), trace), ids) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	spans := srv.Spans(trace)
	if len(spans) != 1 || spans[0].Name != "serve-get" || spans[0].Shards != 2 || spans[0].Trace != trace {
		t.Errorf("traced get batch recorded %+v, want one serve-get of 2 shards", spans)
	}
}

// TestTracedFrameWrapsOnlyArchiveOps: op 19 carries an eight-byte trace id
// and an archive op; a frame that wraps anything else, or whose id field is
// not eight non-zero bytes, is refused as malformed, and reaches no backend.
func TestTracedFrameWrapsOnlyArchiveOps(t *testing.T) {
	srv := NewServer(store.NewMemNode("n"), WithArchiveBackend(goldenBackend{}))
	id := traceField(7)
	inner := func(op byte) []byte {
		body, err := encodeRequest(op, store.ShardID{Object: "gold"})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(body, nil)
	}
	for name, frame := range map[string][]byte{
		"a node batch":      bytes.Join(mustEncode(t, opTraced, id, inner(opGetBatch)), nil),
		"a traced frame":    bytes.Join(mustEncode(t, opTraced, id, bytes.Join(mustEncode(t, opTraced, id, inner(opArchLog)), nil)), nil),
		"a zero id":         bytes.Join(mustEncode(t, opTraced, traceField(0), inner(opArchLog)), nil),
		"a short id field":  bytes.Join(mustEncode(t, opTraced, "1234", inner(opArchLog)), nil),
		"a truncated inner": bytes.Join(mustEncode(t, opTraced, id, []byte{opArchLog, 0}), nil),
	} {
		if status, payload, _ := srv.handle(t.Context(), frame); status != statusError {
			t.Errorf("op 19 wrapping %s: status %d (%s), want statusError", name, status, bytes.Join(payload, nil))
		}
	}
	if status, payload, _ := srv.handle(t.Context(), bytes.Join(mustEncode(t, opTraced, id, inner(opArchLog)), nil)); status != statusOK {
		t.Errorf("a traced log: status %d (%s), want statusOK", status, bytes.Join(payload, nil))
	}
}

func mustEncode(t *testing.T, op byte, field string, payload []byte) parts {
	t.Helper()
	body, err := encodeRequest(op, store.ShardID{Object: field}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
