package transport

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/store"
)

// FuzzDecodeRequest feeds arbitrary bodies to the request decoder: it must
// never panic, and everything it accepts must re-encode to an equivalent
// request. The decoder reads every op alike.
func FuzzDecodeRequest(f *testing.F) {
	seed, err := requestFrame(request{op: opGetBatch, id: store.ShardID{Object: "arch/v1", Row: 3}, payload: []byte{1, 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{opPing})
	f.Add([]byte{opPing, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		back, err := requestFrame(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		again, err := decodeRequest(back)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if again.op != req.op || again.id != req.id || !bytes.Equal(again.payload, req.payload) {
			t.Fatalf("request round trip mismatch: %+v vs %+v", req, again)
		}
	})
}

// FuzzServerHandle drives the full server dispatch with arbitrary frames:
// no input may panic the node server, and every response must decode.
func FuzzServerHandle(f *testing.F) {
	// Ops 1 and 2, the retired single-shard put and get, answer "unknown op".
	retiredPut, err := requestFrame(request{op: 1, id: store.ShardID{Object: "o", Row: 0}, payload: []byte{9}})
	if err != nil {
		f.Fatal(err)
	}
	retiredGet, err := requestFrame(request{op: 2, id: store.ShardID{Object: "o", Row: 0}})
	if err != nil {
		f.Fatal(err)
	}
	getBatchBody, err := encodeGetBatch([]store.ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}})
	if err != nil {
		f.Fatal(err)
	}
	getBatch, err := requestFrame(request{op: opGetBatch, payload: getBatchBody})
	if err != nil {
		f.Fatal(err)
	}
	putBatchBody, err := encodePutBatch([]store.ShardID{{Object: "o", Row: 2}}, [][]byte{{5}})
	if err != nil {
		f.Fatal(err)
	}
	putBatch, err := requestFrame(request{op: opPutBatch, payload: flat(putBatchBody)})
	if err != nil {
		f.Fatal(err)
	}
	deleteBatchBody, err := encodeDeleteBatch([]store.ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 3}})
	if err != nil {
		f.Fatal(err)
	}
	deleteBatch, err := requestFrame(request{op: opDeleteBatch, payload: deleteBatchBody})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(retiredPut)
	f.Add(retiredGet)
	f.Add(getBatch)
	f.Add(putBatch)
	f.Add(deleteBatch)
	f.Add([]byte{0})
	f.Add([]byte{opResetStats, 0, 0, 0, 0, 0, 0})
	srv := NewServer(store.NewMemNode("fuzz"))
	f.Fuzz(func(t *testing.T, body []byte) {
		status, payload, _ := srv.handle(t.Context(), body)
		if _, _, err := decodeResponse(responseFrame(status, payload)); err != nil {
			t.Fatalf("response does not decode: %v", err)
		}
	})
}

// FuzzDecodeGetBatch feeds arbitrary payloads to the get-batch request
// parser: it must never panic, and everything it accepts must survive an
// encode/decode round trip unchanged.
func FuzzDecodeGetBatch(f *testing.F) {
	seed, err := encodeGetBatch([]store.ShardID{{Object: "arch/v1", Row: 3}, {Object: "", Row: -1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})         // forged count
	f.Add([]byte{0, 0, 0, 2, 0, 1, 'a', 0, 0, 0}) // truncated second entry
	f.Fuzz(func(t *testing.T, payload []byte) {
		ids, err := decodeGetBatch(payload)
		if err != nil {
			return
		}
		back, err := encodeGetBatch(ids)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := decodeGetBatch(back)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(ids) {
			t.Fatalf("round trip count %d, want %d", len(again), len(ids))
		}
		for i := range ids {
			if again[i] != ids[i] {
				t.Fatalf("round trip id %d: %+v vs %+v", i, ids[i], again[i])
			}
		}
	})
}

// FuzzDecodePutBatch does the same for the put-batch request parser, whose
// entries interleave shard IDs with length-prefixed payloads.
func FuzzDecodePutBatch(f *testing.F) {
	seed, err := encodePutBatch(
		[]store.ShardID{{Object: "o", Row: 0}, {Object: "p", Row: 9}},
		[][]byte{{1, 2, 3}, nil},
	)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat(seed))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // forged data length
	f.Fuzz(func(t *testing.T, payload []byte) {
		ids, data, err := decodePutBatch(payload)
		if err != nil {
			return
		}
		if len(ids) != len(data) {
			t.Fatalf("accepted mismatched batch: %d ids, %d payloads", len(ids), len(data))
		}
		back, err := encodePutBatch(ids, data)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		ids2, data2, err := decodePutBatch(flat(back))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		for i := range ids {
			if ids2[i] != ids[i] || !bytes.Equal(data2[i], data[i]) {
				t.Fatalf("round trip entry %d mismatch", i)
			}
		}
	})
}

// FuzzDecodeBatchResults attacks the response parser the client trusts:
// malformed counts, truncated per-shard frames, and status bytes outside
// the known set must error or produce len(ids) well-formed results, never
// panic - and every shard it hands out lies inside the payload it was given,
// without overlapping another.
func FuzzDecodeBatchResults(f *testing.F) {
	ids := []store.ShardID{{Object: "o", Row: 0}, {Object: "o", Row: 1}}
	seed := encodeBatchResults([]store.ShardResult{
		{Data: []byte{1, 2}},
		{Err: store.ErrNotFound},
	})
	f.Add(flat(seed))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0xEE, 0, 0, 0, 0, 7, 0, 0, 0, 0}) // unknown status byte
	f.Add([]byte{0, 0, 0, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF})       // forged chunk length
	f.Fuzz(func(t *testing.T, payload []byte) {
		results, err := decodeBatchResults(payload, ids, "test-node", "get")
		if err != nil {
			return
		}
		if len(results) != len(ids) {
			t.Fatalf("accepted %d results for %d ids", len(results), len(ids))
		}
		for i, res := range results {
			if res.Err != nil && res.Data != nil {
				t.Fatalf("result %d carries both data and error", i)
			}
		}
		checkInsideDisjoint(t, payload, results)
	})
}
