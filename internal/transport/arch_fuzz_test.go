package transport

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// FuzzDecodeArchCommit feeds arbitrary payloads to the commit-request
// parser: it must never panic, and everything it accepts must survive an
// encode/decode round trip unchanged.
func FuzzDecodeArchCommit(f *testing.F) {
	seed, err := encodeArchCommit(4, []byte("object"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat(seed))
	noPre, err := encodeArchCommit(-1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat(noPre))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                // truncated precondition
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // forged precondition
	f.Fuzz(func(t *testing.T, payload []byte) {
		expect, object, err := decodeArchCommit(payload)
		if err != nil {
			return
		}
		if expect < -1 || expect >= 1<<31 {
			return // forged u32 outside the encodable range
		}
		back, err := encodeArchCommit(expect, object)
		if err != nil {
			t.Fatalf("decoded commit does not re-encode: %v", err)
		}
		expect2, object2, err := decodeArchCommit(flat(back))
		if err != nil {
			t.Fatalf("re-encoded commit does not decode: %v", err)
		}
		if expect2 != expect || !bytes.Equal(object2, object) {
			t.Fatalf("commit round trip mismatch: (%d, %v) vs (%d, %v)", expect, object, expect2, object2)
		}
	})
}

// FuzzDecodeArchVersion attacks the retrieve-response parser the client
// trusts: forged meta lengths and malformed JSON must error, never panic.
func FuzzDecodeArchVersion(f *testing.F) {
	seed, err := encodeArchVersion(ArchiveVersion{
		Version: 2,
		Data:    []byte("data"),
		Stats:   core.RetrievalStats{NodeReads: 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat(seed))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})        // forged meta length
	f.Add([]byte{0, 0, 0, 2, '{', 'x'})          // malformed meta JSON
	f.Add([]byte{0, 0, 0, 2, '{', '}', 1, 2, 3}) // valid meta, raw tail
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := decodeArchVersion(payload)
		if err != nil {
			return
		}
		back, err := encodeArchVersion(v)
		if err != nil {
			t.Fatalf("decoded version does not re-encode: %v", err)
		}
		again, err := decodeArchVersion(flat(back))
		if err != nil {
			t.Fatalf("re-encoded version does not decode: %v", err)
		}
		if again.Version != v.Version || !bytes.Equal(again.Data, v.Data) {
			t.Fatalf("version round trip mismatch")
		}
	})
}

// FuzzDecodeArchVersions attacks the retrieve-all response parser: forged
// counts, truncated chunks, and trailing bytes must all error cleanly.
func FuzzDecodeArchVersions(f *testing.F) {
	seedParts, err := encodeArchVersions([][]byte{[]byte("v1"), nil}, core.RetrievalStats{NodeReads: 9})
	if err != nil {
		f.Fatal(err)
	}
	seed := flat(seedParts)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}', 0xFF, 0xFF, 0xFF, 0xFF}) // forged count
	f.Add([]byte{0, 0, 0, 2, '{', '}', 0, 0, 0, 1, 0, 0, 0, 9}) // truncated chunk
	f.Add(append(append([]byte{}, seed...), 0xEE))              // trailing byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		versions, stats, err := decodeArchVersions(payload)
		if err != nil {
			return
		}
		back, err := encodeArchVersions(versions, stats)
		if err != nil {
			t.Fatalf("decoded versions do not re-encode: %v", err)
		}
		again, _, err := decodeArchVersions(flat(back))
		if err != nil {
			t.Fatalf("re-encoded versions do not decode: %v", err)
		}
		if len(again) != len(versions) {
			t.Fatalf("round trip count %d, want %d", len(again), len(versions))
		}
		for i := range versions {
			if !bytes.Equal(again[i], versions[i]) {
				t.Fatalf("round trip version %d mismatch", i+1)
			}
		}
	})
}

// FuzzArchServerHandle drives the full dispatch of a gateway-only server
// with arbitrary frames: no input may panic it, and every response must
// decode.
func FuzzArchServerHandle(f *testing.F) {
	commitBody, err := encodeArchCommit(-1, []byte("o"))
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []request{
		{op: opArchCreate, id: store.ShardID{Object: "a"}, payload: []byte(`{"n":12,"k":10,"block_size":4}`)},
		{op: opArchCommit, id: store.ShardID{Object: "a"}, payload: flat(commitBody)},
		{op: opArchGet, id: store.ShardID{Object: "a", Row: 1}},
		{op: opArchGetAll, id: store.ShardID{Object: "a"}},
		{op: opArchLog, id: store.ShardID{Object: "a"}},
		{op: opArchInfo, id: store.ShardID{Object: "a"}},
		{op: opArchCompact, id: store.ShardID{Object: "a", Row: 3}},
		{op: opArchScrub, id: store.ShardID{Object: "a", Row: 1}},
		{op: opArchRepair, id: store.ShardID{Object: "a", Row: 2}},
		{op: opArchCommit}, // no archive name
	} {
		body, err := requestFrame(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{opArchCreate})
	f.Add([]byte{opArchRepair, 0xFF, 0xFF})
	srv := NewServer(nil, WithArchiveBackend(&stubArchiveBackend{}))
	f.Fuzz(func(t *testing.T, body []byte) {
		status, payload, _ := srv.handle(t.Context(), body)
		if _, _, err := decodeResponse(responseFrame(status, payload)); err != nil {
			t.Fatalf("response does not decode: %v", err)
		}
	})
}
