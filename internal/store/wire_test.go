package store

import (
	"testing"
)

// TestWireStatsCountOpsAndBytes pins the client-side wire accounting:
// each successful shard operation counts once with its payload bytes,
// batch shards count individually, failures count nothing, and reset
// zeroes the snapshot.
func TestWireStatsCountOpsAndBytes(t *testing.T) {
	c := NewMemCluster(3)
	ctx := t.Context()
	id := func(row int) ShardID { return ShardID{Object: "o", Row: row} }

	if err := c.Put(ctx, 0, id(0), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, 1, id(1), make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, 0, id(0)); err != nil {
		t.Fatal(err)
	}
	if errs := c.DeleteBatch(ctx, []ShardRef{{Node: 1, ID: id(1)}}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Failed operations move no payload and must not count.
	if _, err := c.Get(ctx, 1, id(1)); err == nil {
		t.Fatal("get of deleted shard succeeded")
	}
	if err := c.Put(ctx, 9, id(2), make([]byte, 7)); err == nil {
		t.Fatal("put to out-of-range node succeeded")
	}

	got := c.WireStats()
	want := NodeStats{Reads: 1, Writes: 2, Deletes: 1, BytesRead: 100, BytesWritten: 150}
	if got != want {
		t.Errorf("WireStats = %+v, want %+v", got, want)
	}

	c.ResetWireStats()
	if got := c.WireStats(); got != (NodeStats{}) {
		t.Errorf("WireStats after reset = %+v, want zero", got)
	}

	// Batch shards count individually, and only the successful ones.
	refs := []ShardRef{{Node: 0, ID: id(0)}, {Node: 2, ID: id(9)}}
	results := c.GetBatch(ctx, refs)
	if results[0].Err != nil || results[1].Err == nil {
		t.Fatalf("GetBatch results = %+v", results)
	}
	got = c.WireStats()
	want = NodeStats{Reads: 1, BytesRead: 100}
	if got != want {
		t.Errorf("WireStats after batch = %+v, want %+v", got, want)
	}

	c.ResetWireStats()
	errs := c.PutBatch(ctx, []ShardRef{{Node: 1, ID: id(3)}, {Node: 2, ID: id(4)}},
		[][]byte{make([]byte, 20), make([]byte, 30)})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got = c.WireStats()
	want = NodeStats{Writes: 2, BytesWritten: 50}
	if got != want {
		t.Errorf("WireStats after put batch = %+v, want %+v", got, want)
	}
}
