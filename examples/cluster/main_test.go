package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the TCP cluster's
// shard writes and reads, the degraded read's reads with n-k nodes down, the
// typed failure past that, and the recovery.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `6 storage nodes serving over TCP
committed v1 over TCP: 6 shard writes
committed v2 over TCP: 6 shard writes
healthy read of v2: 5 node reads (1 sparse)

crashing nodes 0, 2, 4...
degraded read of v2: 5 node reads (still 1 sparse: any 2 shards decode the 1-sparse delta)

crashing node 1 as well (only 2 survivors)...
retrieval now fails as expected: core: not enough live shards: 2 of 3 shards of clustered/v1-full

healing all nodes...
retrieval works again
`
