package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the commits to disk-
// backed nodes, the failure with every node down, the shards each restarted
// node holds, and the scrub that heals one flipped bit.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `6 disk-backed storage nodes serving over TCP
committed v1: 6 shard writes, all fsynced to disk
committed v2: 6 shard writes, all fsynced to disk
committed v3: 6 shard writes, all fsynced to disk

crashing all six nodes...
retrieval now fails as expected: core: not enough live shards: 0 of 3 shards of durable/v1-full

restarting all six nodes over the same directories...
node 0: 3 shards back online
node 1: 3 shards back online
node 2: 3 shards back online
node 3: 3 shards back online
node 4: 3 shards back online
node 5: 3 shards back online
all 3 versions retrieved intact after the restart

flipping one bit in a shard file on node 4's disk...
scrub: 1 corrupt shard detected, 1 repaired
second scrub clean: the archive healed itself
`
