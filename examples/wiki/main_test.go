package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: every revision's edit
// and sparsity, the reads of the whole history against the non-differential
// baseline, and the bytes between two revisions.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `article: 3072 bytes in 6 blocks of 512

rev 1: initial import (stored in full)
rev 2: edited bytes [1054,1228) -> delta gamma=1, 12 shard writes
rev 3: edited bytes [2424,2663) -> delta gamma=2, 12 shard writes
rev 4: edited bytes [2251,2411) -> delta gamma=1, 12 shard writes
rev 5: edited bytes [1014,1185) -> delta gamma=2, 12 shard writes
rev 6: edited bytes [181,346) -> delta gamma=1, 12 shard writes
rev 7: edited bytes [1127,1319) -> delta gamma=1, 12 shard writes
rev 8: edited bytes [451,700) -> delta gamma=2, 12 shard writes

reading back the whole history:
  8 revisions reconstructed with 26 node reads (7 sparse, 1 full objects)
  non-differential baseline would need 48 reads
  SEC saves 46% of the I/O

rev 3 -> rev 4 changed 158 bytes (localized edit)
`
