package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the paper's Section
// III-D chain (gammas 3, 8, 3, 6 at (20,10)): what each commit stored, the
// Fig. 9 reads of every version against the non-differential baseline, and
// the whole-archive saving.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `committing 5 versions (gammas 3, 8, 3, 6)...
  v1 stored as full version (20 shard writes)
  v2 stored as delta with gamma=3 (20 shard writes)
  v3 stored as delta with gamma=8 (20 shard writes)
  v4 stored as delta with gamma=3 (20 shard writes)
  v5 stored as delta with gamma=6 (20 shard writes)

reads to retrieve each version (paper Fig. 9):
  l    SEC    non-differential
  1    10     10   (10240 bytes, 0 sparse reads)
  2    16     10   (10240 bytes, 1 sparse reads)
  3    26     10   (10240 bytes, 1 sparse reads)
  4    32     10   (10240 bytes, 2 sparse reads)
  5    42     10   (10240 bytes, 2 sparse reads)

whole archive: SEC 42 reads vs non-differential 50 reads (16% saving)
`
