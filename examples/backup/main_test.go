package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the sparsity of every
// night's delta and the reads of every restore, and that formula (3)
// predicts the oldest one's.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `image: 16 files x 256 bytes; (n,k)=(32,16) reversed SEC

night 1: full backup
night 2: files [6 4 0] changed -> delta gamma=3 (orphaned shards: 0)
night 3: files [0 1 3] changed -> delta gamma=3 (orphaned shards: 0)
night 4: files [0 6] changed -> delta gamma=2 (orphaned shards: 0)
night 5: files [5 0] changed -> delta gamma=2 (orphaned shards: 0)
night 6: files [11 0] changed -> delta gamma=2 (orphaned shards: 0)

restore costs (node reads):
  backup 6: 16 reads (0 sparse)  <- latest: just k reads
  backup 5: 20 reads (1 sparse)
  backup 4: 24 reads (2 sparse)
  backup 3: 28 reads (3 sparse)
  backup 2: 34 reads (4 sparse)
  backup 1: 40 reads (5 sparse)

formula (3) predicts 40 reads for the oldest backup - matching the measurement
`
