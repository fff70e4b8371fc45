package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: GF(2^8)'s refusal of
// (200,100), the sparse reads of each GF(2^16) delta, and the chain read
// that formula (3) predicts.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `GF(2^8) with (n,k)=(200,100): erasure: building non-systematic-cauchy(200,100): matrix: Cauchy needs n+k <= 256 distinct field points, got n=200 k=100
GF(2^16) archive created: 200 shards per object, any 100 decode

v2: delta gamma=1 -> sparse read needs 2 of 200 shards
v3: delta gamma=2 -> sparse read needs 4 of 200 shards
v4: delta gamma=1 -> sparse read needs 2 of 200 shards

reading all 4 versions' chain: 108 node reads (3 sparse reads)
non-differential baseline: 400 reads -> SEC saves 73%
formula (3) predicted 108 reads - matching the measurement
`
