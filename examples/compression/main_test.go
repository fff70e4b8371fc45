package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the wire bytes of
// plain against CDEC commits, the supports the manifest records, and the
// cache hit of the hot re-read.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `== 6 one-block edits on a (12,10) archive, blocksize 512
plain delta commits:       10752 bytes on the wire (12 shards each)
compressed delta commits:   2688 bytes on the wire (3 shards each)
reduction: 4.0x

== what the manifest records
v1: full codeword
v2: compressed delta, gamma=1, support=[3]
v3: compressed delta, gamma=1, support=[7]
v4: compressed delta, gamma=1, support=[9]
v5: compressed delta, gamma=1, support=[1]
v6: compressed delta, gamma=1, support=[2]
v7: compressed delta, gamma=1, support=[3]

== all 7 versions verified byte-identical with 2 nodes down

== hot re-read of v7: 0 node reads, 1 cache hit (5120 bytes served)
cache: 7 versions, 8192/8388608 bytes, 8 hits, 0 misses
`
