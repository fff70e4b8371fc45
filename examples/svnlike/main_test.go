package main

import (
	"bytes"
	"testing"
)

// TestRun runs the example and asserts all it prints: the log, the files and
// reads of each checkout, and the file read back at r2.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

const want = `log:
  r1  initial import        README (full), main.go (full)
  r2  friendlier greeting   main.go (delta g=1)
  r3  add license           LICENSE (full)

checkout r1:
  README (55 bytes)
  main.go (48 bytes)
  -> 6 node reads

checkout head:
  3 files, 11 node reads (1 sparse)

main.go@r2 retrieved with 5 reads (1 sparse):
package main

func main() {
	println("hello, world")
}
`
