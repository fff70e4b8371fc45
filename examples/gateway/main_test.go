package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the example and asserts all it prints: the versions the two
// writers committed, the reader's bytes, the shared cache's hit for a fresh
// client, the second archive and the gateway's totals. How often the
// writers collide depends on scheduling, so the two conflict counts are
// checked against each other: what the writers retried is what the gateway
// rejected.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), &out); err != nil {
		t.Fatal(err)
	}
	retried := regexp.MustCompile(`(\d+) \+ (\d+) optimistic conflicts retried`)
	rejected := regexp.MustCompile(`(\d+) conflicts rejected typed`)
	got := out.String()
	r, j := retried.FindStringSubmatch(got), rejected.FindStringSubmatch(got)
	if r == nil || j == nil {
		t.Fatalf("printed no conflict counts:\n%s", got)
	}
	if a, b, c := atoi(t, r[1]), atoi(t, r[2]), atoi(t, j[1]); a+b != c {
		t.Errorf("the writers retried %d + %d conflicts, the gateway rejected %d", a, b, c)
	}
	got = retried.ReplaceAllString(got, "A + B optimistic conflicts retried")
	if got = rejected.ReplaceAllString(got, "C conflicts rejected typed"); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const want = `gateway serving archives over TCP

two writers raced to 5 versions: A + B optimistic conflicts retried
reader verified all 5 versions byte-identical over TCP

fresh client read v5: 0 node reads, 1 cache hits (shared cache, warmed by other clients)
archive "logs" independent on the same gateway: 1 version(s), 6 live nodes

gateway totals: 6 commits, 7 retrieves, C conflicts rejected typed
`
