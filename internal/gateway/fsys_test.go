package gateway

import (
	"testing"

	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/transport"
)

// TestPublishFsyncs pins what the manifest costs in fsyncs under the root,
// counted on a recording file system: none. A publish, folding or not,
// makes no call under the root at all - the nodes hold the manifest - and
// Close caches it there unsynced, trusted only in the boot that wrote it
// (DESIGN.md section 13).
func TestPublishFsyncs(t *testing.T) {
	rec := fsys.NewRecorder()
	g := newTestGateway(t, Config{Root: "/gw", fs: rec})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", transport.ArchiveSpec{N: 6, K: 3, BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	st := resident(t, g, "a")
	object := make([]byte, 3*16)
	plain, folds := 0, 0
	for v := 1; v <= 40; v++ {
		object[v%len(object)] ^= byte(v) | 1
		before, folded := len(rec.Calls()), foldedAt(st)
		if _, err := g.Commit(ctx, "a", -1, object); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
		if calls := rec.Calls()[before:]; len(calls) != 0 {
			t.Fatalf("commit %d wrote under the root: %v", v, calls)
		}
		if foldedAt(st) == folded {
			plain++
		} else {
			folds++
		}
	}
	if plain == 0 || folds == 0 {
		t.Fatalf("%d non-folding and %d folding publishes; the count wants both kinds", plain, folds)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rec.Syncs(); got != 0 {
		t.Fatalf("%d publishes and a Close made %d fsyncs, want 0", plain+folds, got)
	}
}
