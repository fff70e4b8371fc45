package gateway

import (
	"path/filepath"
	"testing"

	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/transport"
)

// TestPublishFsyncs pins what a publish costs in fsyncs under the root,
// counted on a recording file system: none, whether it appends one record
// to the log or folds the log into the snapshot. The manifest log is not
// durable yet (DESIGN.md section 13); this is the count a change that syncs
// it moves. A non-folding publish makes one write, the record's append.
func TestPublishFsyncs(t *testing.T) {
	rec := fsys.NewRecorder()
	g := newTestGateway(t, Config{Root: "/gw", fs: rec})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", transport.ArchiveSpec{N: 6, K: 3, BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	logFile := filepath.Join("/gw", "a.json.log")
	object := make([]byte, 3*16)
	appends, folds := 0, 0
	for v := 1; v <= 40; v++ {
		object[v%len(object)] ^= byte(v) | 1
		before := len(rec.Calls())
		if _, err := g.Commit(ctx, "a", -1, object); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
		calls := rec.Calls()[before:]
		if _, err := rec.Stat(logFile); err == nil {
			appends++
			writes := 0
			for _, c := range calls {
				if c.Op == "write" {
					writes++
				}
			}
			if writes != 1 {
				t.Fatalf("commit %d appended a record in %d writes: %v", v, writes, calls)
			}
		} else {
			folds++
		}
	}
	if appends == 0 || folds == 0 {
		t.Fatalf("%d appending and %d folding publishes; the count wants both kinds", appends, folds)
	}
	if got := rec.Syncs(); got != 0 {
		t.Fatalf("%d publishes made %d fsyncs, want 0", appends+folds, got)
	}
}
