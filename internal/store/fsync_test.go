package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/secarchive/sec/internal/fsys"
)

// TestDiskNodePutBatchFsyncs pins what a put batch costs in fsyncs, counted
// on a recording file system: one per shard (its temp file, before the
// rename) plus one per fan-out directory it renamed into, and, the first
// time a directory is written this process lifetime, two more for it (shards/
// and the node root, which hold its entry). The twelve shards below fall into
// twelve fan-out directories.
func TestDiskNodePutBatchFsyncs(t *testing.T) {
	rec := fsys.NewRecorder()
	n, err := NewDiskNodeOn(rec, "disk", "/node")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]ShardID, 12)
	data := make([][]byte, len(ids))
	dirs := map[string]bool{}
	for i := range ids {
		ids[i] = ShardID{Object: "archive/v1-full", Row: i}
		data[i] = []byte(fmt.Sprintf("shard %d", i))
		dir, _ := n.shardPath(ids[i])
		dirs[dir] = true
	}
	if len(dirs) != 12 {
		t.Fatalf("the shards fall into %d fan-out directories, not the 12 this test pins", len(dirs))
	}
	for batch, want := range []int{12 + 12 + 2*12, 12 + 12} {
		before := rec.Calls()
		for i, err := range n.PutBatch(t.Context(), ids, data) {
			if err != nil {
				t.Fatalf("batch %d, shard %d: %v", batch, i, err)
			}
		}
		syncs, fileSyncs, shardSyncs := 0, 0, 0
		for _, c := range rec.Calls()[len(before):] {
			switch c.Op {
			case "sync":
				syncs++
				fileSyncs++
			case "syncdir":
				syncs++
				if dirs[c.Path] {
					shardSyncs++
				}
			}
		}
		if syncs != want || fileSyncs != 12 || shardSyncs != 12 {
			t.Errorf("put batch %d: %d fsyncs (%d of files, %d of fan-out directories), want %d (12, 12)", batch, syncs, fileSyncs, shardSyncs, want)
		}
	}
	for i, id := range ids {
		got, err := n.Get(t.Context(), id)
		if err != nil || string(got) != string(data[i]) {
			t.Fatalf("shard %d reads back %q, %v", i, got, err)
		}
	}
	if files, err := n.ShardFiles(); err != nil || len(files) != len(ids) || filepath.Dir(filepath.Dir(files[0])) != "/node/shards" {
		t.Fatalf("ShardFiles() = %v, %v", files, err)
	}
}
