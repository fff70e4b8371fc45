package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newDiskNode(t *testing.T) *DiskNode {
	t.Helper()
	n, err := NewDiskNode("disk-test", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDiskNodePutGetDelete(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "arch/v1-full", Row: 3}
	payload := []byte("hello durable world")
	if err := n.Put(t.Context(), id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("Get = %q, want %q", got, payload)
	}
	// Overwrite.
	if err := n.Put(t.Context(), id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := n.Get(t.Context(), id); !bytes.Equal(got, []byte("v2")) {
		t.Errorf("after overwrite Get = %q", got)
	}
	if n.Len() != 1 {
		t.Errorf("Len = %d, want 1", n.Len())
	}
	if err := n.Delete(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := n.Delete(t.Context(), id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
}

func TestDiskNodeEmptyShardAndZeroBytes(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "o", Row: 0}
	if err := n.Put(t.Context(), id, nil); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Get = %v, want empty", got)
	}
}

func TestDiskNodeStats(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "o", Row: 1}
	if err := n.Put(t.Context(), id, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), ShardID{Object: "absent", Row: 0}); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	want := NodeStats{Reads: 1, Writes: 1, BytesRead: 4, BytesWritten: 4}
	if got := n.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v (failed reads must not count)", got, want)
	}
	n.ResetStats()
	if got := n.Stats(); got != (NodeStats{}) {
		t.Errorf("Stats after reset = %+v", got)
	}
}

func TestDiskNodeFaultInjection(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "o", Row: 0}
	if err := n.Put(t.Context(), id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.SetFailed(true)
	if n.Available(t.Context()) {
		t.Error("failed node reports available")
	}
	if err := n.Put(t.Context(), id, []byte("y")); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Put on failed node = %v", err)
	}
	if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Get on failed node = %v", err)
	}
	if err := n.Delete(t.Context(), id); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Delete on failed node = %v", err)
	}
	n.SetFailed(false)
	if got, err := n.Get(t.Context(), id); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Errorf("data lost across injected failure: %q, %v", got, err)
	}
}

func TestDiskNodeRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	n, err := NewDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []ShardID{
		{Object: "arch/v1-full", Row: 0},
		{Object: "arch/v1-full", Row: 1},
		{Object: "arch/v2-delta", Row: 0},
	}
	for i, id := range ids {
		if err := n.Put(t.Context(), id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh handle over the same directory serves everything.
	n2, err := OpenDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Len() != len(ids) {
		t.Errorf("Len after reopen = %d, want %d", n2.Len(), len(ids))
	}
	for i, id := range ids {
		got, err := n2.Get(t.Context(), id)
		if err != nil {
			t.Fatalf("reopened Get %v: %v", id, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 64)) {
			t.Errorf("shard %v changed across restart", id)
		}
	}
}

func TestOpenDiskNodeRejectsForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDiskNode("a", dir); err == nil {
		t.Error("open of uninitialized directory succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, diskMarkerName), []byte("something-else 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskNode("a", dir); err == nil {
		t.Error("open with foreign marker succeeded")
	}
	// NewDiskNode must refuse a foreign marker too: writing v1 shards into
	// a tree owned by another format would intermix them.
	if _, err := NewDiskNode("a", dir); err == nil {
		t.Error("create over foreign marker succeeded")
	}
}

func TestNewDiskNodeIdempotent(t *testing.T) {
	dir := t.TempDir()
	n, err := NewDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Put(t.Context(), ShardID{Object: "o", Row: 0}, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// NewDiskNode over an existing node dir reattaches; it must not wipe.
	n2, err := NewDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n2.Get(t.Context(), ShardID{Object: "o", Row: 0}); err != nil || string(got) != "keep" {
		t.Errorf("re-created node lost data: %q, %v", got, err)
	}
}

// shardFileOf locates the single on-disk file of a shard for direct damage.
func shardFileOf(t *testing.T, n *DiskNode, id ShardID) string {
	t.Helper()
	_, path := n.shardPath(id)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiskNodeDetectsBitRot(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "o", Row: 2}
	if err := n.Put(t.Context(), id, bytes.Repeat([]byte{0xAB}, 128)); err != nil {
		t.Fatal(err)
	}
	path := shardFileOf(t, n, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit.
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of bit-rotted shard = %v, want ErrCorrupt", err)
	}
	// A corrupt shard is still deletable and replaceable.
	if err := n.Put(t.Context(), id, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Get(t.Context(), id); err != nil || string(got) != "healed" {
		t.Errorf("after heal: %q, %v", got, err)
	}
}

func TestDiskNodeDetectsTruncationAndGrowth(t *testing.T) {
	n := newDiskNode(t)
	id := ShardID{Object: "o", Row: 0}
	if err := n.Put(t.Context(), id, bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	path := shardFileOf(t, n, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutated := range map[string][]byte{
		"truncated payload": raw[:len(raw)-10],
		"truncated header":  raw[:shardHeaderLen-4],
		"grown":             append(append([]byte(nil), raw...), 0xFF),
		"zeroed":            make([]byte, len(raw)),
		"empty":             {},
	} {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Get = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDiskNodeDetectsWrongKey(t *testing.T) {
	// A file holding another shard's (valid!) contents must not be served:
	// the stored key is the authority.
	n := newDiskNode(t)
	a := ShardID{Object: "o", Row: 0}
	b := ShardID{Object: "o", Row: 1}
	if err := n.Put(t.Context(), a, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := n.Put(t.Context(), b, []byte("B")); err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(shardFileOf(t, n, b))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardFileOf(t, n, a), rawB, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), a); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of transplanted shard = %v, want ErrCorrupt", err)
	}
}

func TestDiskNodeRecoveryDiscardsTempFiles(t *testing.T) {
	dir := t.TempDir()
	n, err := NewDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ShardID{Object: "o", Row: 0}
	if err := n.Put(t.Context(), id, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a temp file next to the shard.
	subdir, _ := n.shardPath(id)
	tmp := filepath.Join(subdir, shardTmpPrefix+"12345")
	if err := os.WriteFile(tmp, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenDiskNode("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Error("recovery left the temp file behind")
	}
	if got, err := n2.Get(t.Context(), id); err != nil || string(got) != "committed" {
		t.Errorf("committed shard damaged by recovery: %q, %v", got, err)
	}
	if n2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (temp files are not shards)", n2.Len())
	}
}

func TestDiskNodeWipe(t *testing.T) {
	n := newDiskNode(t)
	for row := 0; row < 5; row++ {
		if err := n.Put(t.Context(), ShardID{Object: "o", Row: row}, []byte{byte(row)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Wipe(); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 0 {
		t.Errorf("Len after wipe = %d", n.Len())
	}
	if _, err := n.Get(t.Context(), ShardID{Object: "o", Row: 0}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after wipe = %v, want ErrNotFound", err)
	}
	// The node keeps working after a wipe (device replacement).
	if err := n.Put(t.Context(), ShardID{Object: "o", Row: 0}, []byte("new life")); err != nil {
		t.Fatal(err)
	}
}

func TestDiskNodeFansOutDirectories(t *testing.T) {
	n := newDiskNode(t)
	const shards = 200
	for row := 0; row < shards; row++ {
		if err := n.Put(t.Context(), ShardID{Object: "fan", Row: row}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	subdirs, err := os.ReadDir(n.shardRoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(subdirs) < 2 {
		t.Errorf("%d shards landed in %d subdirectories, want a fan-out", shards, len(subdirs))
	}
	for _, d := range subdirs {
		if !d.IsDir() || len(d.Name()) != 2 || !strings.ContainsAny(d.Name(), "0123456789abcdef") {
			t.Errorf("unexpected entry %q under shard root", d.Name())
		}
	}
	if n.Len() != shards {
		t.Errorf("Len = %d, want %d", n.Len(), shards)
	}
}

func TestDiskNodeConcurrentAccess(t *testing.T) {
	n := newDiskNode(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var firstErr error
			for i := 0; i < 20; i++ {
				id := ShardID{Object: "conc", Row: i % 4}
				if err := n.Put(context.Background(), id, bytes.Repeat([]byte{byte(g)}, 32)); err != nil && firstErr == nil {
					firstErr = err
				}
				if _, err := n.Get(context.Background(), id); err != nil && !errors.Is(err, ErrNotFound) && firstErr == nil {
					firstErr = err
				}
			}
			done <- firstErr
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if n.Len() != 4 {
		t.Errorf("Len = %d, want 4", n.Len())
	}
}

func TestDiskClusterRestart(t *testing.T) {
	base := t.TempDir()
	c, err := NewDiskCluster(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	id := ShardID{Object: "o", Row: 0}
	if err := c.Put(t.Context(), 2, id, []byte("persists")); err != nil {
		t.Fatal(err)
	}
	// A second cluster over the same base dir sees the shard.
	c2, err := NewDiskCluster(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Get(t.Context(), 2, id)
	if err != nil || string(got) != "persists" {
		t.Errorf("reopened cluster Get = %q, %v", got, err)
	}
	// And it grows on demand like any growable cluster.
	if err := c2.EnsureSize(6); err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(t.Context(), 5, id, []byte("grown")); err != nil {
		t.Fatal(err)
	}
}

func TestShardFileRoundTrip(t *testing.T) {
	id := ShardID{Object: "arch/v9-delta", Row: 17}
	payload := bytes.Repeat([]byte{0x5A}, 333)
	raw := EncodeFrame(id.String(), payload)
	got, err := decodeShardFile(id, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("round trip mismatch")
	}
	if _, err := decodeShardFile(ShardID{Object: "arch/v9-delta", Row: 18}, raw); !errors.Is(err, ErrCorrupt) {
		t.Errorf("decode under wrong ID = %v, want ErrCorrupt", err)
	}
}

// FuzzDiskShardFile throws arbitrary bytes at the shard-file parser: it
// must never panic, and must only return data when the file is a valid
// encoding for the requested shard (in which case a re-encode matches).
func FuzzDiskShardFile(f *testing.F) {
	id := ShardID{Object: "fuzz/v1-full", Row: 5}
	f.Add(EncodeFrame(id.String(), []byte("seed payload")))
	f.Add(EncodeFrame(id.String(), nil))
	f.Add(EncodeFrame(ShardID{Object: "other", Row: 0}.String(), []byte("wrong key")))
	f.Add([]byte{})
	f.Add([]byte("SECS"))
	f.Add(make([]byte, shardHeaderLen))
	f.Fuzz(func(t *testing.T, raw []byte) {
		data, err := decodeShardFile(id, raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeFrame(id.String(), data), raw) {
			t.Fatalf("accepted file is not the canonical encoding of its payload")
		}
	})
}
