package fsys

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// writeFile creates name on f with contents, syncing the file when sync is
// set.
func writeFile(t *testing.T, f FS, name, contents string, sync bool) {
	t.Helper()
	file, err := f.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte(contents)); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := file.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
}

// readString reads name, "" with ok false when it does not exist.
func readString(t *testing.T, f FS, name string) (string, bool) {
	t.Helper()
	raw, err := f.ReadFile(name)
	if errors.Is(err, fs.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), true
}

// TestRecorderDropsWhatWasNotSynced is the page-cache model: after a crash a
// file holds what its last Sync saw, and a name exists only if the directory
// holding it was synced since it was created, renamed or removed.
func TestRecorderDropsWhatWasNotSynced(t *testing.T) {
	r := NewRecorder()
	if err := r.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/", "/d"} {
		if err := r.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, r, "/d/synced", "durable", true)
	writeFile(t, r, "/d/unsynced", "lost", false)
	writeFile(t, r, "/d/old", "old", true)
	if err := r.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	// Changes after the directory sync: contents past the file's sync, a
	// rename over a durable name, a remove, a file in a directory whose own
	// entry was never synced.
	f, err := r.OpenFile("/d/synced", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" and more")); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r, "/d/new", "new", true)
	if err := r.Rename("/d/new", "/d/old"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("/d/unsynced"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r, "/d/sub/file", "in an unsynced directory", true)
	if got, _ := readString(t, r, "/d/synced"); got != "durable and more" {
		t.Fatalf("live contents %q before the crash", got)
	}

	r.Crash()
	if _, err := r.ReadFile("/d/synced"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("a read after the crash: err = %v, want ErrCrashed", err)
	}
	r.Restart()
	for name, want := range map[string]string{"/d/synced": "durable", "/d/unsynced": "", "/d/old": "old"} {
		if got, ok := readString(t, r, name); !ok || got != want {
			t.Errorf("%s after the crash: %q (exists %v), want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"/d/new", "/d/sub/file"} {
		if _, err := r.Stat(name); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived the crash: %v", name, err)
		}
	}
}

// TestRecorderLogsAndCrashesAtACall: every call that changes the tree is
// logged in order, fsyncs are counted, and a crash armed at a call stops the
// tree just before it.
func TestRecorderLogsAndCrashesAtACall(t *testing.T) {
	run := func(r *Recorder) error {
		if err := r.MkdirAll("/a", 0o755); err != nil {
			return err
		}
		tmp, err := r.CreateTemp("/a", ".tmp-*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write([]byte("x")); err != nil {
			return err
		}
		if err := tmp.Sync(); err != nil {
			return err
		}
		if err := r.Rename(tmp.Name(), "/a/f"); err != nil {
			return err
		}
		if err := r.SyncDir("/a"); err != nil {
			return err
		}
		return r.RemoveAll("/a")
	}
	r := NewRecorder()
	if err := run(r); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, c := range r.Calls() {
		ops = append(ops, c.Op)
	}
	want := []string{"mkdir", "create", "write", "sync", "rename", "syncdir", "removeall"}
	if !slices.Equal(ops, want) {
		t.Fatalf("logged %v, want %v", ops, want)
	}
	if r.Syncs() != 2 {
		t.Fatalf("Syncs() = %d, want 2", r.Syncs())
	}
	for at := 1; at <= len(want); at++ {
		r := NewRecorder()
		r.StopAt(at)
		if err := run(r); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at call %d: err = %v", at, err)
		}
		if got := len(r.Calls()); got != at-1 {
			t.Fatalf("crash at call %d logged %d calls", at, got)
		}
		r.Crash()
		r.Restart()
		// /a itself was never synced into the root, so nothing survives.
		if _, err := r.Stat("/a"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("crash at call %d: /a survived: %v", at, err)
		}
	}
}

// TestRecorderStopsAtACall: a stop fails the armed call and every later
// one, as a crash does, but leaves the tree as the process left it, in the
// same boot, for Clone; a Crash afterwards drops what was not synced.
func TestRecorderStopsAtACall(t *testing.T) {
	r := NewRecorder()
	boot := r.Boot()
	r.StopAt(3)
	writeFile(t, r, "/f", "x", false) // create, write
	if err := r.SyncDir("/"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("the armed call: err = %v, want ErrCrashed", err)
	}
	if _, err := r.ReadFile("/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("a read after the stop: err = %v, want ErrCrashed", err)
	}
	if got := len(r.Calls()); got != 2 {
		t.Fatalf("the stop logged %d calls, want 2", got)
	}
	live := r.Clone()
	live.Restart()
	if got, _ := readString(t, live, "/f"); got != "x" || live.Boot() != boot {
		t.Errorf("the stopped tree holds %q at /f in boot %q, want %q in %q", got, live.Boot(), "x", boot)
	}
	r.Crash()
	r.Restart()
	if _, ok := readString(t, r, "/f"); ok || r.Boot() == boot {
		t.Errorf("a crash after the stop kept /f or boot %q", boot)
	}
}

// TestRecorderRefusesWhatTheHostWould: missing parents and files, an
// existing name under O_EXCL, a directory where a file is wanted.
func TestRecorderRefusesWhatTheHostWould(t *testing.T) {
	r := NewRecorder()
	if err := r.MkdirAll("/d/e", 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r, "/d/f", "x", false)
	for name, err := range map[string]error{
		"open missing":      second(r.OpenFile("/d/missing", os.O_WRONLY, 0)),
		"open no parent":    second(r.OpenFile("/x/y", os.O_WRONLY|os.O_CREATE, 0)),
		"open read-only":    second(r.OpenFile("/d/f", os.O_RDONLY, 0)),
		"open exclusive":    second(r.OpenFile("/d/f", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0)),
		"open a directory":  second(r.OpenFile("/d/e", os.O_WRONLY, 0)),
		"read a directory":  second(r.ReadFile("/d")),
		"read missing":      second(r.ReadFile("/d/missing")),
		"readdir a file":    second(r.ReadDir("/d/f")),
		"mkdir over a file": r.MkdirAll("/d/f/g", 0o755),
		"rename missing":    r.Rename("/d/missing", "/d/g"),
		"rename no parent":  r.Rename("/d/f", "/x/g"),
		"remove missing":    r.Remove("/d/missing"),
		"remove non-empty":  r.Remove("/d"),
		"syncdir a file":    r.SyncDir("/d/f"),
		"stat missing":      second(r.Stat("/d/missing")),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if err := r.RemoveAll("/nothing/here"); err != nil {
		t.Errorf("RemoveAll of a missing path: %v", err)
	}
	info, err := r.Stat("/d/e")
	if err != nil || !info.IsDir() || info.Name() != "e" || !info.Mode().IsDir() || info.Sys() != nil {
		t.Fatalf("Stat(/d/e) = %+v, %v", info, err)
	}
	entries, err := r.ReadDir("/d")
	if err != nil || len(entries) != 2 || entries[0].Name() != "e" || entries[1].Name() != "f" || entries[1].Type() != 0 {
		t.Fatalf("ReadDir(/d) = %v, %v", entries, err)
	}
	if fi, err := entries[1].Info(); err != nil || fi.Size() != 1 || fi.Mode() != 0o644 || fi.ModTime().IsZero() {
		t.Fatalf("Info of /d/f = %+v, %v", fi, err)
	}
	r.Crash()
	for name, err := range map[string]error{
		"open":      second(r.OpenFile("/d/f", os.O_WRONLY, 0)),
		"create":    second(r.CreateTemp("/d", "t")),
		"readdir":   second(r.ReadDir("/")),
		"stat":      second(r.Stat("/")),
		"mkdir":     r.MkdirAll("/z", 0o755),
		"rename":    r.Rename("/d/f", "/d/g"),
		"remove":    r.Remove("/d/f"),
		"removeall": r.RemoveAll("/d"),
		"syncdir":   r.SyncDir("/"),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after a crash: %v, want ErrCrashed", name, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestRecorderBootAndClone: a recorder's boot lasts until a crash starts a
// new one, and a clone is the machine as it stands - live and durable state
// alike, in the same boot - which crashes apart from the original. The
// host's boot id is named on Linux.
func TestRecorderBootAndClone(t *testing.T) {
	r := NewRecorder()
	boot := r.Boot()
	writeFile(t, r, "/synced", "s", true)
	if err := r.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r, "/synced", "s2", false)
	writeFile(t, r, "/cached", "c", false)
	c := r.Clone()
	if c.Boot() != boot {
		t.Fatalf("clone boot %q, the original's %q", c.Boot(), boot)
	}
	if got, _ := readString(t, c, "/cached"); got != "c" {
		t.Fatalf("clone holds %q at /cached, want the live %q", got, "c")
	}
	c.Crash()
	c.Restart()
	if c.Boot() == boot {
		t.Errorf("a crash kept boot %q", boot)
	}
	if got, ok := readString(t, c, "/synced"); got != "s" {
		t.Errorf("crashed clone holds %q (%v) at /synced, want the synced %q", got, ok, "s")
	}
	if _, ok := readString(t, c, "/cached"); ok {
		t.Error("crashed clone kept a name its directory never synced")
	}
	if got, _ := readString(t, r, "/synced"); got != "s2" || r.Boot() != boot {
		t.Errorf("the clone's crash reached the original: /synced %q, boot %q", got, r.Boot())
	}
	if _, err := r.ReadFile("/synced/below"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("reading below a file: %v, want ErrNotExist", err)
	}
	if boot := (OS{}).Boot(); runtime.GOOS == "linux" && boot == "" {
		t.Error("no boot id on Linux")
	}
}

// TestOSAndRecorderWalkAlike runs one tree on the host and on a recorder:
// WalkFiles visits the same files in the same order, and a missing root
// holds none.
func TestOSAndRecorderWalkAlike(t *testing.T) {
	host := t.TempDir()
	trees := []struct {
		f    FS
		root string
	}{{OS{}, host}, {NewRecorder(), "/root"}}
	var walks [][]string
	for _, tree := range trees {
		f, root := tree.f, tree.root
		if err := f.MkdirAll(filepath.Join(root, "b", "c"), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, f, filepath.Join(root, "b", "c", "z"), "1", true)
		writeFile(t, f, filepath.Join(root, "a"), "2", false)
		tmp, err := f.CreateTemp(filepath.Join(root, "b"), "t-*")
		if err != nil {
			t.Fatal(err)
		}
		if err := tmp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Rename(tmp.Name(), filepath.Join(root, "b", "y")); err != nil {
			t.Fatal(err)
		}
		if err := f.SyncDir(filepath.Join(root, "b")); err != nil {
			t.Fatal(err)
		}
		if info, err := f.Stat(filepath.Join(root, "a")); err != nil || info.Size() != 1 {
			t.Fatalf("Stat(a): %+v, %v", info, err)
		}
		var walk []string
		err = WalkFiles(f, root, func(path, name string) error {
			rel, err := filepath.Rel(root, path)
			walk = append(walk, rel+"="+name)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		walks = append(walks, walk)
		stop := errors.New("stop")
		if err := WalkFiles(f, root, func(string, string) error { return stop }); err != stop {
			t.Fatalf("a visit's error: WalkFiles returned %v", err)
		}
		if err := WalkFiles(f, filepath.Join(root, "missing"), func(string, string) error { return stop }); err != nil {
			t.Fatalf("a missing root: %v", err)
		}
		if err := WalkFiles(f, filepath.Join(root, "a"), nil); err == nil {
			t.Fatal("walking a file succeeded")
		}
		if err := f.Remove(filepath.Join(root, "a")); err != nil {
			t.Fatal(err)
		}
		if err := f.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadFile(filepath.Join(root, "b", "y")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("read after RemoveAll: %v", err)
		}
		if _, err := f.OpenFile(filepath.Join(root, "gone"), os.O_WRONLY, 0); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("open of a missing file: %v", err)
		}
		if _, err := f.CreateTemp(filepath.Join(root, "gone"), "t-*"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("temp file in a missing directory: %v", err)
		}
		if err := f.SyncDir(filepath.Join(root, "gone")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("sync of a missing directory: %v", err)
		}
	}
	want := []string{"a=a", "b/c/z=z", "b/y=y"}
	for i, walk := range walks {
		if !slices.Equal(walk, want) {
			t.Errorf("tree %d walked %v, want %v", i, walk, want)
		}
	}
}
