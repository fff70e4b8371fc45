package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sync"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/store"
)

// manifestState is the root's share of one resident archive's metadata.
// The nodes hold the manifest, and core.Archive.PublishContext keeps it
// there; the root at path only caches it: the snapshot that Close's fold
// put on the nodes, byte for byte, and beside it the clean mark
// (cleanMark). Without a path the nodes alone hold it.
type manifestState struct {
	mu   sync.Mutex // orders publishes against Close
	fs   fsys.FS    // the file system path is on
	path string
	// marked says a clean mark may be under the root; cached, that the root
	// holds the archive as it stands under a mark this boot trusts.
	marked, cached bool
}

// cleanMark is what the mark beside a root snapshot holds: the boot that
// wrote it, the snapshot's CRC-32 and the form of the root, the node
// snapshot of format 2. Close writes it once the nodes hold nothing beyond
// that snapshot, and the first publish after an open removes it, so a mark
// vouches that the snapshot is the whole manifest. The root is never
// synced, and only a power loss, which starts a new boot, can roll it back:
// the mark is good for the boot that wrote it. A build whose marks name
// another root form - none, or "format-2" over a JSON root - never trusts
// this one, and asks the nodes; nor does this build trust its marks.
func cleanMark(boot string, snap []byte) []byte {
	return fmt.Appendf(nil, "%s %08x format-2 root\n", boot, crc32.ChecksumIEEE(snap))
}

// read returns the snapshot under the root when the open may trust it:
// only when the mark beside it names the running boot and this very
// snapshot. Otherwise - no mark, another boot, a torn or damaged snapshot or
// mark, or no boot to tell - it returns nil, and the open asks the nodes. A
// snapshot of another archive than name is store.ErrConflict (a trusted one
// is refused when it is opened).
func (l *manifestState) read(name string) ([]byte, error) {
	if l.path == "" {
		return nil, nil
	}
	mark, err := l.fs.ReadFile(l.path + ".clean")
	l.marked = err == nil
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return nil, nil
	}
	boot := l.fs.Boot()
	if l.cached = l.marked && boot != "" && bytes.Equal(mark, cleanMark(boot, raw)); l.cached {
		return raw, nil
	}
	var head struct {
		Name string `json:"name"`
	}
	if json.Unmarshal(raw, &head) == nil && head.Name != "" && head.Name != name {
		return nil, fmt.Errorf("it names archive %q: %w", head.Name, store.ErrConflict)
	}
	return nil, nil
}

// publish makes the archive's latest change durable on the nodes and,
// closing, caches it under the root. A mark an open found goes first, as the
// root is about to fall behind. Closing, the publish folds, and once the
// nodes hold it all the root gets the snapshot and then its mark; a session
// that changed nothing since an open that trusted the root does nothing.
func (l *manifestState) publish(ctx context.Context, archive *core.Archive, closing bool) error {
	//lint:allow lockheld the root's files change in the order of the publishes they cache
	l.mu.Lock()
	defer l.mu.Unlock()
	if closing && l.cached {
		return nil
	}
	l.cached = false
	if l.marked {
		if err := l.fs.Remove(l.path + ".clean"); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("gateway: removing the clean mark: %w", err)
		}
		l.marked = false
	}
	snap, err := archive.PublishContext(ctx, closing)
	if err != nil || !closing || l.path == "" {
		return err
	}
	if err = writeFile(l.fs, l.path, snap); err == nil {
		err = writeFile(l.fs, l.path+".clean", cleanMark(l.fs.Boot(), snap))
	}
	l.marked, l.cached = err == nil, err == nil
	return err
}

// writeFile atomically replaces the file at path.
func writeFile(f fsys.FS, path string, data []byte) error {
	tmp, err := f.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err == nil {
		defer f.Remove(tmp.Name())
		_, err = tmp.Write(data)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = f.Rename(tmp.Name(), path)
		}
	}
	if err != nil {
		return fmt.Errorf("gateway: caching manifest: %w", err)
	}
	return nil
}
