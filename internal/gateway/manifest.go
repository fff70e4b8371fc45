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
)

// manifestState is where one resident archive's metadata persists and how
// far it has. The nodes hold it: a snapshot, <name>/manifest, and one record
// per publish since, <name>/manifest/<generation>, each on n-k+1 nodes, so
// that it survives what the codewords it describes survive. The fold rule:
// whenever the records outweigh the snapshot they extend (and on Close), a
// publish replaces the snapshot and deletes them - geometric, so a publish
// costs amortised O(1) bytes and a load from the nodes replays at most one
// snapshot's worth. The root at path only caches it: the JSON snapshot that
// Close writes once its fold is on the nodes, and beside it the clean mark
// (cleanMark). Without a path the nodes alone hold it.
type manifestState struct {
	mu   sync.Mutex // orders publishes against Close
	fs   fsys.FS    // the file system path is on
	path string
	// snapBytes sizes the snapshot on the nodes, recordBytes the records
	// that extend it. A create leaves both zero: its first publish folds.
	snapBytes, recordBytes int64
	// mustFold makes the next publish fold whatever the sizes, and a writer
	// fold before it stores anything (admit): a publish failed, leaving
	// the archive unpublished, or the nodes hold no snapshot from this
	// gateway yet (a load from them) or lost copies (a node was replaced).
	mustFold bool
	// folded is the generation of the snapshot on the nodes.
	folded uint64
	// marked says a clean mark may be under the root; cached, that the root
	// holds the archive as it stands under a mark this boot trusts.
	marked, cached bool
}

func markPath(path string) string { return path + ".clean" }

// cleanMark is what the mark beside a root snapshot holds: the boot that
// wrote it, the snapshot's generation and its CRC-32. Close writes it once
// the nodes hold nothing beyond that snapshot, and the first publish after
// an open removes it, so a mark vouches that the snapshot is the whole
// manifest. The root is never synced, and only a power loss, which starts a
// new boot, can roll it back: the mark is good for the boot that wrote it.
func cleanMark(boot string, gen uint64, snap []byte) []byte {
	return fmt.Appendf(nil, "%s %d %08x\n", boot, gen, crc32.ChecksumIEEE(snap))
}

// read returns the snapshot under the root, decoded if it decodes (Name
// then says whose it is), and whether to trust it: only when the mark
// beside it names the running boot and this very snapshot. Otherwise - no
// mark, another boot, a torn or damaged snapshot or mark, or no boot to
// tell - the open asks the nodes.
func (l *manifestState) read() (m core.Manifest, trusted bool) {
	if l.path == "" {
		return m, false
	}
	mark, err := l.fs.ReadFile(markPath(l.path))
	l.marked = err == nil
	raw, err := l.fs.ReadFile(l.path)
	if err != nil || json.Unmarshal(raw, &m) != nil {
		return core.Manifest{}, false
	}
	boot := l.fs.Boot()
	if !l.marked || boot == "" || !bytes.Equal(mark, cleanMark(boot, m.Generation, raw)) {
		return m, false
	}
	l.snapBytes, l.folded, l.cached = int64(len(raw)), m.Generation, true
	return m, true
}

// refold makes the next publish fold whatever the sizes: the nodes lost
// copies (a node was replaced) that a fresh snapshot puts back.
func (l *manifestState) refold() {
	l.mu.Lock()
	l.mustFold = true
	l.mu.Unlock()
}

// pending reports that the archive is unpublished or holds no snapshot of
// this gateway on the nodes: the next writer folds first.
func (l *manifestState) pending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mustFold
}

// publish makes the archive's latest change durable on the nodes and,
// closing, caches it under the root. A mark an open found goes first, as the
// root is about to fall behind. Then the change's record and, when the
// records outweigh the snapshot (closing: when there are any), a fold go to
// n-k+1 nodes each; their error is the publish's, and leaves the archive
// unpublished. Closing, once the nodes hold it all, the root gets the
// snapshot and then its mark; a session that changed nothing since an open
// that trusted the root does nothing.
func (l *manifestState) publish(ctx context.Context, archive *core.Archive, closing bool) error {
	pub, snap, gen, err := l.prepare(archive, closing)
	if err == nil {
		err = archive.ReplicateContext(ctx, pub)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.mustFold = true
		return err
	}
	l.recordBytes += int64(len(pub.Record))
	if pub.Snapshot != nil {
		l.snapBytes, l.recordBytes, l.mustFold, l.folded = int64(len(pub.Snapshot)), 0, false, pub.Last
	}
	if snap == nil || l.path == "" {
		return nil
	}
	if err := writeFile(l.fs, l.path, snap); err != nil {
		return err
	}
	if err := writeFile(l.fs, markPath(l.path), cleanMark(l.fs.Boot(), gen, snap)); err != nil {
		return err
	}
	l.marked, l.cached = true, true
	return nil
}

// prepare takes what the publish owes the nodes and, closing, the snapshot
// the root is to cache and its generation, and removes a mark an open found
// before anything of it is replicated.
func (l *manifestState) prepare(archive *core.Archive, closing bool) (pub core.Publication, snap []byte, gen uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec, ok := archive.NextRecord(); ok {
		pub.Generation, pub.Record = rec.Generation, rec.Frame(archive.Name())
	}
	if closing && l.cached && pub.Record == nil {
		return pub, nil, 0, nil
	}
	l.cached = false
	if l.marked {
		if err := l.fs.Remove(markPath(l.path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return pub, nil, 0, fmt.Errorf("gateway: removing the clean mark: %w", err)
		}
		l.marked = false
	}
	owed := l.recordBytes + int64(len(pub.Record))
	if l.mustFold || owed > l.snapBytes || closing && owed > 0 {
		pub.Snapshot, pub.Last = archive.Snapshot()
		pub.First = l.folded + 1
	}
	if closing {
		if snap, gen = pub.Snapshot, pub.Last; snap == nil {
			snap, gen = archive.Snapshot() // nothing since the fold: the nodes' snapshot
		}
	}
	return pub, snap, gen, nil
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
