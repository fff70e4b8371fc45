package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/fsys"
)

// manifestLog is where one resident archive's metadata persists and how
// far it has. The JSON manifest at path is a snapshot; path + ".log" holds
// one framed core.ManifestRecord per publish since, appended with a single
// write. The fold rule: whenever the log holds more bytes than the snapshot
// it extends (and on Close), the snapshot is rewritten by temp + rename and
// the log removed - geometric, so a publish costs amortised O(1) bytes and
// a reopen replays at most one snapshot's worth. The nodes mirror it:
// records as <name>/manifest/<generation>, a fold replacing <name>/manifest
// and deleting them. Without a path only the accounting runs.
type manifestLog struct {
	mu   sync.Mutex // orders publishes against Close
	fs   fsys.FS    // the file system path is on; nil: the host's
	path string
	// snapBytes sizes the snapshot the log extends, logBytes the records.
	snapBytes, logBytes int64
	// mustFold makes the next publish fold whatever the sizes: the nodes
	// hold no snapshot from this gateway yet (a create, a cluster load), or
	// the files have fallen behind (a failed write, a damaged log).
	mustFold bool
	// folded is the last snapshot's generation: later records may be on the nodes.
	folded uint64
}

func logPath(path string) string { return path + ".log" }

// files returns the file system the log is on.
func (l *manifestLog) files() fsys.FS {
	if l.fs == nil {
		return fsys.OS{}
	}
	return l.fs
}

// read loads the snapshot at l.path (none: fs.ErrNotExist) and replays the
// log beside it; one ending in a damaged frame is truncated there (mustFold).
func (l *manifestLog) read() (m core.Manifest, err error) {
	raw, err := l.files().ReadFile(l.path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("decoding manifest: %w", err)
	}
	l.snapBytes, l.folded = int64(len(raw)), m.Generation
	records, err := l.files().ReadFile(logPath(l.path))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return m, err
	}
	valid, err := m.Replay(records)
	if err != nil {
		return m, err
	}
	if l.mustFold = valid < len(records); l.mustFold {
		err = l.files().Truncate(logPath(l.path), int64(valid))
	}
	l.logBytes = int64(valid)
	return m, err
}

// adopt writes the snapshot of an archive that has no manifest under the
// root yet: just created, or recovered from the nodes.
func (l *manifestLog) adopt(archive *core.Archive) error {
	l.mustFold = true
	if l.path == "" {
		return nil
	}
	snap, _ := archive.Snapshot()
	return writeSnapshot(l.files(), l.path, snap)
}

// persist makes the archive's latest change durable under the root - one
// record appended to the log, then a fold if the log has outgrown its
// snapshot (closing: if it holds anything) - and returns what the nodes
// are still owed.
func (l *manifestLog) persist(archive *core.Archive, closing bool) (core.Publication, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pub core.Publication
	if rec, ok := archive.NextRecord(); ok {
		pub.Generation, pub.Record = rec.Generation, rec.Frame(archive.Name())
		if !l.mustFold && l.path != "" {
			f, err := l.files().OpenFile(logPath(l.path), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
			if err == nil {
				err = writeAndClose(f, pub.Record)
			}
			if err != nil {
				l.mustFold = true
				return core.Publication{}, fmt.Errorf("gateway: persisting manifest record: %w", err)
			}
		}
		l.logBytes += int64(len(pub.Record))
	}
	if !l.mustFold && l.logBytes <= l.snapBytes && !(closing && l.logBytes > 0) {
		return pub, nil
	}
	snap, gen := archive.Snapshot()
	if l.path != "" {
		if err := writeSnapshot(l.files(), l.path, snap); err != nil {
			return core.Publication{}, err
		}
		// A crash here leaves only records the snapshot covers: replay skips them.
		if err := l.files().Remove(logPath(l.path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return core.Publication{}, fmt.Errorf("gateway: persisting manifest: %w", err)
		}
	}
	pub.Snapshot, pub.First, pub.Last = snap, l.folded+1, gen
	l.snapBytes, l.logBytes, l.mustFold, l.folded = int64(len(snap)), 0, false, gen
	return pub, nil
}

// writeSnapshot atomically replaces the manifest at path.
func writeSnapshot(f fsys.FS, path string, snap []byte) error {
	tmp, err := f.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err == nil {
		defer f.Remove(tmp.Name())
		if err = writeAndClose(tmp, snap); err == nil {
			err = f.Rename(tmp.Name(), path)
		}
	}
	if err != nil {
		return fmt.Errorf("gateway: persisting manifest: %w", err)
	}
	return nil
}

func writeAndClose(f fsys.File, data []byte) error {
	_, err := f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
