package fsys

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrCrashed fails every call a Recorder is asked after it crashed, until
// Restart.
var ErrCrashed = errors.New("fsys: file system crashed")

// Call is one logged call that changes the tree: Op is "create" (a file
// opened or made new), "write", "sync" (a file's contents flushed),
// "syncdir", "mkdir", "rename" (Path is the new name), "remove" or
// "removeall".
type Call struct {
	Op, Path string
}

// Recorder is an in-memory file system for tests that logs every call that
// changes the tree, in order, and models a page cache: a write is durable
// once its file is synced, and a create, rename or remove once the
// directory holding the name is synced. Crash is a power loss: it drops
// everything that is not durable - file contents roll back to their last
// sync, and directories to their entries at their last SyncDir, which can
// unlink whole subtrees - and starts a new boot. StopAt stops the process
// at a chosen call. The root directory "/" is durable from the start; paths
// are cleaned and taken as absolute.
type Recorder struct {
	mu      sync.Mutex
	root    *inode
	calls   []Call
	stopAt  int // 1-based index of the call that stops; 0: none armed
	crashed bool
	temps   int
	boots   int // crashes so far: the boot is the next one
}

// inode is a file (data, and synced: its contents at its last Sync) or a
// directory (entries, and durable: its entries at its last SyncDir).
type inode struct {
	dir          bool
	data, synced []byte
	entries      map[string]*inode
	durable      map[string]*inode
	modTime      time.Time
}

// NewRecorder returns an empty recorder holding only the root directory.
func NewRecorder() *Recorder {
	return &Recorder{root: newDir()}
}

var _ FS = (*Recorder)(nil)

func newDir() *inode {
	return &inode{dir: true, entries: map[string]*inode{}, durable: map[string]*inode{}}
}

// Boot names the recorder's boot: a new one after every crash.
func (r *Recorder) Boot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("recorder-boot-%d", r.boots+1)
}

// Clone returns a recorder holding a copy of this one's tree, live and
// durable state alike, in the same boot and with an empty log: the machine
// as it stands, for a test to restart a process on or to crash apart from
// this one.
func (r *Recorder) Clone() *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Recorder{root: r.root.clone(map[*inode]*inode{}), crashed: r.crashed, temps: r.temps, boots: r.boots}
}

// clone copies n and everything below it, live and durable; copies maps
// each inode to its copy, so one listed live and durable is copied once.
func (n *inode) clone(copies map[*inode]*inode) *inode {
	if c := copies[n]; c != nil {
		return c
	}
	c := &inode{dir: n.dir, data: slices.Clone(n.data), synced: slices.Clone(n.synced), modTime: n.modTime}
	copies[n] = c
	if n.dir {
		c.entries, c.durable = map[string]*inode{}, map[string]*inode{}
		for name, e := range n.entries {
			c.entries[name] = e.clone(copies)
		}
		for name, e := range n.durable {
			c.durable[name] = e.clone(copies)
		}
	}
	return c
}

// Calls returns the log so far.
func (r *Recorder) Calls() []Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.calls)
}

// Syncs counts the fsyncs so far, of files and of directories.
func (r *Recorder) Syncs() int {
	n := 0
	for _, c := range r.Calls() {
		if c.Op == "sync" || c.Op == "syncdir" {
			n++
		}
	}
	return n
}

// StopAt arms a stop at the n-th logged call (counted from the recorder's
// start, 1-based): a process that died there. That call does not happen,
// and it and every later call fail with ErrCrashed, but nothing is dropped:
// Clone copies the tree as the process left it, and Crash then drops what a
// power loss would.
func (r *Recorder) StopAt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopAt = n
}

// Crash drops everything not yet durable now, starts a new boot, and fails
// every later call with ErrCrashed.
func (r *Recorder) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed = true
	r.boots++
	r.root.rollBack()
}

// Restart brings a crashed or stopped recorder back, on what it held then.
func (r *Recorder) Restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed, r.stopAt = false, 0
}

// rollBack drops what is not durable below and at n.
func (n *inode) rollBack() {
	if !n.dir {
		n.data = slices.Clone(n.synced)
		return
	}
	n.entries = maps.Clone(n.durable)
	for _, c := range n.entries {
		c.rollBack()
	}
}

// log records one call that changes the tree, stopping first if it is the
// armed one. Callers hold r.mu.
func (r *Recorder) log(op, path string) error {
	if r.crashed {
		return ErrCrashed
	}
	if len(r.calls)+1 == r.stopAt {
		r.crashed = true
		return ErrCrashed
	}
	r.calls = append(r.calls, Call{Op: op, Path: path})
	return nil
}

// split cleans path into its parent directory and base name.
func split(path string) (dir, base string) {
	path = filepath.Clean("/" + path)
	return filepath.Dir(path), filepath.Base(path)
}

// lookup returns the inode at path in the live tree, or nil.
func (r *Recorder) lookup(path string) *inode {
	n := r.root
	for _, part := range strings.Split(filepath.Clean("/"+path), "/") {
		if part == "" {
			continue
		}
		if !n.dir {
			return nil
		}
		if n = n.entries[part]; n == nil {
			return nil
		}
	}
	return n
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// parentDir returns the live directory that holds path's base name.
func (r *Recorder) parentDir(op, path string) (*inode, string, error) {
	dir, base := split(path)
	parent := r.lookup(dir)
	if parent == nil || !parent.dir {
		return nil, "", notExist(op, path)
	}
	return parent, base, nil
}

// OpenFile opens name for writing; O_RDONLY opens are refused, as nothing
// the seam serves reads through a File.
func (r *Recorder) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, ErrCrashed
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return nil, &fs.PathError{Op: "open", Path: name, Err: errors.ErrUnsupported}
	}
	parent, base, err := r.parentDir("open", name)
	if err != nil {
		return nil, err
	}
	n := parent.entries[base]
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case n != nil && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case n != nil && n.dir:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EISDIR}
	}
	if n == nil || flag&os.O_TRUNC != 0 {
		if err := r.log("create", name); err != nil {
			return nil, err
		}
	}
	if n == nil {
		n = &inode{modTime: time.Now()}
		parent.entries[base] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &recFile{r: r, n: n, name: name, append: flag&os.O_APPEND != 0}, nil
}

// CreateTemp creates a new empty file in dir.
func (r *Recorder) CreateTemp(dir, pattern string) (File, error) {
	r.mu.Lock()
	r.temps++
	name := fmt.Sprintf("%d", r.temps)
	r.mu.Unlock()
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		name = pattern[:i] + name + pattern[i+1:]
	} else {
		name = pattern + name
	}
	return r.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
}

// ReadFile returns a copy of a file's live contents.
func (r *Recorder) ReadFile(name string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, ErrCrashed
	}
	n := r.lookup(name)
	if n == nil {
		return nil, notExist("open", name)
	}
	if n.dir {
		return nil, &fs.PathError{Op: "read", Path: name, Err: syscall.EISDIR}
	}
	return slices.Clone(n.data), nil
}

// ReadDir lists a live directory, sorted by name.
func (r *Recorder) ReadDir(name string) ([]fs.DirEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, ErrCrashed
	}
	n := r.lookup(name)
	if n == nil {
		return nil, notExist("readdir", name)
	}
	if !n.dir {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: syscall.ENOTDIR}
	}
	names := slices.Sorted(maps.Keys(n.entries))
	out := make([]fs.DirEntry, len(names))
	for i, base := range names {
		out[i] = n.entries[base].info(base)
	}
	return out, nil
}

// Stat describes a live file or directory.
func (r *Recorder) Stat(name string) (fs.FileInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, ErrCrashed
	}
	n := r.lookup(name)
	if n == nil {
		return nil, notExist("stat", name)
	}
	_, base := split(name)
	return n.info(base), nil
}

// MkdirAll creates every missing directory on path, logging one "mkdir"
// per directory made.
func (r *Recorder) MkdirAll(path string, _ fs.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return ErrCrashed
	}
	n, at := r.root, "/"
	for _, part := range strings.Split(filepath.Clean("/"+path), "/") {
		if part == "" {
			continue
		}
		at = filepath.Join(at, part)
		next := n.entries[part]
		if next == nil {
			if err := r.log("mkdir", at); err != nil {
				return err
			}
			next = newDir()
			n.entries[part] = next
		}
		if !next.dir {
			return &fs.PathError{Op: "mkdir", Path: at, Err: syscall.ENOTDIR}
		}
		n = next
	}
	return nil
}

// Rename moves oldpath's inode to newpath, replacing what was there.
func (r *Recorder) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return ErrCrashed
	}
	from, oldBase, err := r.parentDir("rename", oldpath)
	if err != nil {
		return err
	}
	n := from.entries[oldBase]
	if n == nil {
		return notExist("rename", oldpath)
	}
	to, newBase, err := r.parentDir("rename", newpath)
	if err != nil {
		return err
	}
	if err := r.log("rename", newpath); err != nil {
		return err
	}
	delete(from.entries, oldBase)
	to.entries[newBase] = n
	return nil
}

// Remove unlinks a file or an empty directory.
func (r *Recorder) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return ErrCrashed
	}
	parent, base, err := r.parentDir("remove", name)
	if err != nil {
		return err
	}
	n := parent.entries[base]
	if n == nil {
		return notExist("remove", name)
	}
	if n.dir && len(n.entries) > 0 {
		return &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
	}
	if err := r.log("remove", name); err != nil {
		return err
	}
	delete(parent.entries, base)
	return nil
}

// RemoveAll unlinks path and everything below it; a missing path is no
// error.
func (r *Recorder) RemoveAll(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return ErrCrashed
	}
	parent, base, err := r.parentDir("removeall", path)
	if err != nil || parent.entries[base] == nil {
		return nil
	}
	if err := r.log("removeall", path); err != nil {
		return err
	}
	delete(parent.entries, base)
	return nil
}

// SyncDir makes a directory's live entries its durable ones.
func (r *Recorder) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return ErrCrashed
	}
	n := r.lookup(dir)
	if n == nil || !n.dir {
		return notExist("open", dir)
	}
	if err := r.log("syncdir", dir); err != nil {
		return err
	}
	n.durable = maps.Clone(n.entries)
	return nil
}

// recFile is a file of a Recorder opened for writing.
type recFile struct {
	r      *Recorder
	n      *inode
	name   string
	append bool
	off    int
}

func (f *recFile) Name() string { return f.name }

func (f *recFile) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.r.log("write", f.name); err != nil {
		return 0, err
	}
	if f.append {
		f.off = len(f.n.data)
	}
	if end := f.off + len(p); end > len(f.n.data) {
		f.n.data = append(f.n.data, make([]byte, end-len(f.n.data))...)
	}
	copy(f.n.data[f.off:], p)
	f.off += len(p)
	f.n.modTime = time.Now()
	return len(p), nil
}

func (f *recFile) Sync() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.r.log("sync", f.name); err != nil {
		return err
	}
	f.n.synced = slices.Clone(f.n.data)
	return nil
}

func (f *recFile) Close() error { return nil }

// info describes an inode under the name it is listed by; it serves as both
// the fs.FileInfo and the fs.DirEntry.
func (n *inode) info(name string) fileInfo {
	return fileInfo{name: name, dir: n.dir, size: int64(len(n.data)), mod: n.modTime}
}

type fileInfo struct {
	name string
	dir  bool
	size int64
	mod  time.Time
}

func (i fileInfo) Name() string               { return i.name }
func (i fileInfo) Size() int64                { return i.size }
func (i fileInfo) ModTime() time.Time         { return i.mod }
func (i fileInfo) IsDir() bool                { return i.dir }
func (i fileInfo) Sys() any                   { return nil }
func (i fileInfo) Info() (fs.FileInfo, error) { return i, nil }
func (i fileInfo) Type() fs.FileMode          { return i.Mode().Type() }

func (i fileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
