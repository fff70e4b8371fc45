// Package fsys is the one seam between the repository's durable state and
// the file system it lives on: the shard files of a store.DiskNode and a
// gateway's manifest root. Production code runs the host's file system (OS);
// tests run a Recorder, which logs every call that changes the tree and can
// crash it, dropping whatever was not yet synced and starting a new boot
// (DESIGN.md section 13).
package fsys

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is what the durable components ask of a file system: the calls
// DiskNode and the gateway's manifest root make, by the meaning package os
// gives them.
// Errors for a missing file satisfy errors.Is(err, fs.ErrNotExist).
type FS interface {
	// OpenFile opens name for writing with os.OpenFile's flags (O_CREATE,
	// O_APPEND, O_TRUNC, O_EXCL).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new file in dir whose name is pattern with its
	// last "*" replaced by a random string, as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory's entries sorted by name.
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	// SyncDir flushes a directory's entries, so that the creates, renames
	// and removes within it survive a crash.
	SyncDir(dir string) error
	// Boot names the machine's current boot. What was not synced survives
	// as long as the boot does: only a power loss, which starts a new one,
	// rolls it back. Empty means the boot cannot be told.
	Boot() string
}

// File is a file opened for writing.
type File interface {
	io.Writer
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	Close() error
}

// OS is the host's file system, through package os.
type OS struct{}

var _ FS = OS{}

// OpenFile is os.OpenFile.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CreateTemp is os.CreateTemp.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile is os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir is os.ReadDir.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Stat is os.Stat.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// MkdirAll is os.MkdirAll.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// Rename is os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove is os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll is os.RemoveAll.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// SyncDir opens the directory and fsyncs it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Boot is the kernel's boot id, or empty where the host has none.
func (OS) Boot() string {
	id, err := os.ReadFile("/proc/sys/kernel/random/boot_id")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(id))
}

// WalkFiles calls visit with the path and name of every file below root,
// directories in name order, depth first. A root that does not exist holds
// no files; an error from visit stops the walk and is returned.
func WalkFiles(f FS, root string, visit func(path, name string) error) error {
	entries, err := f.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		if e.IsDir() {
			err = WalkFiles(f, path, visit)
		} else {
			err = visit(path, e.Name())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
