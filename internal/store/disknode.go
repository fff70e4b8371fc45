package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/secarchive/sec/internal/fsys"
)

// On-disk shard file format (all integers big-endian):
//
//	offset 0   magic   "SECS"
//	offset 4   version u16 (currently 1)
//	offset 8   keyLen  u32
//	offset 12  dataLen u32
//	offset 16  crc     u32 CRC32C (Castagnoli) over key || payload
//	offset 20  key     the shard's "object#row" string, then the payload
//
// The key is stored so that a (vanishingly unlikely) filename-hash
// collision, or a file planted at the wrong path, is caught as corruption
// instead of served as the wrong shard. Any header or content damage -
// wrong magic, impossible lengths, truncation, growth, or a CRC mismatch -
// surfaces as ErrCorrupt at read time.
const (
	shardMagic        = "SECS"
	shardFormatV      = 1
	shardHeaderLen    = 20
	shardFileSuffix   = ".shard"
	shardTmpPrefix    = ".tmp-"
	diskMarkerName    = "SECNODE"
	diskMarkerContent = "secnode-format 1\n"
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// DiskNode is a durable storage node keeping one file per shard under a
// fanned-out directory tree. Writes are atomic (temp file + rename + parent
// directory fsync), every shard carries a checksummed header so bit rot is
// detected at read time as ErrCorrupt, and a node directory reopened after
// a crash or restart serves exactly the shards whose writes completed. It
// is safe for concurrent use.
type DiskNode struct {
	id  string
	dir string
	fs  fsys.FS

	mu     sync.Mutex
	failed bool
	stats  NodeStats

	// dirsMu guards durableDirs, the fan-out subdirectories whose creation
	// has been flushed to their parents this process lifetime. A shard file
	// is only crash-durable once every directory entry on its path is, so
	// the first Put into a subdirectory fsyncs the parent chain.
	dirsMu      sync.Mutex
	durableDirs map[string]struct{}
}

var _ Node = (*DiskNode)(nil)
var _ FaultInjector = (*DiskNode)(nil)

// NewDiskNode creates (or reopens) a disk-backed node rooted at dir. The
// directory and its format marker are created if missing, and synced into
// the directory that holds dir, so a power loss keeps them; leftover
// temporary files from an interrupted writer are discarded, and any shards
// already present are served as-is.
func NewDiskNode(id, dir string) (*DiskNode, error) {
	return NewDiskNodeOn(fsys.OS{}, id, dir)
}

// NewDiskNodeOn is NewDiskNode on the given file system: a test runs nodes
// on fsys.Recorders to crash them at any call.
func NewDiskNodeOn(f fsys.FS, id, dir string) (*DiskNode, error) {
	if err := f.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating disk node %s: %w", id, err)
	}
	marker := filepath.Join(dir, diskMarkerName)
	raw, err := f.ReadFile(marker)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := writeFileAtomic(f, marker, []byte(diskMarkerContent)); err != nil {
			return nil, fmt.Errorf("store: initializing disk node %s: %w", id, err)
		}
		if err := f.SyncDir(filepath.Dir(dir)); err != nil {
			return nil, fmt.Errorf("store: initializing disk node %s: %w", id, err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: initializing disk node %s: %w", id, err)
	case string(raw) != diskMarkerContent:
		// A marker with foreign content means another tool (or a future
		// format) owns this tree; writing v1 shards into it would intermix
		// formats, so refuse exactly as OpenDiskNode does.
		return nil, fmt.Errorf("store: initializing disk node %s at %s: unsupported format marker %q", id, dir, strings.TrimSpace(string(raw)))
	}
	return openDiskNode(f, id, dir)
}

// OpenDiskNode reopens an existing disk node directory, e.g. after a
// process restart. Unlike NewDiskNode it refuses a directory that was not
// initialized as a disk node, guarding against serving (or later wiping)
// an unrelated tree.
func OpenDiskNode(id, dir string) (*DiskNode, error) {
	f := fsys.OS{}
	raw, err := f.ReadFile(filepath.Join(dir, diskMarkerName))
	if err != nil {
		return nil, fmt.Errorf("store: opening disk node %s at %s: not a disk node directory: %w", id, dir, err)
	}
	if string(raw) != diskMarkerContent {
		return nil, fmt.Errorf("store: opening disk node %s at %s: unsupported format marker %q", id, dir, strings.TrimSpace(string(raw)))
	}
	return openDiskNode(f, id, dir)
}

func openDiskNode(f fsys.FS, id, dir string) (*DiskNode, error) {
	n := &DiskNode{id: id, dir: dir, fs: f, durableDirs: make(map[string]struct{})}
	if err := n.removeTempFiles(); err != nil {
		return nil, fmt.Errorf("store: recovering disk node %s: %w", id, err)
	}
	return n, nil
}

// removeTempFiles discards partial writes left by a crashed process; their
// renames never happened, so the shards they were replacing are intact.
func (n *DiskNode) removeTempFiles() error {
	return fsys.WalkFiles(n.fs, n.dir, func(path, name string) error {
		if strings.HasPrefix(name, shardTmpPrefix) {
			return n.fs.Remove(path)
		}
		return nil
	})
}

// ID returns the node identifier.
func (n *DiskNode) ID() string { return n.id }

func (n *DiskNode) shardRoot() string { return filepath.Join(n.dir, "shards") }

// shardPath fans shards out over 256 subdirectories keyed by a hash of the
// shard ID, so archives with millions of shards never pile every file into
// one directory. The filename is the hash too: object names are arbitrary
// strings (longer than a filename may be), so the stored key, not the path,
// is the authority on what a file holds.
func (n *DiskNode) shardPath(id ShardID) (dir, path string) {
	sum := sha256.Sum256([]byte(id.String()))
	dir = filepath.Join(n.shardRoot(), hex.EncodeToString(sum[:1]))
	return dir, filepath.Join(dir, hex.EncodeToString(sum[1:17])+shardFileSuffix)
}

// Put durably stores a shard: a put batch of one.
func (n *DiskNode) Put(ctx context.Context, id ShardID, data []byte) error {
	return putOne(ctx, n, id, data)
}

// Get reads a shard back, verified: a get batch of one.
func (n *DiskNode) Get(ctx context.Context, id ShardID) ([]byte, error) {
	return getOne(ctx, n, id)
}

// Delete removes a shard: a delete batch of one.
func (n *DiskNode) Delete(ctx context.Context, id ShardID) error {
	return deleteOne(ctx, n, id)
}

// isFailed reports whether a failure is injected.
func (n *DiskNode) isFailed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

// GetBatch reads several shards back, verifying each header and CRC32C, with
// one availability check and one counter update. Each shard fails or
// succeeds independently: ErrNodeDown while the node is failed, ErrNotFound
// when it is absent, ErrCorrupt when its file exists but its contents cannot
// be trusted; each success counts one read. The context is checked between
// shards, before the failed flag: once it is done, the remaining shards fail
// with its error while completed reads stay counted.
func (n *DiskNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	results := make([]ShardResult, len(ids))
	failed := n.isFailed()
	var reads, bytesRead uint64
	for i, id := range ids {
		if err := admit(ctx, "get", id, n.id, failed); err != nil {
			results[i] = ShardResult{Err: err}
			continue
		}
		_, path := n.shardPath(id)
		raw, err := n.fs.ReadFile(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				err = ErrNotFound
			}
			results[i] = ShardResult{Err: shardErr("get", id, n.id, err)}
			continue
		}
		data, err := decodeShardFile(id, raw)
		if err != nil {
			results[i] = ShardResult{Err: shardErr("get", id, n.id, err)}
			continue
		}
		reads++
		bytesRead += uint64(len(data))
		results[i] = ShardResult{Data: data}
	}
	n.mu.Lock()
	n.stats.Reads += reads
	n.stats.BytesRead += bytesRead
	n.mu.Unlock()
	return results
}

// PutBatch durably stores several shards, amortizing the directory
// traversal: every shard is written and renamed first, then each affected
// fan-out directory is fsynced once, instead of once per shard. When the
// batch returns, a crash cannot lose a shard whose error is nil or expose a
// torn write of it (temp file, fsync, rename, directory fsync); each success
// counts one write.
//
// The context is checked before each shard's write: a cancelled batch
// stops renaming new shards (the remaining entries fail with the context's
// error) but still fsyncs every directory already renamed into, so no
// shard is ever reported written without being durable and no temporary
// file survives the cancellation.
func (n *DiskNode) PutBatch(ctx context.Context, ids []ShardID, data [][]byte) []error {
	errs := make([]error, len(ids))
	failed := n.isFailed()
	// dirty maps each touched directory to the batch positions whose
	// durability depends on its fsync.
	dirty := make(map[string][]int, 4)
	for i, id := range ids {
		if errs[i] = admit(ctx, "put", id, n.id, failed); errs[i] != nil {
			continue
		}
		if int64(len(data[i])) > maxShardLen || int64(len(id.Object)) > maxShardLen {
			errs[i] = shardErr("put", id, n.id, fmt.Errorf("%d-byte shard exceeds the u32 format limit", len(data[i])))
			continue
		}
		dir, path := n.shardPath(id)
		if err := n.fs.MkdirAll(dir, 0o755); err != nil {
			errs[i] = shardErr("put", id, n.id, err)
			continue
		}
		if err := n.ensureDirDurable(dir); err != nil {
			errs[i] = shardErr("put", id, n.id, err)
			continue
		}
		if err := renameFileAtomic(n.fs, path, EncodeFrame(id.String(), data[i])); err != nil {
			errs[i] = shardErr("put", id, n.id, err)
			continue
		}
		dirty[dir] = append(dirty[dir], i)
	}
	var writes, bytesWritten uint64
	for _, dir := range slices.Sorted(maps.Keys(dirty)) { // one order from run to run
		err := n.fs.SyncDir(dir)
		for _, i := range dirty[dir] {
			if err != nil {
				errs[i] = shardErr("put", ids[i], n.id, err)
				continue
			}
			writes++
			bytesWritten += uint64(len(data[i]))
		}
	}
	n.mu.Lock()
	n.stats.Writes += writes
	n.stats.BytesWritten += bytesWritten
	n.mu.Unlock()
	return errs
}

// DeleteBatch removes several shards, amortizing the directory flushes the
// way PutBatch does: every file is unlinked first, then each affected
// fan-out directory is fsynced once. Each shard fails or succeeds
// independently, with ErrNotFound for a shard already absent; each success
// counts one delete. The context is checked before each unlink, so a
// cancelled batch stops removing shards while directories already touched
// are still flushed.
func (n *DiskNode) DeleteBatch(ctx context.Context, ids []ShardID) []error {
	errs := make([]error, len(ids))
	failed := n.isFailed()
	var deletes uint64
	dirty := make(map[string]struct{}, 4)
	for i, id := range ids {
		if errs[i] = admit(ctx, "delete", id, n.id, failed); errs[i] != nil {
			continue
		}
		dir, path := n.shardPath(id)
		if err := n.fs.Remove(path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				err = ErrNotFound
			}
			errs[i] = shardErr("delete", id, n.id, err)
			continue
		}
		deletes++
		dirty[dir] = struct{}{}
	}
	for _, dir := range slices.Sorted(maps.Keys(dirty)) {
		_ = n.fs.SyncDir(dir) // best effort: a resurrected shard is re-deletable
	}
	n.mu.Lock()
	n.stats.Deletes += deletes
	n.mu.Unlock()
	return errs
}

// Available reports whether the node accepts operations.
func (n *DiskNode) Available(ctx context.Context) bool {
	return ctx.Err() == nil && !n.isFailed()
}

// SetFailed injects or clears a crash-stop failure. Data is retained across
// failures (it is on disk).
func (n *DiskNode) SetFailed(failed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = failed
}

// Stats returns a snapshot of the I/O counters. Counters are in-memory
// only; they restart from zero with the process, like the paper's
// per-experiment accounting.
func (n *DiskNode) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the I/O counters.
func (n *DiskNode) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = NodeStats{}
}

// ShardFiles returns the sorted paths of every shard file currently stored
// (temporary files excluded). It walks the directory tree, so it is a
// maintenance and test-tooling helper (damage simulation, offline
// inspection), not a hot-path call.
func (n *DiskNode) ShardFiles() ([]string, error) {
	var files []string
	err := fsys.WalkFiles(n.fs, n.shardRoot(), func(path, name string) error {
		if strings.HasSuffix(name, shardFileSuffix) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return files, err
}

// Len returns the number of shard files currently stored, best effort.
func (n *DiskNode) Len() int {
	files, _ := n.ShardFiles()
	return len(files)
}

// Wipe discards every stored shard, modelling the replacement of a failed
// device with an empty one. Counters and failure state are unaffected.
func (n *DiskNode) Wipe() error {
	n.dirsMu.Lock()
	clear(n.durableDirs) // recreated subdirectories need their parents re-flushed
	n.dirsMu.Unlock()
	if err := n.fs.RemoveAll(n.shardRoot()); err != nil {
		return fmt.Errorf("store: wiping %s: %w", n.id, err)
	}
	return n.fs.SyncDir(n.dir)
}

// Close flushes the node's directory metadata. Individual shard writes are
// already durable when PutBatch returns; Close is the graceful-shutdown
// counterpart that fsyncs the root so directory-level operations (deletes,
// first-time subdirectory creation) are on stable storage too.
func (n *DiskNode) Close() error {
	if err := n.fs.SyncDir(n.shardRoot()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return n.fs.SyncDir(n.dir)
}

// ensureDirDurable makes a freshly created fan-out subdirectory itself
// crash-durable by fsyncing its parents (shards/ and the node root), once
// per subdirectory per process lifetime. The subdirectory's own contents
// are fsynced by PutBatch after its renames.
func (n *DiskNode) ensureDirDurable(dir string) error {
	n.dirsMu.Lock()
	defer n.dirsMu.Unlock()
	if _, ok := n.durableDirs[dir]; ok {
		return nil
	}
	if err := n.fs.SyncDir(n.shardRoot()); err != nil {
		return err
	}
	if err := n.fs.SyncDir(n.dir); err != nil {
		return err
	}
	n.durableDirs[dir] = struct{}{}
	return nil
}

// maxShardLen bounds payload and object-name sizes to what the u32 header
// fields can record; beyond it Put must fail loudly rather than write a
// file whose lengths wrap (and so can never be read back).
const maxShardLen = 1<<32 - 1

// EncodeFrame renders key and payload in the checksummed frame a DiskNode
// stores a shard file as (layout above). Frames are self-delimiting, so a
// run of them reads back frame by frame: core's manifest records are such
// frames.
func EncodeFrame(key string, data []byte) []byte {
	buf := make([]byte, shardHeaderLen, shardHeaderLen+len(key)+len(data))
	copy(buf[0:4], shardMagic)
	binary.BigEndian.PutUint16(buf[4:6], shardFormatV)
	// buf[6:8] is reserved, zero.
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(key)))
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(data)))
	buf = append(buf, key...)
	buf = append(buf, data...)
	binary.BigEndian.PutUint32(buf[16:20], crc32.Checksum(buf[shardHeaderLen:], crc32c))
	return buf
}

// DecodeFrame validates the frame at the start of raw and returns its key,
// its payload (aliasing raw) and the bytes the frame occupies. Every failure
// - a torn frame, wrong magic, impossible lengths, a CRC mismatch - is
// ErrCorrupt.
func DecodeFrame(raw []byte) (key string, payload []byte, n int, err error) {
	if len(raw) < shardHeaderLen {
		return "", nil, 0, fmt.Errorf("%w: %d bytes shorter than a frame header", ErrCorrupt, len(raw))
	}
	if string(raw[0:4]) != shardMagic {
		return "", nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[0:4])
	}
	if v := binary.BigEndian.Uint16(raw[4:6]); v != shardFormatV {
		return "", nil, 0, fmt.Errorf("%w: unsupported shard format %d", ErrCorrupt, v)
	}
	// The reserved bytes are outside the CRC; damage there must still be
	// flagged, and format v1 always writes them as zero.
	if flags := binary.BigEndian.Uint16(raw[6:8]); flags != 0 {
		return "", nil, 0, fmt.Errorf("%w: unsupported flags %#x", ErrCorrupt, flags)
	}
	keyLen := uint64(binary.BigEndian.Uint32(raw[8:12]))
	dataLen := uint64(binary.BigEndian.Uint32(raw[12:16]))
	if keyLen+dataLen > uint64(len(raw)-shardHeaderLen) {
		return "", nil, 0, fmt.Errorf("%w: header claims %d+%d bytes, %d follow it",
			ErrCorrupt, keyLen, dataLen, len(raw)-shardHeaderLen)
	}
	n = shardHeaderLen + int(keyLen+dataLen)
	body := raw[shardHeaderLen:n]
	if got, want := crc32.Checksum(body, crc32c), binary.BigEndian.Uint32(raw[16:20]); got != want {
		return "", nil, 0, fmt.Errorf("%w: CRC32C %08x, header says %08x", ErrCorrupt, got, want)
	}
	return string(body[:keyLen]), body[keyLen:], n, nil
}

// decodeShardFile validates a shard file and returns its payload. Every
// failure is ErrCorrupt: the file exists, and its bytes cannot be trusted.
func decodeShardFile(id ShardID, raw []byte) ([]byte, error) {
	key, payload, n, err := DecodeFrame(raw)
	if err != nil {
		return nil, err
	}
	if n != len(raw) {
		return nil, fmt.Errorf("%w: %d bytes after the frame", ErrCorrupt, len(raw)-n)
	}
	if key != id.String() {
		return nil, fmt.Errorf("%w: file holds shard %s", ErrCorrupt, key)
	}
	// Copy so the caller owns the result independent of the read buffer.
	return append([]byte(nil), payload...), nil
}

// writeFileAtomic writes path via a temporary file in the same directory, an
// fsync, a rename, and a directory fsync, so concurrent readers and crashes
// see either the old contents or the complete new ones.
func writeFileAtomic(f fsys.FS, path string, contents []byte) error {
	if err := renameFileAtomic(f, path, contents); err != nil {
		return err
	}
	return f.SyncDir(filepath.Dir(path))
}

// renameFileAtomic is writeFileAtomic without the trailing directory fsync,
// for batch writers that flush each directory once after renaming every
// file into it. The rename is not crash-durable until that fsync happens.
func renameFileAtomic(f fsys.FS, path string, contents []byte) error {
	dir := filepath.Dir(path)
	tmp, err := f.CreateTemp(dir, shardTmpPrefix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = f.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(contents); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil // closed: the deferred cleanup must not double-close
	if err := f.Rename(name, path); err != nil {
		_ = f.Remove(name)
		return err
	}
	return nil
}
