// Package vcs implements a miniature delta-based version store in the
// style of the paper's motivating applications (SVN, wiki revision
// histories): a repository of named files whose revisions are SEC-encoded
// archives on a shared storage cluster.
//
// The repository is a client of an embedded in-memory gateway: each
// tracked path is one gateway archive, and the repository owns only the
// commit log, which maps a revision to a version within each archive.
// Opening archives, serializing writers, caching decoded versions and
// ordering publish and reclaim are the gateway's. Commits supply
// the full new contents of changed files (as an SVN working-copy commit
// does); the archives store deltas per the configured scheme. Files are
// never removed - like the paper's model, the store is an append-only
// versioned archive.
package vcs

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/url"
	"slices"
	"sync"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/secclient"
)

// Errors returned by repository operations.
var (
	// ErrNoSuchRevision is returned for revisions outside 1..Head().
	ErrNoSuchRevision = errors.New("vcs: no such revision")
	// ErrEmptyCommit is returned for a commit with no changed files.
	ErrEmptyCommit = errors.New("vcs: empty commit")
	// ErrNoSuchFile is returned when a path is not tracked at the
	// requested revision.
	ErrNoSuchFile = errors.New("vcs: no such file")
)

// FileChange records one file's update within a commit.
type FileChange struct {
	// Path is the repository path.
	Path string `json:"path"`
	// Version is the file's new version number within its archive.
	Version int `json:"version"`
	// Gamma is the block sparsity of the delta against the previous
	// version (0 for a file's first version).
	Gamma int `json:"gamma"`
	// StoredDelta reports whether the archive stored a delta (vs a full
	// version).
	StoredDelta bool `json:"stored_delta"`
}

// Commit is one repository revision.
type Commit struct {
	// Revision numbers commits from 1.
	Revision int `json:"revision"`
	// Message is the free-form commit message.
	Message string `json:"message"`
	// Changes lists the files updated in this revision, sorted by path.
	Changes []FileChange `json:"changes"`
}

// Repository is a delta-based version store over a storage cluster. It is
// safe for concurrent use.
type Repository struct {
	spec   core.Spec
	client *secclient.Client

	// commitMu serializes commits; readers never take it. mu guards
	// commits and is never held across I/O: the log is append-only and its
	// entries immutable, so a reader works on the prefix it saw.
	commitMu sync.Mutex
	mu       sync.RWMutex
	commits  []Commit
}

// NewRepository creates an empty repository storing its archives on the
// cluster, every file's archive configured by cfg. Hot files accumulate
// deep delta chains fastest and checkouts re-read them, so the chain
// policy, compression and read cache matter most here. cfg sets no Name:
// each file's archive has its own, and the repository saves its settings as
// a core.Spec, which carries none.
func NewRepository(cfg core.Config, cluster *store.Cluster) (*Repository, error) {
	if cfg.Name != "" {
		return nil, fmt.Errorf("vcs: a repository's archives take no Name, got %q", cfg.Name)
	}
	return open(cfg.Spec(), cluster)
}

// open embeds an in-memory gateway over the cluster and validates the
// spec by building, without touching a node, the archive a file's create
// would (files are "vcs-...").
func open(spec core.Spec, cluster *store.Cluster) (*Repository, error) {
	if _, err := core.Open(spec.Manifest("vcs"), cluster); err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Cluster: cluster})
	if err != nil {
		return nil, err
	}
	return &Repository{spec: spec, client: secclient.Embed(gw)}, nil
}

// archiveName maps a repository path, injectively, into the gateway's
// archive namespace, which admits neither path separators (escaped away)
// nor a leading dot (the prefix).
func archiveName(path string) string { return "vcs-" + url.PathEscape(path) }

// log returns the commits recorded so far, for reading only.
func (r *Repository) log() []Commit {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.commits[:len(r.commits):len(r.commits)]
}

// tree derives the state after the last of the given commits: each
// tracked path's version within its archive.
func tree(log []Commit) map[string]int {
	versions := make(map[string]int)
	for _, c := range log {
		for _, ch := range c.Changes {
			versions[ch.Path] = ch.Version
		}
	}
	return versions
}

// treeAt is tree as of the given revision.
func (r *Repository) treeAt(revision int) (map[string]int, error) {
	log := r.log()
	if revision < 1 || revision > len(log) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchRevision, revision, len(log))
	}
	return tree(log[:revision]), nil
}

// Head returns the latest revision number (0 for an empty repository).
func (r *Repository) Head() int { return len(r.log()) }

// Files returns the tracked paths, sorted.
func (r *Repository) Files() []string { return slices.Sorted(maps.Keys(tree(r.log()))) }

// Log returns the commit history, oldest first.
func (r *Repository) Log() []Commit { return slices.Clone(r.log()) }

// CommitContext stores the given file contents as a new revision, under
// the context's deadline and cancellation. Unchanged tracked files carry
// over; paths whose content equals the stored latest version still get a
// (zero-delta) version so the revision maps cleanly. A commit that fails
// partway (a storage error, or cancellation between files) records no
// revision, and since the tracked paths and their versions are read off
// the log, Head, Files and every checkout stay as they were. What it
// already stored stays behind unreferenced: the archive of an earlier
// file in the batch holds a version no revision names, and a retry
// appends the next version after it rather than overwriting it. The
// exception is a maintenance failure: when a file's version committed
// durably but its auto-compaction pass failed, the revision IS recorded
// (dropping it would desynchronize the log from the archive's version
// list and make a retry store the same bytes as an extra version) and
// the maintenance error is returned alongside the commit.
func (r *Repository) CommitContext(ctx context.Context, message string, contents map[string][]byte) (Commit, error) {
	if len(contents) == 0 {
		return Commit{}, ErrEmptyCommit
	}
	//lint:allow lockheld one commit at a time is the design: a revision's file versions are assigned while it holds the lock; checkouts read the log under mu and never wait here
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	log := r.log()
	tracked := tree(log)
	commit := Commit{Revision: len(log) + 1, Message: message}
	var maintErr error
	for _, path := range slices.Sorted(maps.Keys(contents)) {
		if err := ctx.Err(); err != nil {
			return Commit{}, fmt.Errorf("vcs: commit aborted before %q: %w", path, err)
		}
		name := archiveName(path)
		if _, ok := tracked[path]; !ok {
			// An archive left behind by a failed commit that was adding
			// this path already exists: that is not a conflict here.
			if _, err := r.client.Create(ctx, name, r.spec); err != nil && !errors.Is(err, store.ErrConflict) {
				return Commit{}, fmt.Errorf("vcs: creating archive for %q: %w", path, err)
			}
		}
		info, err := r.client.Commit(ctx, name, contents[path])
		if err != nil && info.Version == 0 {
			return Commit{}, fmt.Errorf("vcs: committing %q: %w", path, err)
		}
		if err != nil { // the version is durable; only its maintenance pass failed
			maintErr = errors.Join(maintErr, fmt.Errorf("vcs: compacting %q after commit: %w", path, err))
		}
		commit.Changes = append(commit.Changes, FileChange{
			Path:        path,
			Version:     info.Version,
			Gamma:       info.Gamma,
			StoredDelta: info.StoredDelta,
		})
	}
	r.mu.Lock()
	r.commits = append(r.commits, commit)
	r.mu.Unlock()
	return commit, maintErr
}

// CheckoutFileContext returns one file's contents at the given revision,
// with the read accounting of the underlying archive retrieval, under the
// context's deadline and cancellation.
func (r *Repository) CheckoutFileContext(ctx context.Context, path string, revision int) ([]byte, core.RetrievalStats, error) {
	versions, err := r.treeAt(revision)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	version, ok := versions[path]
	if !ok {
		return nil, core.RetrievalStats{}, fmt.Errorf("%w: %q at revision %d", ErrNoSuchFile, path, revision)
	}
	v, err := r.client.Retrieve(ctx, archiveName(path), version)
	return v.Data, v.Stats, err
}

// CheckoutContext returns the full repository state at the given revision
// and the aggregate read accounting, under the context's deadline and
// cancellation (a multi-file checkout stops at the first cancelled file).
func (r *Repository) CheckoutContext(ctx context.Context, revision int) (map[string][]byte, core.RetrievalStats, error) {
	var total core.RetrievalStats
	versions, err := r.treeAt(revision)
	if err != nil {
		return nil, total, err
	}
	out := make(map[string][]byte, len(versions))
	for path, version := range versions {
		v, err := r.client.Retrieve(ctx, archiveName(path), version)
		if err != nil {
			return nil, total, fmt.Errorf("vcs: checking out %q@%d: %w", path, revision, err)
		}
		total.Merge(v.Stats)
		out[path] = v.Data
	}
	return out, total, nil
}

// CompactContext bounds every file archive's chain depth to maxLen (see
// gateway.Gateway.Compact), under the context's deadline and
// cancellation, and returns the reports of the files whose chains
// changed. Files are compacted one at a time in path order; a failure
// stops the pass at that file, with earlier files' compactions already
// applied (they are independently consistent).
func (r *Repository) CompactContext(ctx context.Context, maxLen int) (map[string]secclient.CompactReport, error) {
	changed := make(map[string]secclient.CompactReport)
	for _, path := range r.Files() {
		report, err := r.client.Compact(ctx, archiveName(path), maxLen)
		if report.Info.Changed() {
			changed[path] = report // also when only the reclaim was cut short
		}
		if err != nil {
			return changed, fmt.Errorf("vcs: compacting %q: %w", path, err)
		}
	}
	return changed, nil
}
