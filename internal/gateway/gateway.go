// Package gateway turns SEC archives from library objects owned by one
// process into a served, multi-user resource: one long-running Gateway
// owns many archives against a single node cluster, opens or creates them
// on demand, serializes writers per archive behind a bounded admission
// queue (typed store.ErrBusy/store.ErrConflict rejections), and shares
// each archive's decoded-version read cache across every client — so a
// version one client committed is served to all others from memory. The
// cache holds immutable versions, each verified against its digest, which
// no commit, compaction or repair changes, and there is exactly one
// core.Archive per name.
//
// The Gateway implements transport.ArchiveBackend, so it can be served
// over TCP (transport.NewServer(nil, transport.WithArchiveBackend(gw)),
// see cmd/secgw) or embedded in-process behind the same interface
// (secclient.Embed). Manifest durability follows the crash-safe ordering
// the CLI established: mutate the chain, publish the change as one manifest
// record on n-k+1 nodes, and only then reclaim superseded codewords.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// ErrClosed rejects operations on a gateway that has been closed.
var ErrClosed = errors.New("gateway: gateway closed")

// DefaultMaxQueuedWriters bounds the per-archive commit admission queue
// (active writer plus waiters) when Config.MaxQueuedWriters is zero.
const DefaultMaxQueuedWriters = 8

// Config configures a Gateway.
type Config struct {
	// Cluster is the storage fleet every archive stripes over. Required.
	Cluster *store.Cluster
	// Root is the directory archive manifests are cached under: one
	// <name>.json per archive and beside it <name>.json.clean, the mark
	// that lets an open in the same boot skip the nodes, both written by
	// Close. The nodes hold every manifest; empty means archives are always
	// reopened from them.
	Root string
	// ManifestPath overrides the manifest location per archive. It exists
	// so an embedded gateway can pin an archive to an exact file (the
	// CLI's -manifest flag); most callers should set Root instead.
	ManifestPath func(name string) string
	// MaxQueuedWriters bounds each archive's commit admission queue: the
	// writer holding the archive plus the writers waiting for it. A
	// commit arriving with the queue full is rejected with a typed
	// store.ErrBusy error instead of waiting unboundedly. Zero means
	// DefaultMaxQueuedWriters.
	MaxQueuedWriters int
	// fs is the file system Root and the manifests live on. Nil means the
	// host's (fsys.OS); tests put an fsys.Recorder here.
	fs fsys.FS
}

// Stats is a snapshot of gateway-level counters.
type Stats struct {
	// ArchivesOpen is the number of archives currently resident.
	ArchivesOpen int
	// Commits and Retrieves count successful data-path operations.
	Commits, Retrieves uint64
	// Logs, Infos, Compactions, Scrubs and Repairs count the successful
	// metadata and maintenance operations, so a load profile's op mix is
	// visible end to end.
	Logs, Infos, Compactions, Scrubs, Repairs uint64
	// BusyRejections counts commits refused because an archive's writer
	// queue was full; Conflicts counts failed optimistic preconditions.
	BusyRejections, Conflicts uint64
}

// archiveState is one resident archive: the shared core.Archive every
// client of this name uses (which is what makes the read cache shared and
// coherent), plus the writer-serialization gate.
type archiveState struct {
	name string
	// ready is closed once the load attempt finished; err then reports
	// its outcome. Failed loads are evicted from the map, so a later
	// open retries.
	ready   chan struct{}
	err     error
	archive *core.Archive
	// slot is the single-writer gate; queued counts admitted writers
	// (holder plus waiters), bounded by MaxQueuedWriters.
	slot   chan struct{}
	qmu    sync.Mutex
	queued int
	// meta is where the archive's metadata persists and how far it has.
	meta manifestState
}

func newArchiveState(name string) *archiveState {
	return &archiveState{
		name:  name,
		ready: make(chan struct{}),
		slot:  make(chan struct{}, 1),
	}
}

// acquire admits a writer, waiting for the slot unless the queue is full
// (typed busy rejection) or ctx ends first.
func (st *archiveState) acquire(ctx context.Context, max int) error {
	st.qmu.Lock()
	if st.queued >= max {
		st.qmu.Unlock()
		return fmt.Errorf("gateway: archive %q writer queue full (%d writers): %w", st.name, max, store.ErrBusy)
	}
	st.queued++
	st.qmu.Unlock()
	select {
	case st.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		st.qmu.Lock()
		st.queued--
		st.qmu.Unlock()
		return fmt.Errorf("gateway: waiting for archive %q writer slot: %w", st.name, context.Cause(ctx))
	}
}

func (st *archiveState) release() {
	<-st.slot
	st.qmu.Lock()
	st.queued--
	st.qmu.Unlock()
}

func (st *archiveState) queuedWriters() int {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	return st.queued
}

// Gateway serves many archives as one multi-user resource. It implements
// transport.ArchiveBackend. Methods are safe for concurrent use.
type Gateway struct {
	cfg Config

	mu       sync.Mutex
	archives map[string]*archiveState
	closed   bool

	commits     atomic.Uint64
	retrieves   atomic.Uint64
	logs        atomic.Uint64
	infos       atomic.Uint64
	compactions atomic.Uint64
	scrubs      atomic.Uint64
	repairs     atomic.Uint64
	busy        atomic.Uint64
	conflicts   atomic.Uint64

	// spans keeps the spans of traced requests (Spans).
	spans obs.LazyRing
}

// New returns a gateway over the given cluster.
func New(cfg Config) (*Gateway, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("gateway: config needs a cluster")
	}
	if cfg.MaxQueuedWriters <= 0 {
		cfg.MaxQueuedWriters = DefaultMaxQueuedWriters
	}
	if cfg.fs == nil {
		cfg.fs = fsys.OS{}
	}
	if cfg.Root != "" {
		if err := cfg.fs.MkdirAll(cfg.Root, 0o755); err != nil {
			return nil, fmt.Errorf("gateway: creating manifest root: %w", err)
		}
	}
	return &Gateway{cfg: cfg, archives: make(map[string]*archiveState)}, nil
}

// Cluster returns the storage fleet behind the gateway (for wire-byte
// accounting via store.Cluster.WireStats).
func (g *Gateway) Cluster() *store.Cluster { return g.cfg.Cluster }

// Spans returns the spans of the given trace the gateway holds, oldest
// first; trace 0 returns all of them. It keeps the latest
// obs.DefaultRingSpans, and none until a request carries a trace id.
func (g *Gateway) Spans(trace uint64) []obs.Span { return g.spans.Spans(trace) }

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	open := len(g.archives)
	g.mu.Unlock()
	return Stats{
		ArchivesOpen:   open,
		Commits:        g.commits.Load(),
		Retrieves:      g.retrieves.Load(),
		Logs:           g.logs.Load(),
		Infos:          g.infos.Load(),
		Compactions:    g.compactions.Load(),
		Scrubs:         g.scrubs.Load(),
		Repairs:        g.repairs.Load(),
		BusyRejections: g.busy.Load(),
		Conflicts:      g.conflicts.Load(),
	}
}

// validName guards the default Root-relative manifest layout (and the
// shard object namespace) against path-shaped archive names.
func validName(name string) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("gateway: invalid archive name %q", name)
	}
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("gateway: invalid archive name %q (path separators and leading dots are reserved)", name)
	}
	return nil
}

// manifestPath returns where the named archive's manifest persists: empty
// when persistence is off and archives live on the cluster replicas only.
func (g *Gateway) manifestPath(name string) string {
	if g.cfg.ManifestPath != nil {
		return g.cfg.ManifestPath(name)
	}
	if g.cfg.Root == "" {
		return ""
	}
	return filepath.Join(g.cfg.Root, name+".json")
}

// open returns the resident state for name, loading it on first use: from
// the root's manifest when its clean mark says it is whole, else from the
// nodes (Close then caches it under the root, which is how `attach`
// recovers a lost manifest file). Concurrent opens of the same name share
// one load.
func (g *Gateway) open(ctx context.Context, name string) (*archiveState, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	for {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return nil, ErrClosed
		}
		st, ok := g.archives[name]
		if !ok {
			st = newArchiveState(name)
			g.archives[name] = st
		}
		g.mu.Unlock()
		if !ok {
			st.archive, st.err = g.load(ctx, st)
			if st.err != nil {
				g.mu.Lock()
				delete(g.archives, name)
				g.mu.Unlock()
			}
			close(st.ready)
		}
		select {
		case <-st.ready:
		case <-ctx.Done():
			return nil, fmt.Errorf("gateway: opening archive %q: %w", name, context.Cause(ctx))
		}
		if st.err == nil {
			return st, nil
		}
		// A load cut short by its loader's context says nothing about the
		// archive: a waiter whose own context is live loads again (failed
		// loads are evicted, so the next round starts a fresh one).
		if ok && ctx.Err() == nil && (errors.Is(st.err, context.Canceled) || errors.Is(st.err, context.DeadlineExceeded)) {
			continue
		}
		return nil, st.err
	}
}

// load performs the actual open-by-name.
func (g *Gateway) load(ctx context.Context, st *archiveState) (*core.Archive, error) {
	name := st.name
	st.meta.fs, st.meta.path = g.cfg.fs, g.manifestPath(name)
	from := "manifest " + st.meta.path
	cached, err := st.meta.read(name)
	if err != nil {
		return nil, fmt.Errorf("gateway: opening archive %q from %s: %w", name, from, err)
	}
	archive, err := core.OpenContext(ctx, name, g.cfg.Cluster, cached)
	switch {
	case err == nil:
		return archive, nil
	case cached != nil: // the root's snapshot failed to open
	case errors.Is(err, store.ErrNotFound):
		return nil, fmt.Errorf("gateway: unknown archive %q: %w", name, err)
	default:
		from = "its cluster manifest"
	}
	return nil, fmt.Errorf("gateway: opening archive %q from %s: %w", name, from, err)
}

// publish makes a change to the chain durable and then frees what it
// superseded, in the crash-safe order: publish the change's record (and a
// fold) on n-k+1 nodes (closing: then cache the manifest under the root),
// and only then reclaim the superseded codewords. A publish that fails
// returns err and reclaims nothing. It is the archive's only path to a
// delete. A reclaim cut short is reported apart from err: the chain is
// safe, and what is left stays queued for the next publish.
func (g *Gateway) publish(ctx context.Context, st *archiveState, closing bool) (deleted, orphans int, reclaimErr, err error) {
	persisted := obs.Start(ctx, "persist")
	err = st.meta.publish(ctx, st.archive, closing)
	persisted.End()
	if err != nil {
		return 0, 0, nil, err
	}
	deleted, orphans, reclaimErr = st.archive.ReclaimSupersededContext(ctx)
	return deleted, orphans, reclaimErr, nil
}

// admit opens the named archive and, for a writer, takes its writer slot,
// counting a full queue as a busy rejection, and publishes before the writer
// stores anything, which pays a fold the archive owes: while that fold
// cannot reach n-k+1 nodes, the writer is refused with its error. The caller
// must call release when done (for a reader it does nothing).
func (g *Gateway) admit(ctx context.Context, name string, writer bool) (st *archiveState, release func(), err error) {
	st, err = g.open(ctx, name)
	if err != nil || !writer {
		return st, func() {}, err
	}
	admitted := obs.Start(ctx, "admission")
	err = st.acquire(ctx, g.cfg.MaxQueuedWriters)
	admitted.End()
	if err != nil {
		if errors.Is(err, store.ErrBusy) {
			g.busy.Add(1)
		}
		return nil, nil, err
	}
	st.meta.mu.Lock()
	owed := !st.meta.cached // under a trusted mark nothing changed: nothing is owed
	st.meta.mu.Unlock()
	if owed {
		if err := st.meta.publish(ctx, st.archive, false); err != nil {
			st.release()
			return nil, nil, err
		}
	}
	return st, st.release, nil
}

// Create builds a fresh archive under the gateway and returns once its
// manifest is on n-k+1 nodes. An archive that already exists (resident, in
// the root, on the nodes, or being created concurrently) is a typed
// store.ErrConflict rejection; the name is free only when every node
// answers that it holds no snapshot of it, so a create while a node is down
// fails with that node's error.
func (g *Gateway) Create(ctx context.Context, name string, spec transport.ArchiveSpec) (transport.ArchiveInfo, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	if err := validName(name); err != nil {
		return transport.ArchiveInfo{}, err
	}
	st, err := func() (*archiveState, error) {
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.closed {
			return nil, ErrClosed
		}
		if _, ok := g.archives[name]; ok {
			return nil, fmt.Errorf("gateway: archive %q already exists: %w", name, store.ErrConflict)
		}
		path := g.manifestPath(name)
		if _, err := g.cfg.fs.Stat(path); path != "" && err == nil {
			return nil, fmt.Errorf("gateway: manifest %s already exists: %w", path, store.ErrConflict)
		}
		st := newArchiveState(name)
		st.meta.fs, st.meta.path = g.cfg.fs, path
		g.archives[name] = st
		return st, nil
	}()
	if err != nil {
		return transport.ArchiveInfo{}, err
	}
	// Concurrent opens of the name wait on ready, as for a load; a failed
	// create leaves the name free again. The nodes know an archive whose
	// session died before its Close, which the root misses.
	st.archive, st.err = core.CreateContext(ctx, name, spec, g.cfg.Cluster)
	if st.err != nil {
		g.mu.Lock()
		delete(g.archives, name)
		g.mu.Unlock()
	}
	close(st.ready)
	if st.err != nil {
		return transport.ArchiveInfo{}, st.err
	}
	return g.info(ctx, st, false), nil
}

// Commit appends object as the archive's next version, serialized against
// every other writer of the same archive. expect >= 0 demands the archive
// currently hold exactly expect versions (optimistic concurrency); a
// stale expectation is a typed store.ErrConflict rejection. The manifest
// is persisted before superseded codewords are reclaimed (see publish);
// the reply counts what the reclaim freed and what it left orphaned.
func (g *Gateway) Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, release, err := g.admit(ctx, name, true)
	if err != nil {
		return core.CommitInfo{}, err
	}
	defer release()
	if expect >= 0 {
		if v := st.archive.Versions(); v != expect {
			g.conflicts.Add(1)
			return core.CommitInfo{}, fmt.Errorf("gateway: archive %q has %d versions, commit expected %d: %w", name, v, expect, store.ErrConflict)
		}
	}
	info, err := st.archive.CommitContext(ctx, object)
	if info.Version == 0 {
		return info, err // nothing was stored; the manifest is unchanged
	}
	// The commit is stored even when err is non-nil (a failed
	// auto-compaction reports the committed version alongside the error),
	// so it is published either way.
	var perr error
	info.ReclaimedShards, info.OrphanShards, _, perr = g.publish(ctx, st, false)
	if err = errors.Join(err, perr); err != nil {
		return info, err
	}
	g.commits.Add(1)
	return info, nil
}

// openVersion opens the named archive and maps the wire's "0 = latest" onto
// a concrete version of it.
func (g *Gateway) openVersion(ctx context.Context, name string, version int) (*archiveState, int, error) {
	st, err := g.open(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	latest := st.archive.Versions()
	if version == 0 {
		version = latest
	}
	if version < 1 || version > latest {
		return nil, 0, fmt.Errorf("gateway: archive %q has %d versions, not version %d: %w", name, latest, version, store.ErrNotFound)
	}
	return st, version, nil
}

// Retrieve decodes one version (0 = the latest at request time). All
// clients share the archive's decoded-version read cache. The object comes
// back as Parts, the decoded blocks themselves, read-only: the server
// writes them into its reply, and secclient.Embed joins them into the
// caller's copy. Blocks the cache does not keep are lent: Release gives
// them back once the reply is written or joined.
func (g *Gateway) Retrieve(ctx context.Context, name string, version int) (transport.ArchiveVersion, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, v, err := g.openVersion(ctx, name, version)
	if err != nil {
		return transport.ArchiveVersion{}, err
	}
	parts, release, stats, err := st.archive.RetrievePartsContext(ctx, v)
	if err != nil {
		return transport.ArchiveVersion{}, err
	}
	g.retrieves.Add(1)
	return transport.ArchiveVersion{Version: v, Parts: parts, Release: release, Stats: stats}, nil
}

// RetrieveAll decodes versions 1..version (0 = through the latest).
func (g *Gateway) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, v, err := g.openVersion(ctx, name, version)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	versions, stats, err := st.archive.RetrieveAllContext(ctx, v)
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	g.retrieves.Add(1)
	return versions, stats, nil
}

// Log returns the archive's version history with per-version chain costs.
func (g *Gateway) Log(ctx context.Context, name string) ([]transport.ArchiveLogEntry, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, err := g.open(ctx, name)
	if err != nil {
		return nil, err
	}
	m := st.archive.Manifest()
	depths, planned, err := st.archive.ChainStats()
	if err != nil {
		return nil, err
	}
	entries := make([]transport.ArchiveLogEntry, len(m.Entries))
	for i, e := range m.Entries {
		entries[i] = transport.ArchiveLogEntry{ManifestEntry: e, ChainDepth: depths[i], PlannedReads: planned[i]}
	}
	g.logs.Add(1)
	return entries, nil
}

// info snapshots one archive. ping says whether to ask every cluster node
// whether it is up right now (one concurrent round of Cluster.Available, not
// one after another): an operator reading Info wants the nodes' word for it,
// not what the read path remembers of them.
func (g *Gateway) info(ctx context.Context, st *archiveState, ping bool) transport.ArchiveInfo {
	info := transport.ArchiveInfo{
		Manifest:      st.archive.Manifest(),
		Versions:      st.archive.Versions(),
		Capacity:      st.archive.Capacity(),
		QueuedWriters: st.queuedWriters(),
	}
	if cache, ok := st.archive.ReadCacheStats(); ok {
		info.Cache = &cache
	}
	health := g.cfg.Cluster.Health()
	info.Nodes = make([]transport.ArchiveNodeStatus, len(health))
	var wg sync.WaitGroup
	for i, h := range health {
		info.Nodes[i] = transport.ArchiveNodeStatus{Health: h, Up: !ping}
		if ping {
			wg.Add(1)
			go func(status *transport.ArchiveNodeStatus) {
				defer wg.Done()
				status.Up = g.cfg.Cluster.Available(ctx, status.Health.Node)
			}(&info.Nodes[i])
		}
	}
	wg.Wait()
	return info
}

// Info describes the archive and probes the cluster's nodes.
func (g *Gateway) Info(ctx context.Context, name string) (transport.ArchiveInfo, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, err := g.open(ctx, name)
	if err != nil {
		return transport.ArchiveInfo{}, err
	}
	g.infos.Add(1)
	return g.info(ctx, st, true), nil
}

// Compact bounds the archive's chain depth to maxChain (0 = the archive's
// configured MaxChainLength), holding the writer slot for the duration.
// The pass only queues what it supersedes; the publish after it persists
// the new manifest and only then reclaims. A pass that changed nothing is
// published too, which retries the orphans earlier reclaims left.
func (g *Gateway) Compact(ctx context.Context, name string, maxChain int) (transport.CompactReport, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, release, err := g.admit(ctx, name, true)
	if err != nil {
		return transport.CompactReport{}, err
	}
	defer release()
	if maxChain <= 0 {
		maxChain = st.archive.Config().MaxChainLength
	}
	if maxChain <= 0 {
		return transport.CompactReport{}, fmt.Errorf("gateway: archive %q has no MaxChainLength configured and no bound was given: %w", name, store.ErrConflict)
	}
	info, err := st.archive.CompactToContext(ctx, maxChain)
	if err != nil {
		return transport.CompactReport{}, err
	}
	report := transport.CompactReport{Info: info}
	var reclaimErr error
	report.Deleted, report.Orphans, reclaimErr, err = g.publish(ctx, st, false)
	if err != nil {
		return report, err // not persisted: the pass does not count
	}
	g.compactions.Add(1)
	return report, reclaimErr
}

// Scrub verifies every stored shard; repair additionally rewrites damage,
// holding the writer slot so repairs never race a commit.
func (g *Gateway) Scrub(ctx context.Context, name string, repair bool) (core.ScrubReport, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, release, err := g.admit(ctx, name, repair)
	if err != nil {
		return core.ScrubReport{}, err
	}
	defer release()
	report, err := st.archive.ScrubContext(ctx, repair)
	if err == nil {
		g.scrubs.Add(1)
	}
	return report, err
}

// Repair reconstructs the archive's shards on one cluster node, holding
// the writer slot so rebuilt shards never race a commit, and then publishes
// the fold the repair owes: the snapshot goes back to its n-k+1 ring nodes,
// the replaced node among them, and replaces the records only the old node
// may have held a copy of.
func (g *Gateway) Repair(ctx context.Context, name string, node int) (core.RepairReport, error) {
	ctx = obs.RecordInto(ctx, &g.spans)
	st, release, err := g.admit(ctx, name, true)
	if err != nil {
		return core.RepairReport{}, err
	}
	defer release()
	report, err := st.archive.RepairNodeContext(ctx, node)
	if err != nil {
		return report, err
	}
	if _, _, _, err := g.publish(ctx, st, false); err != nil {
		return report, err
	}
	g.repairs.Add(1)
	return report, nil
}

// Close drains the gateway: no new operations are admitted, and every
// resident archive ends with a publish that folds its records into a
// snapshot on the nodes, then caches that snapshot and its clean mark under
// the root, and then reclaims what is still queued. An archive whose fold
// does not reach n-k+1 nodes gets nothing under the root, and one that
// changed nothing since an open that trusted the root is left as it is.
// It is best effort across archives: the first error is returned after all
// are attempted, and an archive still loading when ctx ends is skipped,
// after every resident one, with ctx's cause as its error. The caller is
// responsible for draining in-flight requests first (transport's
// Server.Shutdown does that for served gateways). ctx bounds the node
// writes.
func (g *Gateway) Close(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	states := make([]*archiveState, 0, len(g.archives))
	var loading []*archiveState
	for _, st := range g.archives {
		select {
		case <-st.ready:
			states = append(states, st)
		default:
			loading = append(loading, st)
		}
	}
	g.mu.Unlock()
	var firstErr error
	// Resident archives go first: only the wait for a load still running
	// respects ctx's deadline, and giving up on one skips only it.
	for _, st := range append(states, loading...) {
		select {
		case <-st.ready:
		default:
			select {
			case <-st.ready:
			case <-ctx.Done():
				if firstErr == nil {
					firstErr = context.Cause(ctx)
				}
				continue
			}
		}
		if st.err != nil {
			continue
		}
		if _, _, _, err := g.publish(ctx, st, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// The gateway is the canonical ArchiveBackend implementation.
var _ transport.ArchiveBackend = (*Gateway)(nil)
