package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
)

// testSpec is a small (6,4) archive shape every test shares.
func testSpec() transport.ArchiveSpec {
	return transport.ArchiveSpec{N: 6, K: 4, BlockSize: 8}
}

// payloadFor builds a deterministic capacity-sized object for a version.
func payloadFor(capacity, version int) []byte {
	p := make([]byte, capacity)
	for i := range p {
		p[i] = byte(i*31 + version*7 + 1)
	}
	return p
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	// Every embedded-gateway test also asserts leak-free teardown; the
	// check is registered before the gateway's own cleanup so it runs
	// after it (t.Cleanup is LIFO).
	testutil.CheckGoroutineLeaks(t)
	if cfg.Cluster == nil {
		cfg.Cluster = store.NewMemCluster(6)
	}
	if cfg.Root == "" && cfg.ManifestPath == nil {
		cfg.Root = t.TempDir()
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	return g
}

func TestGatewayCreateCommitRetrieve(t *testing.T) {
	g := newTestGateway(t, Config{})
	ctx := t.Context()
	info, err := g.Create(ctx, "logs", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Name != "logs" || info.Capacity != 32 || info.Versions != 0 {
		t.Fatalf("Create info = %+v", info)
	}
	for v := 1; v <= 3; v++ {
		ci, err := g.Commit(ctx, "logs", -1, payloadFor(32, v))
		if err != nil {
			t.Fatal(err)
		}
		if ci.Version != v {
			t.Fatalf("commit %d assigned version %d", v, ci.Version)
		}
	}
	for v := 1; v <= 3; v++ {
		got, err := g.Retrieve(ctx, "logs", v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != v || !bytes.Equal(bytes.Join(got.Parts, nil), payloadFor(32, v)) {
			t.Errorf("version %d mismatch", v)
		}
	}
	latest, err := g.Retrieve(ctx, "logs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 3 {
		t.Errorf("latest = v%d, want v3", latest.Version)
	}
	all, _, err := g.RetrieveAll(ctx, "logs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || !bytes.Equal(all[0], payloadFor(32, 1)) {
		t.Errorf("RetrieveAll returned %d versions", len(all))
	}
	entries, err := g.Log(ctx, "logs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Version != 1 || !entries[0].Full || entries[2].ChainDepth != 2 {
		t.Errorf("Log = %+v", entries)
	}
	ai, err := g.Info(ctx, "logs")
	if err != nil {
		t.Fatal(err)
	}
	if ai.Versions != 3 || len(ai.Nodes) != 6 {
		t.Errorf("Info = versions %d, %d nodes", ai.Versions, len(ai.Nodes))
	}
	for i, n := range ai.Nodes {
		if !n.Up {
			t.Errorf("node %d reported down", i)
		}
	}
	st := g.Stats()
	if st.Commits != 3 || st.ArchivesOpen != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestGatewayRetrieveReadsWhatCoreReads is the gateway parity gate as a
// count: serving a retrieve adds no node traffic. Every version of a
// sparse-delta chain costs the same node reads - in the retrieval's own
// accounting and in get calls seen by the nodes - through Gateway.Retrieve
// as through a core.Archive opened on the same chain.
func TestGatewayRetrieveReadsWhatCoreReads(t *testing.T) {
	cluster := store.NewMemCluster(6)
	g := newTestGateway(t, Config{Cluster: cluster})
	ctx := t.Context()
	if _, err := g.Create(ctx, "chain", testSpec()); err != nil {
		t.Fatal(err)
	}
	object := payloadFor(32, 1)
	for v := 1; v <= 5; v++ {
		if v > 1 {
			object = bytes.Clone(object)
			object[(v%4)*8] ^= 0xFF // one block of the four
		}
		if _, err := g.Commit(ctx, "chain", -1, object); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := core.LoadFromClusterContext(ctx, "chain", cluster)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		cluster.ResetStats()
		served, err := g.Retrieve(ctx, "chain", v)
		if err != nil {
			t.Fatal(err)
		}
		servedGets := cluster.TotalStats().Reads
		cluster.ResetStats()
		data, stats, err := direct.RetrieveContext(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		directGets := cluster.TotalStats().Reads
		if !bytes.Equal(bytes.Join(served.Parts, nil), data) {
			t.Errorf("v%d: gateway and core decode different bytes", v)
		}
		if served.Stats.NodeReads != stats.NodeReads || served.Stats.SparseReads != stats.SparseReads || stats.SparseReads != v-1 {
			t.Errorf("v%d: gateway accounts %d node reads (%d sparse), core %d (%d sparse): want equal, one sparse read per delta",
				v, served.Stats.NodeReads, served.Stats.SparseReads, stats.NodeReads, stats.SparseReads)
		}
		if servedGets != directGets || servedGets == 0 {
			t.Errorf("v%d: nodes served %d gets through the gateway, %d to core: the gateway is amplifying node traffic", v, servedGets, directGets)
		}
	}
}

func TestGatewayCreateConflicts(t *testing.T) {
	g := newTestGateway(t, Config{})
	if _, err := g.Create(t.Context(), "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create(t.Context(), "a", testSpec()); !errors.Is(err, store.ErrConflict) {
		t.Errorf("duplicate create: err = %v, want ErrConflict", err)
	}
	for _, name := range []string{"", "a/b", `a\b`, ".hidden"} {
		if _, err := g.Create(t.Context(), name, testSpec()); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestGatewayCommitPrecondition(t *testing.T) {
	g := newTestGateway(t, Config{})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(ctx, "a", 0, payloadFor(32, 1)); err != nil {
		t.Fatal(err)
	}
	// Stale expectation: the archive now has 1 version, not 0.
	if _, err := g.Commit(ctx, "a", 0, payloadFor(32, 2)); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("stale expect: err = %v, want ErrConflict", err)
	}
	if got := g.Stats().Conflicts; got != 1 {
		t.Errorf("Conflicts = %d, want 1", got)
	}
	if g.Stats().Commits != 1 {
		t.Errorf("Commits = %d, want 1", g.Stats().Commits)
	}
}

func TestGatewayBusyRejection(t *testing.T) {
	g := newTestGateway(t, Config{MaxQueuedWriters: 1})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := g.open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only writer slot; the next commit must be rejected, typed,
	// without waiting.
	if err := st.acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(ctx, "a", -1, payloadFor(32, 1)); !errors.Is(err, store.ErrBusy) {
		t.Fatalf("full queue: err = %v, want ErrBusy", err)
	}
	if got := g.Stats().BusyRejections; got != 1 {
		t.Errorf("BusyRejections = %d, want 1", got)
	}
	st.release()
	if _, err := g.Commit(ctx, "a", -1, payloadFor(32, 1)); err != nil {
		t.Fatalf("commit after release: %v", err)
	}
}

func TestGatewayAcquireHonorsContext(t *testing.T) {
	g := newTestGateway(t, Config{})
	if _, err := g.Create(t.Context(), "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := g.open(t.Context(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.acquire(t.Context(), 8); err != nil {
		t.Fatal(err)
	}
	defer st.release()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if err := st.acquire(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: err = %v, want context.Canceled", err)
	}
	if got := st.queuedWriters(); got != 1 {
		t.Errorf("queuedWriters = %d after cancelled wait, want 1", got)
	}
}

func TestGatewayPersistenceAcrossRestart(t *testing.T) {
	root := t.TempDir()
	cluster := store.NewMemCluster(6)
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	want := payloadFor(32, 1)
	if _, err := g.Commit(ctx, "a", -1, want); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(ctx, "a", -1, want); !errors.Is(err, ErrClosed) {
		t.Errorf("commit after close: err = %v, want ErrClosed", err)
	}

	// A fresh gateway over the same root and cluster reopens the archive
	// from its persisted manifest.
	g2 := newTestGateway(t, Config{Cluster: cluster, Root: root})
	got, err := g2.Retrieve(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(got.Parts, nil), want) {
		t.Error("restarted gateway served different bytes")
	}
	if err := g2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Losing the local manifest falls back to the cluster-replicated copy
	// (attach), which Close then caches locally.
	path := filepath.Join(root, "a.json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	g3 := newTestGateway(t, Config{Cluster: cluster, Root: root})
	got, err = g3.Retrieve(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(got.Parts, nil), want) {
		t.Error("cluster-recovered gateway served different bytes")
	}
	if err := g3.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("recovered manifest not re-persisted locally: %v", err)
	}
}

func TestGatewayUnknownArchiveAndVersion(t *testing.T) {
	g := newTestGateway(t, Config{})
	ctx := t.Context()
	if _, err := g.Retrieve(ctx, "nope", 1); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown archive: err = %v, want ErrNotFound", err)
	}
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(ctx, "a", -1, payloadFor(32, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Retrieve(ctx, "a", 2); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown version: err = %v, want ErrNotFound", err)
	}
	if _, err := g.Retrieve(ctx, "a", -1); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("negative version: err = %v, want ErrNotFound", err)
	}
	// A failed open must not leave a poisoned entry: creating the name
	// afterwards succeeds.
	if _, err := g.Create(ctx, "nope", testSpec()); err != nil {
		t.Errorf("create after failed open: %v", err)
	}
}

func TestGatewayMaintenanceOps(t *testing.T) {
	c := newChaosRig(t)
	g := newTestGateway(t, Config{Cluster: c.cluster})
	ctx := t.Context()
	spec := testSpec()
	spec.MaxChainLength = 2
	if _, err := g.Create(ctx, "a", spec); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		if _, err := g.Commit(ctx, "a", -1, payloadFor(32, v)); err != nil {
			t.Fatal(err)
		}
	}
	report, err := g.Compact(ctx, "a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Info.MaxChainLength != 2 {
		t.Errorf("Compact report = %+v", report)
	}
	if got := g.Stats().Compactions; got != 1 {
		t.Errorf("Compactions = %d after one pass, want 1", got)
	}
	// A pass whose manifest persist fails is not a successful compaction:
	// the counter must not move.
	c.refuse(0, 1, 2, 3, 4, 5)
	if report, err := g.Compact(ctx, "a", 1); err == nil || !report.Info.Changed() {
		t.Fatalf("compact with no node taking manifest puts: report %+v, err %v; want a changed chain and a persist error", report, err)
	}
	if got := g.Stats().Compactions; got != 1 {
		t.Errorf("Compactions = %d after a pass that failed to persist, want 1", got)
	}
	c.refuse()
	sr, err := g.Scrub(ctx, "a", false)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ShardsChecked == 0 {
		t.Error("scrub checked no shards")
	}
	if _, err := g.Repair(ctx, "a", 0); err != nil {
		t.Fatal(err)
	}
	// All five versions still decode after maintenance.
	for v := 1; v <= 5; v++ {
		got, err := g.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), payloadFor(32, v)) {
			t.Errorf("version %d mismatch after compact+scrub+repair", v)
		}
	}
}

func TestGatewayCompactNeedsBound(t *testing.T) {
	g := newTestGateway(t, Config{})
	if _, err := g.Create(t.Context(), "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Compact(t.Context(), "a", 0); !errors.Is(err, store.ErrConflict) {
		t.Errorf("unbounded compact: err = %v, want ErrConflict", err)
	}
}

// keepNode refuses every delete while keep is set, taking everything else.
type keepNode struct {
	*store.MemNode
	keep *atomic.Bool
}

func (n keepNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	if !n.keep.Load() {
		return n.MemNode.DeleteBatch(ctx, ids)
	}
	errs := make([]error, len(ids))
	for i := range errs {
		errs[i] = store.ErrNodeDown
	}
	return errs
}

// TestGatewayReclaimsAfterEveryPublish: the publish that ends a commit,
// a compaction and Close frees what the archive queued. A Reversed SEC
// commit reports the old tip's full as reclaimed, or orphaned where a node
// refuses deletes; a compaction that rewrites nothing still retries the
// orphan, and Close reclaims what is left.
func TestGatewayReclaimsAfterEveryPublish(t *testing.T) {
	keep := &atomic.Bool{}
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = store.NewMemNode(fmt.Sprintf("mem-%d", i))
	}
	node0 := nodes[0].(*store.MemNode)
	nodes[0] = keepNode{MemNode: node0, keep: keep}
	g := newTestGateway(t, Config{Cluster: store.NewCluster(nodes)})
	ctx := t.Context()
	spec := testSpec()
	spec.Scheme = "reversed-sec"
	if _, err := g.Create(ctx, "a", spec); err != nil {
		t.Fatal(err)
	}
	commit := func(v, reclaimed, orphans int) {
		t.Helper()
		info, err := g.Commit(ctx, "a", -1, payloadFor(32, v))
		if err != nil {
			t.Fatal(err)
		}
		if info.ReclaimedShards != reclaimed || info.OrphanShards != orphans {
			t.Errorf("commit %d reclaimed %d orphaned %d shards, want %d/%d", v, info.ReclaimedShards, info.OrphanShards, reclaimed, orphans)
		}
	}
	held := func(id string) bool {
		_, err := node0.Get(ctx, store.ShardID{Object: id})
		return err == nil
	}
	commit(1, 0, 0)
	commit(2, 6, 0)
	keep.Store(true)
	commit(3, 5, 1)
	keep.Store(false)
	report, err := g.Compact(ctx, "a", 8)
	// The retry deletes v2's full whole again; rows already gone count as deleted.
	if err != nil || report.Info.Changed() || report.Deleted != 6 || report.Orphans != 0 {
		t.Fatalf("compact with nothing to rewrite: %+v, %v; want v2's full confirmed gone", report, err)
	}
	if held("a/v2-full") {
		t.Error("node 0 still holds v2's full after the compaction's reclaim")
	}
	keep.Store(true)
	commit(4, 5, 1)
	keep.Store(false)
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if held("a/v3-full") {
		t.Error("node 0 still holds v3's full after Close")
	}
}

// manifestBlock parks one read on a cluster of blockedNodes: once armed, the
// next read parks until its own context ends, signalling when it is parked;
// every other read passes through.
type manifestBlock struct {
	armed  atomic.Bool
	parked chan struct{}
}

type blockedNode struct {
	store.Node
	block *manifestBlock
}

func (n blockedNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if n.block.armed.CompareAndSwap(true, false) {
		close(n.block.parked)
		<-ctx.Done()
	}
	return n.Node.GetBatch(ctx, ids)
}

// selectSignal is a context that reports the first time anyone asks for its
// Done channel: in Gateway.open that is a waiter entering its wait for
// another caller's load.
type selectSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *selectSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestGatewayOpenWaiterSurvivesLoadersCancellation: an archive known only
// from its cluster manifest is opened by two callers at once. The first
// runs the load and is cancelled in the middle of it; the second, waiting
// on that load with a live context, must still get the archive - not the
// loader's cancellation dressed up as "unknown archive".
func TestGatewayOpenWaiterSurvivesLoadersCancellation(t *testing.T) {
	block := &manifestBlock{parked: make(chan struct{})}
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = blockedNode{Node: store.NewMemNode(fmt.Sprintf("mem-%d", i)), block: block}
	}
	cluster := store.NewCluster(nodes)
	writer := newTestGateway(t, Config{Cluster: cluster})
	if _, err := writer.Create(t.Context(), "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	want := payloadFor(32, 1)
	if _, err := writer.Commit(t.Context(), "a", -1, want); err != nil {
		t.Fatal(err)
	}

	// A second gateway has its own, empty manifest root: it knows the
	// archive only from the manifest replicas on the cluster.
	g := newTestGateway(t, Config{Cluster: cluster})
	block.armed.Store(true)
	loaderCtx, cancelLoader := context.WithCancel(t.Context())
	loaderErr := make(chan error, 1)
	go func() {
		_, err := g.Retrieve(loaderCtx, "a", 1)
		loaderErr <- err
	}()
	<-block.parked // the loader is inside the cluster load
	waiterCtx := &selectSignal{Context: t.Context(), waiting: make(chan struct{})}
	type result struct {
		v   transport.ArchiveVersion
		err error
	}
	waiterDone := make(chan result, 1)
	go func() {
		v, err := g.Retrieve(waiterCtx, "a", 1)
		waiterDone <- result{v, err}
	}()
	<-waiterCtx.waiting // the waiter is waiting on the loader's load
	cancelLoader()
	if err := <-loaderErr; !errors.Is(err, context.Canceled) || errors.Is(err, store.ErrNotFound) {
		t.Errorf("cancelled loader: err = %v, want its own cancellation and not ErrNotFound", err)
	}
	got := <-waiterDone
	if got.err != nil {
		t.Fatalf("waiter with a live context: %v", got.err)
	}
	if !bytes.Equal(bytes.Join(got.v.Parts, nil), want) {
		t.Error("waiter was served different bytes")
	}
}

// TestGatewayCloseFoldsEveryArchivePastAStuckLoad: Close gives up on a
// cluster load that outlives its deadline, reports the deadline, and still
// folds every resident archive and caches it under the root with its clean
// mark, whichever map order it walks.
func TestGatewayCloseFoldsEveryArchivePastAStuckLoad(t *testing.T) {
	block := &manifestBlock{parked: make(chan struct{})}
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = blockedNode{Node: store.NewMemNode(fmt.Sprintf("mem-%d", i)), block: block}
	}
	cluster := store.NewCluster(nodes)
	writer := newTestGateway(t, Config{Cluster: cluster})
	if _, err := writer.Create(t.Context(), "stuck", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit(t.Context(), "stuck", -1, payloadFor(32, 1)); err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("a%02d", i)
		if _, err := g.Create(t.Context(), names[i], testSpec()); err != nil {
			t.Fatal(err)
		}
		// The first commit folds the create's snapshot; the second is a
		// record on the nodes beyond it.
		for v := 1; v <= 2; v++ {
			if _, err := g.Commit(t.Context(), names[i], -1, payloadFor(32, v)); err != nil {
				t.Fatal(err)
			}
		}
		if st := resident(t, g, names[i]); foldedAt(st) == st.archive.Manifest().Generation {
			t.Fatalf("%s holds no record beyond its fold before Close", names[i])
		}
	}

	block.armed.Store(true)
	loadCtx, cancelLoad := context.WithCancel(t.Context())
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		_, _ = g.Retrieve(loadCtx, "stuck", 1)
	}()
	<-block.parked // the load of "stuck" is inside the cluster read
	// The deadline bounds the resident archives' folds on the nodes too,
	// which Close runs first: ample for sixteen under the race detector.
	ctx, cancel := context.WithTimeout(t.Context(), time.Second)
	defer cancel()
	if err := g.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Close past a stuck load: err = %v, want the deadline", err)
	}
	cancelLoad()
	<-loadDone
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(root, name+".json")); err != nil {
			t.Errorf("%s: no manifest after Close: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(root, name+".json.clean")); err != nil {
			t.Errorf("%s: no clean mark after Close: %v", name, err)
		}
	}
}

// TestGatewayOpenAllNodesDownIsNotUnknownArchive: with every node down the
// gateway cannot know whether the archive exists, and must say so.
func TestGatewayOpenAllNodesDownIsNotUnknownArchive(t *testing.T) {
	cluster := store.NewMemCluster(6)
	g := newTestGateway(t, Config{Cluster: cluster})
	if err := cluster.Fail(0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	_, err := g.Retrieve(t.Context(), "a", 1)
	if !errors.Is(err, store.ErrNodeDown) || errors.Is(err, store.ErrNotFound) {
		t.Errorf("all nodes down: err = %v, want ErrNodeDown and not ErrNotFound", err)
	}
}
