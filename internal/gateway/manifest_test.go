package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
)

// resident opens the named archive on g and returns its state.
func resident(t *testing.T, g *Gateway, name string) *archiveState {
	t.Helper()
	st, err := g.open(t.Context(), name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// foldedAt returns the generation of the snapshot the archive's last fold
// put on the nodes: a publish that moves it folded.
func foldedAt(st *archiveState) uint64 {
	st.meta.mu.Lock()
	defer st.meta.mu.Unlock()
	return st.meta.folded
}

// recordsOn sums the manifest records of generations up to gen resident on
// a node, walking down from the latest until one is missing.
func recordsOn(ctx context.Context, node store.Node, name string, gen uint64) (count int, size int) {
	for ; gen >= 1; gen-- {
		data, err := node.Get(ctx, store.ShardID{Object: fmt.Sprintf("%s/manifest/%d", name, gen)})
		if err != nil {
			break
		}
		count++
		size += len(data)
	}
	return count, size
}

// TestPublishWritesOneRecord is the O(1) claim as deterministic counts, on
// the benchmark's shape ((12,10), 40 KiB objects, sparse edits): what a
// non-folding publish writes does not grow with the chain, the whole
// 1 000-commit chain costs under two bytes written per byte committed
// (20.1 when every publish shipped the whole manifest to every node), the
// folds that keep the records few are logarithmically many, and the records
// resident on a node never outweigh the snapshot they extend.
func TestPublishWritesOneRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 1 000 versions of 40 KiB")
	}
	const (
		n, k, blockSize = 12, 10, 4096
		commits         = 1000
	)
	cluster := store.NewMemCluster(n)
	g := newTestGateway(t, Config{Cluster: cluster})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", transport.ArchiveSpec{N: n, K: k, BlockSize: blockSize}); err != nil {
		t.Fatal(err)
	}
	st := resident(t, g, "a")
	holder, err := cluster.Node(st.archive.ManifestRing(0)[0]) // holds every snapshot
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, k*blockSize)
	gammas := []int{1, 1, 2, 1, 3}
	var (
		committed, folds int
		publishBytes     = map[int]int64{} // chain length -> metadata bytes of a non-folding publish
	)
	for v := 1; v <= commits; v++ {
		for b := 0; b < gammas[v%len(gammas)]; b++ {
			object[((v+b)%k)*blockSize+v%blockSize] ^= byte(v) | 1
		}
		before, folded := cluster.WireStats().BytesWritten, foldedAt(st)
		info, err := g.Commit(ctx, "a", -1, object)
		if err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
		committed += len(object)
		// A delta's shards are its window wide, a full codeword's a block.
		if info.StoredFull && info.StoredDelta {
			t.Fatalf("commit %d stored a full and a delta codeword", v)
		}
		width := blockSize
		if w := st.archive.Manifest().Entries[info.Version-1].Window; info.StoredDelta && w != nil {
			width = w.Width
		}
		metadata := int64(cluster.WireStats().BytesWritten-before) - int64(info.ShardWrites*width)
		if metadata <= 0 {
			t.Fatalf("commit %d: %d metadata bytes written beside its %d shards of %d bytes", v, metadata, info.ShardWrites, width)
		}
		if foldedAt(st) == folded {
			publishBytes[v] = metadata
		} else {
			folds++
		}
		// Between folds the records on a node stay below the snapshot there.
		snap, err := holder.Get(ctx, store.ShardID{Object: "a/manifest"})
		if err != nil {
			t.Fatalf("after commit %d: no snapshot on its first ring node: %v", v, err)
		}
		if _, size := recordsOn(ctx, holder, "a", st.archive.Manifest().Generation); size > len(snap) {
			t.Fatalf("after commit %d: %d bytes of records on the snapshot's first ring node extend a %d-byte snapshot", v, size, len(snap))
		}
	}
	at := func(length int) int64 {
		for ; length <= commits; length++ {
			if b, ok := publishBytes[length]; ok {
				return b
			}
		}
		t.Fatal("no non-folding publish found")
		return 0
	}
	if early, late := at(10), at(900); late == 0 || float64(late) > 1.5*float64(early) {
		t.Errorf("a non-folding publish writes %d metadata bytes at L~900, %d at L~10: want at most 1.5x", late, early)
	}
	written := cluster.WireStats().BytesWritten
	if amp := float64(written) / float64(committed); amp > 2.0 {
		t.Errorf("%d bytes written for %d committed: %.2f B/B, want <= 2.0", written, committed, amp)
	}
	if limit := 4 * int(math.Log2(commits)); folds < 2 || folds > limit {
		t.Errorf("%d folds over %d commits, want a logarithmic number (2..%d)", folds, commits, limit)
	}
}

// startRemoteNodes serves n empty memory nodes on loopback TCP and returns
// a cluster dialling them plus the servers, for RPC accounting.
func startRemoteNodes(t *testing.T, n int) (*store.Cluster, []*transport.Server) {
	t.Helper()
	nodes := make([]store.Node, n)
	servers := make([]*transport.Server, n)
	for i := range nodes {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		remote := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String(), transport.WithTimeout(5*time.Second))
		t.Cleanup(func() { _ = remote.Close() })
		nodes[i], servers[i] = remote, srv
	}
	return store.NewCluster(nodes), servers
}

// TestPublishOneBatchRoundPerNode is the round-trip contract over real TCP
// nodes: a commit is one put-batch RPC per node for its shards and one per
// record holder - n-k+1 = 3 nodes of testSpec's (6,4) - for its record, and
// nothing else (12 when every node took the record); a commit that folds
// adds one put-batch per snapshot holder and one delete-batch (the folded
// records) per node; a load from the cluster is one get-batch per node per
// round, one round for the snapshots and one per window of records.
func TestPublishOneBatchRoundPerNode(t *testing.T) {
	const nodes, holders = 6, 3
	// Registered first, so it runs once the node links and servers (whose
	// cleanups startRemoteNodes registers) and the gateways are gone.
	testutil.CheckGoroutineLeaks(t)
	cluster, servers := startRemoteNodes(t, nodes)
	sum := func() (s transport.RequestStats) {
		for _, srv := range servers {
			r := srv.RequestStats()
			s.PutBatches += r.PutBatches
			s.GetBatches += r.GetBatches
			s.DeleteBatches += r.DeleteBatches
		}
		return s
	}
	g, err := New(Config{Cluster: cluster, Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	st := resident(t, g, "a")
	object := payloadFor(32, 1)
	var folding, plain int
	for v := 1; v <= 12; v++ {
		object = bytes.Clone(object)
		object[(v%4)*8] ^= 0xFF
		before, folded := sum(), foldedAt(st)
		if _, err := g.Commit(ctx, "a", -1, object); err != nil {
			t.Fatal(err)
		}
		after := sum()
		puts, deletes := after.PutBatches-before.PutBatches, after.DeleteBatches-before.DeleteBatches
		wantPuts, wantDeletes := uint64(nodes+holders), uint64(0)
		if foldedAt(st) != folded {
			wantPuts, wantDeletes = nodes+2*holders, nodes
			folding++
		} else {
			plain++
		}
		if puts != wantPuts || deletes != wantDeletes {
			t.Errorf("commit %d: %d put-batch and %d delete-batch RPCs, want %d and %d", v, puts, deletes, wantPuts, wantDeletes)
		}
		if after.GetBatches != before.GetBatches {
			t.Errorf("commit %d: read RPCs on the publish path: %+v", v, after)
		}
	}
	if folding == 0 || plain == 0 {
		t.Fatalf("%d folding and %d non-folding commits: the test needs both", folding, plain)
	}

	// A gateway that knows the archive only from the nodes: one round for
	// the snapshots, one for the (at most one window of) records.
	before := sum()
	g2, err := New(Config{Cluster: cluster, Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g2.Close(context.Background()) })
	if _, err := g2.Log(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	after := sum()
	if rounds := after.GetBatches - before.GetBatches; rounds != 2*nodes {
		t.Errorf("cluster load: %d get-batch RPCs, want %d (two rounds)", rounds, 2*nodes)
	}
	if got, want := resident(t, g2, "a").archive.Manifest(), st.archive.Manifest(); fmt.Sprintf("%+v", got.Entries) != fmt.Sprintf("%+v", want.Entries) {
		t.Errorf("cluster load rebuilt %+v, the writer holds %+v", got.Entries, want.Entries)
	}
}

// TestCleanCloseLeavesPlainJSON: after Close a root holds one JSON manifest
// per archive and its clean mark, the nodes hold no records and the
// snapshot is on its n-k+1 ring nodes and no other, and the manifest is
// what core.Load - the reader every earlier release has - opens.
func TestCleanCloseLeavesPlainJSON(t *testing.T) {
	cluster := store.NewMemCluster(6)
	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	st := resident(t, g, "a")
	holders := st.archive.ManifestRing(0)[:3] // n-k+1 of testSpec's (6,4)
	versions := 0
	for versions < 3 || foldedAt(st) == st.archive.Manifest().Generation {
		versions++
		if _, err := g.Commit(ctx, "a", -1, payloadFor(32, versions)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(root, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || filepath.Base(names[0]) != "a.json" || filepath.Base(names[1]) != "a.json.clean" {
		t.Errorf("root after Close holds %v, want a.json and its mark", names)
	}
	f, err := os.Open(filepath.Join(root, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := core.Load(f, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if a.Versions() != versions {
		t.Errorf("closed manifest holds %d versions, want %d", a.Versions(), versions)
	}
	gen := a.Manifest().Generation
	for i := 0; i < cluster.Size(); i++ {
		node, err := cluster.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		if count, _ := recordsOn(ctx, node, "a", gen); count != 0 {
			t.Errorf("node %d holds %d manifest records after Close", i, count)
		}
		_, err = node.Get(ctx, store.ShardID{Object: "a/manifest"})
		if holds := slices.Contains(holders, i); holds && err != nil {
			t.Errorf("node %d, a snapshot holder, holds no snapshot after Close: %v", i, err)
		} else if !holds && !errors.Is(err, store.ErrNotFound) {
			t.Errorf("node %d, not among the holders %v, answers %v for the snapshot after Close", i, holders, err)
		}
	}
}

// crashRig runs one archive whose gateway root is a recording file system
// (rigRoot) on nodes that can stop the world: when armed with a trigger, the
// first node mutation the trigger matches - or, armed with armRename, the
// first root rename - captures the root and freezes every node against
// further mutations: the process died at that instant, and what the root
// images and the nodes hold is what a restart finds. Armed with armAfter,
// the matched mutations are applied instead, the root is captured after the
// first of them, and the world freezes at the next mutation the trigger does
// not match: the process died right after what the trigger names, on every
// node. The first node of the snapshot's replica ring can also be made to
// lag: it then refuses manifest objects (snapshot, records and their
// deletes) while still taking shards, the way a node that was briefly away
// misses a fold.
type crashRig struct {
	t       *testing.T
	root    *fsys.Recorder
	cluster *store.Cluster
	gw      *Gateway

	mu      sync.Mutex
	trigger func(op string, ids []store.ShardID) bool
	after   bool                   // armAfter: apply the matched mutations, freeze after them
	rename  func(path string) bool // armRename: freeze before the matched root rename
	frozen  bool
	lagging bool
	lag     int // the node that lags: the snapshot ring's first
	// process is the root as the crash left it, in the same boot; power is
	// what a power loss at that instant leaves: only what was synced, in a
	// new boot.
	process, power *fsys.Recorder

	manifestReads atomic.Int64 // get-batches naming manifest objects
	object        []byte
	attempted     [][]byte // every payload handed to Commit, acknowledged or not
	acked         int
}

// rigRoot is the rig's gateway root: a recorder that checks every rename
// against the armed rename trigger first.
type rigRoot struct {
	*fsys.Recorder
	rig *crashRig
}

func (f rigRoot) Rename(oldpath, newpath string) error {
	r := f.rig
	r.mu.Lock()
	if !r.frozen && r.rename != nil && r.rename(newpath) {
		r.capture()
		r.frozen = true
	}
	r.mu.Unlock()
	return f.Recorder.Rename(oldpath, newpath)
}

type crashNode struct {
	*store.MemNode
	rig   *crashRig
	index int
}

// mutate applies one node mutation unless the world is frozen (or the node
// lags and it touches a manifest object), crashing first where the armed
// trigger says.
func (n crashNode) mutate(op string, ids []store.ShardID, apply func() []error) []error {
	r := n.rig
	r.mu.Lock()
	defer r.mu.Unlock()
	matched := !r.frozen && r.trigger != nil && r.trigger(op, ids)
	if matched && !r.after || !matched && r.after && r.process != nil {
		if r.process == nil {
			r.capture()
		}
		r.frozen = true
	}
	if r.frozen || r.lagging && n.index == r.lag && strings.Contains(ids[0].Object, "/manifest") {
		errs := make([]error, len(ids))
		for i := range errs {
			errs[i] = fmt.Errorf("crash rig: %s refused: %w", op, store.ErrNodeDown)
		}
		return errs
	}
	errs := apply()
	if matched && r.process == nil {
		r.capture() // armAfter: the root as it stands once the matched mutation is done
	}
	return errs
}

// capture takes the root images of a crash now. Callers hold r.mu.
func (r *crashRig) capture() {
	r.process, r.power = r.root.Clone(), r.root.Clone()
	r.power.Crash()
	r.power.Restart()
}

func (n crashNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	return n.mutate("put", ids, func() []error { return n.MemNode.PutBatch(ctx, ids, data) })
}

func (n crashNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	return n.mutate("delete", ids, func() []error { return n.MemNode.DeleteBatch(ctx, ids) })
}

func (n crashNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if len(ids) > 0 && strings.Contains(ids[0].Object, "/manifest") {
		n.rig.manifestReads.Add(1)
	}
	return n.MemNode.GetBatch(ctx, ids)
}

// newCrashRig creates archive "a" under the given scheme ("" for the
// default) with auto-compaction on, so publishes carry rebases and reclaims
// as well as appends.
func newCrashRig(t *testing.T, scheme string) *crashRig {
	t.Helper()
	r := &crashRig{t: t, root: fsys.NewRecorder(), object: payloadFor(32, 1)}
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = crashNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i)), rig: r, index: i}
	}
	r.cluster = store.NewCluster(nodes)
	r.gw = r.gateway(r.root)
	spec := testSpec()
	spec.Scheme, spec.MaxChainLength = scheme, 3
	if _, err := r.gw.Create(t.Context(), "a", spec); err != nil {
		t.Fatal(err)
	}
	r.lag = r.state().archive.ManifestRing(0)[0]
	return r
}

// gateway starts a gateway over the rig's nodes with its root at /gw on
// root, through rigRoot when root is the rig's own.
func (r *crashRig) gateway(root *fsys.Recorder) *Gateway {
	var files fsys.FS = root
	if root == r.root {
		files = rigRoot{Recorder: root, rig: r}
	}
	return newTestGateway(r.t, Config{Cluster: r.cluster, Root: "/gw", fs: files})
}

func (r *crashRig) state() *archiveState { return resident(r.t, r.gw, "a") }

// commit appends one sparse edit through g (nil: the rig's gateway); a
// commit the crash interrupts may fail or not, and counts as acknowledged
// only if it returned before the crash.
func (r *crashRig) commit(g *Gateway) {
	r.t.Helper()
	if g == nil {
		g = r.gw
	}
	v := len(r.attempted) + 1
	r.object = bytes.Clone(r.object)
	r.object[(v%4)*8+v%8] ^= byte(v) | 1
	r.attempted = append(r.attempted, r.object)
	_, err := g.Commit(r.t.Context(), "a", -1, r.object)
	r.mu.Lock()
	crashed := r.frozen
	r.mu.Unlock()
	if crashed {
		return
	}
	if err != nil {
		r.t.Fatalf("commit %d: %v", v, err)
	}
	r.acked = v
}

func (r *crashRig) arm(trigger func(op string, ids []store.ShardID) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trigger = trigger
}

func (r *crashRig) armAfter(trigger func(op string, ids []store.ShardID) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trigger, r.after = trigger, true
}

func (r *crashRig) armRename(trigger func(path string) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rename = trigger
}

func (r *crashRig) setLagging(lagging bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lagging = lagging
}

func (r *crashRig) crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.process != nil
}

// commitUntilRecords commits until at least n records extend the snapshot
// on the nodes (so the next publishes append rather than fold).
func (r *crashRig) commitUntilRecords(n int) {
	r.t.Helper()
	st := r.state()
	for i := 0; i < 64; i++ {
		r.commit(nil)
		if st.archive.Manifest().Generation-foldedAt(st) >= uint64(n) {
			return
		}
	}
	r.t.Fatal("the nodes never held enough records")
}

// verify restarts over the given root (a fresh recorder: the root is lost,
// only the nodes remain) and checks the crash contract: every acknowledged
// version is there and decodes byte-identical, anything beyond is a whole
// version of an unacknowledged commit or absent, and no read names a
// codeword a reclaim has deleted (it would not decode). It reports whether
// the open asked the nodes for the manifest.
func (r *crashRig) verify(what string, root *fsys.Recorder) (askedNodes bool) {
	r.t.Helper()
	return r.verifyOn(what, r.gateway(root))
}

// verifyOn runs verify's checks through g, which has not opened the archive
// yet.
func (r *crashRig) verifyOn(what string, g *Gateway) (askedNodes bool) {
	r.t.Helper()
	reads := r.manifestReads.Load()
	info, err := g.Info(r.t.Context(), "a")
	if err != nil {
		r.t.Fatalf("%s: reopening: %v", what, err)
	}
	if info.Versions < r.acked || info.Versions > len(r.attempted) {
		r.t.Fatalf("%s: reopened with %d versions, %d were acknowledged and %d attempted", what, info.Versions, r.acked, len(r.attempted))
	}
	for v := 1; v <= info.Versions; v++ {
		got, err := g.Retrieve(r.t.Context(), "a", v)
		if err != nil {
			r.t.Fatalf("%s: version %d of %d: %v", what, v, info.Versions, err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), r.attempted[v-1]) {
			r.t.Errorf("%s: version %d differs", what, v)
		}
	}
	return r.manifestReads.Load() != reads
}

// verifyFromNodes restarts from each root a crash leaves - the process's,
// the one a power loss leaves, and none - and wants each to load from the
// nodes.
func (r *crashRig) verifyFromNodes() {
	r.t.Helper()
	for _, restart := range []struct {
		what string
		root *fsys.Recorder
	}{
		{"from the root as the process left it", r.process},
		{"from the root after a power loss", r.power},
		{"from the nodes, root lost", fsys.NewRecorder()},
	} {
		if !r.verify(restart.what, restart.root) {
			r.t.Errorf("%s: the open trusted the root and asked the nodes nothing", restart.what)
		}
	}
}

// snapshotOn returns the generation of the snapshot a node holds, -1 for
// none.
func (r *crashRig) snapshotOn(node int) int {
	r.t.Helper()
	n, err := r.cluster.Node(node)
	if err != nil {
		r.t.Fatal(err)
	}
	raw, err := n.Get(r.t.Context(), store.ShardID{Object: "a/manifest"})
	if err != nil {
		return -1
	}
	var m core.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		r.t.Fatal(err)
	}
	return int(m.Generation)
}

func isRecord(ids []store.ShardID) bool { return strings.Contains(ids[0].Object, "/manifest/") }

// TestCrashPoints enumerates by hand the instants between the writes of a
// publish, of a fold and of a Close, and restarts from each: from the root
// as the process left it, from the root after a power loss, and from the
// nodes alone with the root lost - with one of the snapshot's holders a fold
// behind the others. No instant leaves a clean mark, so every restart asks
// the nodes. A publish writes nothing under the root (TestPublishFsyncs)
// and a Close two files, each by one rename (pinned below), so the two
// Close instants are the only ones between root writes.
func TestCrashPoints(t *testing.T) {
	closeAt := func(path string) func(t *testing.T, r *crashRig) {
		return func(t *testing.T, r *crashRig) {
			r.commitUntilRecords(1) // the Close has records to fold
			r.armRename(func(p string) bool { return p == path })
			if err := r.gw.Close(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
	}
	instants := []struct {
		name   string
		scheme string
		crash  func(t *testing.T, r *crashRig)
	}{
		{"the record on the nodes, before the acknowledgement", "", func(t *testing.T, r *crashRig) {
			r.commitUntilRecords(1)
			r.armAfter(func(op string, ids []store.ShardID) bool { return op == "put" && isRecord(ids) })
			r.commit(nil)
			r.acked = len(r.attempted) // on n-k+1 nodes: acknowledged or not, it stays
		}},
		{"between the fold's snapshot put and its record deletes", "", func(t *testing.T, r *crashRig) {
			r.commitUntilRecords(1)
			r.arm(func(op string, ids []store.ShardID) bool { return op == "delete" && isRecord(ids) })
			for !r.crashed() {
				r.commit(nil)
			}
		}},
		{"Close between its node fold and the root snapshot", "", closeAt("/gw/a.json")},
		{"Close between the root snapshot and the mark", "", closeAt("/gw/a.json.clean")},
		// Reversed SEC supersedes the old tip's full with every commit: the
		// record that stops naming it must be durable before it goes.
		{"right after the old tip's full codeword is deleted", "reversed-sec", func(t *testing.T, r *crashRig) {
			r.armAfter(func(op string, ids []store.ShardID) bool {
				return op == "delete" && strings.HasSuffix(ids[0].Object, "-full")
			})
			r.commit(nil)
		}},
	}
	for _, tc := range instants {
		t.Run(tc.name, func(t *testing.T) {
			r := newCrashRig(t, tc.scheme)
			// The snapshot ring's first node misses one whole fold, then is
			// back for the rest.
			r.setLagging(true)
			r.commitUntilRecords(2)
			st := r.state()
			for folded := foldedAt(st); foldedAt(st) == folded; {
				r.commit(nil)
			}
			r.setLagging(false)
			if lag, fresh := r.snapshotOn(r.lag), r.snapshotOn(st.archive.ManifestRing(0)[1]); lag >= fresh {
				t.Fatalf("node %d holds the snapshot of generation %d, the next ring node of %d: it is not lagging", r.lag, lag, fresh)
			}
			tc.crash(t, r)
			if !r.crashed() {
				t.Fatal("the crash point was never reached")
			}
			r.verifyFromNodes()
		})
	}
	// The root instants above are all there are: a Close writes two files,
	// each whole into a temporary file and then renamed.
	t.Run("what a Close writes under the root", func(t *testing.T) {
		r := newCrashRig(t, "")
		r.commitUntilRecords(1)
		before := len(r.root.Calls())
		if err := r.gw.Close(t.Context()); err != nil {
			t.Fatal(err)
		}
		var calls []string
		for _, c := range r.root.Calls()[before:] {
			if c.Op == "rename" {
				calls = append(calls, c.Op+" "+c.Path)
			} else {
				calls = append(calls, c.Op)
			}
		}
		if want := []string{"create", "write", "rename /gw/a.json", "create", "write", "rename /gw/a.json.clean"}; !slices.Equal(calls, want) {
			t.Errorf("Close made %v under the root, want %v", calls, want)
		}
	})
}

// TestTornAndDamagedLog damages the root a clean Close left - cuts the mark
// at every byte and the snapshot at every byte of its last entry, and flips
// a bit in the middle of each - and restarts in the boot that wrote it. The
// root as Close left it is trusted and the nodes are not asked; each damaged
// one is not trusted, and the open serves every acknowledged version from
// the nodes.
func TestTornAndDamagedLog(t *testing.T) {
	r := newCrashRig(t, "")
	r.commitUntilRecords(3)
	if err := r.gw.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	r.arm(func(string, []store.ShardID) bool { return true }) // freeze at the next mutation: restarts below must not write to the nodes
	if r.verify("the root as Close left it", r.root.Clone()) {
		t.Error("an undamaged root in the boot that wrote it: the open asked the nodes")
	}
	const snapFile, markFile = "/gw/a.json", "/gw/a.json.clean"
	damaged := func(what, path string, contents []byte) {
		t.Helper()
		root := r.root.Clone()
		f, err := root.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
		if err == nil {
			_, err = f.Write(contents)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !r.verify(what, root) {
			t.Errorf("%s: the open trusted the root", what)
		}
	}
	for _, file := range []struct {
		path  string
		first func([]byte) int // the first byte a cut lands at
	}{
		{markFile, func([]byte) int { return 0 }},
		{snapFile, func(snap []byte) int { return bytes.LastIndex(snap, []byte(`"version"`)) }},
	} {
		contents, err := r.root.ReadFile(file.path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := file.first(contents); cut < len(contents); cut++ {
			damaged(fmt.Sprintf("%s cut at byte %d of %d", file.path, cut, len(contents)), file.path, contents[:cut])
		}
		flipped := bytes.Clone(contents)
		flipped[len(flipped)/2] ^= 0x04
		damaged(fmt.Sprintf("%s with a bit flipped", file.path), file.path, flipped)
	}
}

// TestDamagedLogRefusedWhileNodesAreDown: a root whose clean mark is
// damaged is not trusted, so the open asks the nodes alone, and while more
// than n-k of them are down it fails with their error - it never opens the
// archive at the root's older generation, dropping the acknowledged
// versions the nodes hold beyond it - and leaves the root as it was for the
// next attempt. With n-k down, the first two holders of the last record
// among them, it serves every acknowledged version.
func TestDamagedLogRefusedWhileNodesAreDown(t *testing.T) {
	cluster := store.NewMemCluster(6)
	root := t.TempDir()
	ctx := t.Context()
	var versions [][]byte
	commit := func(g *Gateway) {
		versions = append(versions, payloadFor(32, len(versions)+1))
		if _, err := g.Commit(ctx, "a", -1, versions[len(versions)-1]); err != nil {
			t.Fatal(err)
		}
	}
	g1 := newTestGateway(t, Config{Cluster: cluster, Root: root})
	if _, err := g1.Create(ctx, "a", testSpec()); err != nil { // (6,4): n-k = 2
		t.Fatal(err)
	}
	commit(g1)
	if err := g1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	damagedRoot := t.TempDir()
	if err := os.CopyFS(damagedRoot, os.DirFS(root)); err != nil {
		t.Fatal(err)
	}
	markFile := filepath.Join(damagedRoot, "a.json.clean")
	mark, err := os.ReadFile(markFile)
	if err != nil {
		t.Fatal(err)
	}
	mark[len(mark)/2] ^= 0x10
	if err := os.WriteFile(markFile, mark, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(damagedRoot, "a.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Another gateway on the intact root takes the archive on past the
	// damaged root's generation: three records on the nodes.
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	st := resident(t, g, "a")
	for foldedAt(st)+3 > st.archive.Manifest().Generation {
		commit(g)
	}
	lastHolders := st.archive.ManifestRing(st.archive.Manifest().Generation)[:2]

	g2 := newTestGateway(t, Config{Cluster: cluster, Root: damagedRoot})
	for _, down := range [][]int{{0, 1, 2, 3, 4, 5}, {3, 4, 5}, {0, 2, 4}} {
		if err := cluster.Fail(down...); err != nil {
			t.Fatal(err)
		}
		info, err := g2.Info(ctx, "a")
		if !errors.Is(err, store.ErrNodeDown) {
			t.Errorf("nodes %v down: opened with %d versions (err %v), want ErrNodeDown", down, info.Versions, err)
		}
		cluster.HealAll()
		for path, want := range map[string][]byte{markFile: mark, filepath.Join(damagedRoot, "a.json"): snap} {
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, want) {
				t.Fatalf("nodes %v down: the refused open changed %s (err %v)", down, path, err)
			}
		}
	}
	if err := cluster.Fail(lastHolders...); err != nil {
		t.Fatal(err)
	}
	for v, want := range versions {
		got, err := g2.Retrieve(ctx, "a", v+1)
		if err != nil {
			t.Fatalf("nodes %v down: version %d: %v", lastHolders, v+1, err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), want) {
			t.Errorf("nodes %v down: version %d differs", lastHolders, v+1)
		}
	}
	if info, err := g2.Info(ctx, "a"); err != nil || info.Versions != len(versions) {
		t.Errorf("nodes %v down: reopened with %d versions (err %v), want %d", lastHolders, info.Versions, err, len(versions))
	}
}

// writeBack makes everything under dir durable, as the kernel's writeback
// may before a power loss that nothing synced for.
func writeBack(t *testing.T, rec *fsys.Recorder, dir string) {
	t.Helper()
	err := fsys.WalkFiles(rec, dir, func(path, _ string) error {
		f, err := rec.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		return f.Sync()
	})
	for _, d := range []string{dir, filepath.Dir(dir)} {
		err = errors.Join(err, rec.SyncDir(d))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRootTrustedOnlyInTheBootThatWroteIt: a clean Close leaves a root that
// a restart in the same boot trusts without asking the nodes, and that a
// read-only session leaves untouched. After a power loss nothing under the
// root is trusted, even what the kernel wrote back: the open loads from the
// nodes and serves every acknowledged version - also when the crash follows
// a publish in a session that opened clean, whose removal of the mark the
// power loss rolled back.
func TestRootTrustedOnlyInTheBootThatWroteIt(t *testing.T) {
	r := newCrashRig(t, "")
	r.commitUntilRecords(2)
	if err := r.gw.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	writeBack(t, r.root, "/gw")

	before := len(r.root.Calls())
	reader := r.gateway(r.root)
	if r.verifyOn("a read-only session in the same boot", reader) {
		t.Error("a clean restart in the same boot asked the nodes")
	}
	if _, err := reader.Log(t.Context(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := reader.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	if calls := r.root.Calls()[before:]; len(calls) != 0 {
		t.Errorf("a read-only session wrote under the root: %v", calls)
	}

	power := r.root.Clone()
	power.Crash()
	power.Restart()
	if !r.verify("power loss after a clean Close", power) {
		t.Error("power loss after a clean Close: the open trusted the root")
	}

	g := r.gateway(r.root)
	if r.verifyOn("a clean restart before a publish", g) {
		t.Error("a clean restart in the same boot asked the nodes")
	}
	r.commit(g)
	if !r.verify("process crash after one publish", r.root.Clone()) {
		t.Error("process crash after one publish: the open trusted the root")
	}
	r.root.Crash()
	r.root.Restart()
	if !r.verify("power loss after one publish", r.root) {
		t.Error("power loss after one publish: the open trusted the root")
	}
}

// rigNode is one node of a chaosRig: a ChaosNode (for SetFailed) that
// counts the codeword shards - every object but the manifest's - it is
// asked to put, and while told to refuses batches naming archive a's
// manifest objects: its records and the snapshot that folds them.
type rigNode struct {
	*faults.ChaosNode
	shardPuts                 *atomic.Int64
	refusePuts, refuseDeletes atomic.Bool
}

// refused fails every shard of a batch naming a's manifest objects while on.
func refused(on bool, ids []store.ShardID) []error {
	if !on || !slices.ContainsFunc(ids, func(id store.ShardID) bool { return strings.HasPrefix(id.Object, "a/manifest") }) {
		return nil
	}
	errs := make([]error, len(ids))
	for i := range errs {
		errs[i] = fmt.Errorf("%w: manifest object refused", store.ErrNodeDown)
	}
	return errs
}

func (n *rigNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	if errs := refused(n.refusePuts.Load(), ids); errs != nil {
		return errs
	}
	for _, id := range ids {
		if !strings.Contains(id.Object, "/manifest") {
			n.shardPuts.Add(1)
		}
	}
	return n.ChaosNode.PutBatch(ctx, ids, data)
}

func (n *rigNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	if errs := refused(n.refuseDeletes.Load(), ids); errs != nil {
		return errs
	}
	return n.ChaosNode.DeleteBatch(ctx, ids)
}

// chaosRig is a cluster of six rigNodes over memory nodes.
type chaosRig struct {
	t         *testing.T
	nodes     []*rigNode
	cluster   *store.Cluster
	shardPuts atomic.Int64
}

func newChaosRig(t *testing.T) *chaosRig {
	c := &chaosRig{t: t, nodes: make([]*rigNode, 6)}
	nodes := make([]store.Node, len(c.nodes))
	for i := range nodes {
		c.nodes[i] = &rigNode{ChaosNode: faults.NewChaosNode(store.NewMemNode(fmt.Sprintf("mem-%d", i)), faults.Schedule{}), shardPuts: &c.shardPuts}
		nodes[i] = c.nodes[i]
	}
	c.cluster = store.NewCluster(nodes)
	return c
}

// refuse makes the given nodes refuse puts of a's manifest objects and
// every other take them.
func (c *chaosRig) refuse(nodes ...int) {
	for i, node := range c.nodes {
		node.refusePuts.Store(slices.Contains(nodes, i))
	}
}

// check reads every acknowledged version back through a gateway that knows
// the archive from the nodes alone, and wants no generation up to last to
// have two different records on the nodes.
func (c *chaosRig) check(acked map[int][]byte, last uint64) {
	c.t.Helper()
	ctx := c.t.Context()
	fresh := newTestGateway(c.t, Config{Cluster: c.cluster})
	for v, want := range acked {
		got, err := fresh.Retrieve(ctx, "a", v)
		if err != nil {
			c.t.Fatalf("version %d from the nodes: %v", v, err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), want) {
			c.t.Errorf("version %d from the nodes differs", v)
		}
	}
	for gen := uint64(1); gen <= last; gen++ {
		var copies [][]byte
		for _, node := range c.nodes {
			if data, err := node.Get(ctx, store.ShardID{Object: fmt.Sprintf("a/manifest/%d", gen)}); err == nil && !slices.ContainsFunc(copies, func(c []byte) bool { return bytes.Equal(c, data) }) {
				copies = append(copies, data)
			}
		}
		if len(copies) > 1 {
			c.t.Errorf("generation %d has %d different records on the nodes", gen, len(copies))
		}
	}
}

// TestPublishAcknowledgedAtNMinusKPlusOne refuses manifest puts on some
// nodes, by the archive's manifest object names. With
// all but n-k+1 nodes refusing them a commit succeeds. With one more
// refusing, a commit fails, and the next is refused before it puts a shard.
// Once the node is back the next commit folds first and succeeds, every
// acknowledged version reads back from the nodes alone, and no generation
// has two different records.
func TestPublishAcknowledgedAtNMinusKPlusOne(t *testing.T) {
	c := newChaosRig(t) // testSpec's (6,4): n-k+1 = 3
	g := newTestGateway(t, Config{Cluster: c.cluster})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	acked := map[int][]byte{}
	commit := func(v int) error {
		object := payloadFor(32, v)
		info, err := g.Commit(ctx, "a", -1, object)
		if err == nil {
			acked[info.Version] = object
		}
		return err
	}

	c.refuse(0, 1, 2)
	st := resident(t, g, "a")
	v := 0
	for v < 2 || foldedAt(st) != st.archive.Manifest().Generation {
		v++ // until a commit folds: the next publishes its record alone
		if err := commit(v); err != nil {
			t.Fatalf("commit %d with n-k+1 nodes taking manifest puts: %v", v, err)
		}
	}
	c.refuse(0, 1, 2, 3)
	if err := commit(v + 1); err == nil {
		t.Fatalf("commit %d acknowledged with n-k nodes taking its record", v+1)
	}
	puts := c.shardPuts.Load()
	if err := commit(v + 2); !errors.Is(err, store.ErrNodeDown) {
		t.Errorf("commit %d after an unpublished one: err = %v, want the fold's ErrNodeDown", v+2, err)
	}
	if got := c.shardPuts.Load(); got != puts {
		t.Errorf("commit %d put %d shards before it was refused", v+2, got-puts)
	}
	c.refuse(0, 1, 2)
	if err := commit(v + 3); err != nil {
		t.Fatalf("commit %d with a node back: %v", v+3, err)
	}
	c.check(acked, st.archive.Manifest().Generation+2)
}

// TestUnseenRecordIsNeverRead: a writer that crashed after its record
// reached one node - too few for an acknowledgement - and after the refold
// its next writer attempted reached that node alone too, leaves a record
// and a snapshot, both of the record's generation, that a load from the
// nodes does not see while that node is down. The load spends both
// generations, so once the node is back no load reads the stray record
// (which describes version 3 with another gamma) or the stray snapshot
// (whose version 3 has another length, and which, on node 0, would win a
// tie of generations and then fail the replay of the commits after it).
func TestUnseenRecordIsNeverRead(t *testing.T) {
	c := newChaosRig(t)
	ctx := t.Context()
	edit := func(object []byte, blocks ...int) []byte {
		object = bytes.Clone(object)
		for _, b := range blocks {
			object[b*8] ^= 0xFF // testSpec's 8-byte blocks
		}
		return object
	}
	v1 := payloadFor(32, 1)
	v2 := edit(v1, 0)
	acked := map[int][]byte{1: v1, 2: v2}
	crashed, err := New(Config{Cluster: c.cluster, Root: t.TempDir()}) // never closed: its process dies
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		if _, err := crashed.Commit(ctx, "a", -1, acked[v]); err != nil {
			t.Fatal(err)
		}
	}
	c.refuse(1, 2, 3, 4, 5)
	if _, err := crashed.Commit(ctx, "a", -1, edit(v2, 1)); err == nil { // gamma 1: its record is on node 0 alone
		t.Fatal("a commit whose record reached one node was acknowledged")
	}
	if _, err := crashed.Commit(ctx, "a", -1, v2); !errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("commit after an unpublished one with one node taking manifest puts: err = %v, want the refold's ErrNodeDown", err)
	}
	raw, err := c.nodes[0].Get(ctx, store.ShardID{Object: "a/manifest"})
	var stray core.Manifest
	if err != nil || json.Unmarshal(raw, &stray) != nil || len(stray.Entries) != 3 {
		t.Fatalf("node 0's snapshot is not the refold's (err %v, %d versions)", err, len(stray.Entries))
	}

	// The restart loads while node 0 is down; back, it misses the manifest
	// puts and deletes that follow, as a node briefly away would.
	c.refuse()
	c.nodes[0].SetFailed(true)
	g := newTestGateway(t, Config{Cluster: c.cluster})
	resident(t, g, "a")
	c.nodes[0].SetFailed(false)
	c.nodes[0].refusePuts.Store(true)
	c.nodes[0].refuseDeletes.Store(true)
	v3 := payloadFor(24, 3) // another length than the stray version 3
	for v, object := range [][]byte{v3, edit(v3, 2)} {
		info, err := g.Commit(ctx, "a", -1, object)
		if err != nil {
			t.Fatalf("commit after the restart: %v", err)
		}
		if info.Version != v+3 {
			t.Fatalf("commit after the restart stored version %d, want %d", info.Version, v+3)
		}
		acked[info.Version] = object
	}
	c.refuse()
	c.check(acked, resident(t, g, "a").archive.Manifest().Generation)
}

// TestRepairPutsSnapshotBack: a node that lost its disk loses its copies of
// the manifest objects too, and repairing it publishes a fold that puts the
// snapshot back on it when it is one of the snapshot's n-k+1 ring nodes.
func TestRepairPutsSnapshotBack(t *testing.T) {
	cluster := store.NewMemCluster(6)
	g := newTestGateway(t, Config{Cluster: cluster, Root: t.TempDir()})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		if _, err := g.Commit(ctx, "a", -1, payloadFor(32, v)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := g.open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	holder := st.archive.ManifestRing(0)[0]
	node, err := cluster.Node(holder)
	if err != nil {
		t.Fatal(err)
	}
	node.(*store.MemNode).Wipe()
	if _, err := g.Repair(ctx, "a", holder); err != nil {
		t.Fatal(err)
	}
	raw, err := node.Get(ctx, store.ShardID{Object: "a/manifest"})
	if err != nil {
		t.Fatalf("repaired node %d, a snapshot holder, holds no snapshot: %v", holder, err)
	}
	var m core.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if want := st.archive.Manifest(); m.Generation != want.Generation || len(m.Entries) != len(want.Entries) {
		t.Errorf("repaired node %d holds the snapshot of generation %d with %d versions, want %d with %d",
			holder, m.Generation, len(m.Entries), want.Generation, len(want.Entries))
	}
}

// TestCreateRefusesAnArchiveOnlyTheNodesHold: a session that died before
// its Close left no <name>.json under the root, so only the nodes know the
// archive. A second Create of the name from a new gateway on the same root
// is refused with ErrConflict, puts no snapshot over the archive's, and
// every acknowledged version reads back; while a node cannot answer, a
// create of a new name is refused with that node's error.
func TestCreateRefusesAnArchiveOnlyTheNodesHold(t *testing.T) {
	c := newChaosRig(t)
	ctx := t.Context()
	root := t.TempDir()
	crashed, err := New(Config{Cluster: c.cluster, Root: root}) // never closed: its process dies
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if _, err := crashed.Commit(ctx, "a", -1, payloadFor(32, v)); err != nil {
			t.Fatal(err)
		}
	}
	g := newTestGateway(t, Config{Cluster: c.cluster, Root: root})
	if _, err := g.Create(ctx, "a", testSpec()); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("create of an archive only the nodes hold: err = %v, want ErrConflict", err)
	}
	for v := 1; v <= 3; v++ {
		got, err := g.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatalf("version %d after the refused create: %v", v, err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), payloadFor(32, v)) {
			t.Errorf("version %d after the refused create differs", v)
		}
	}
	c.nodes[2].SetFailed(true)
	if _, err := g.Create(ctx, "b", testSpec()); !errors.Is(err, store.ErrNodeDown) {
		t.Errorf("create with a node down: err = %v, want ErrNodeDown", err)
	}
	c.nodes[2].SetFailed(false)
	if _, err := g.Create(ctx, "b", testSpec()); err != nil {
		t.Errorf("create with every node back: %v", err)
	}
}
