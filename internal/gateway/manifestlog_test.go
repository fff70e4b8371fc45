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
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
)

// loadManifest reads the manifest of the named archive under a gateway
// root the way the gateway itself does - snapshot plus log replay - so no
// test grows a second reader of those two files.
func loadManifest(t *testing.T, root, name string) core.Manifest {
	t.Helper()
	l := manifestLog{path: filepath.Join(root, name+".json")}
	m, err := l.read()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fileExists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
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
// folds that keep the log short are logarithmically many, and the records
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
	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", transport.ArchiveSpec{N: n, K: k, BlockSize: blockSize}); err != nil {
		t.Fatal(err)
	}
	st, err := g.open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	holder, err := cluster.Node(st.archive.ManifestRing(0)[0]) // holds every snapshot
	if err != nil {
		t.Fatal(err)
	}
	object := make([]byte, k*blockSize)
	gammas := []int{1, 1, 2, 1, 3}
	var (
		committed, folds int
		publishBytes     = map[int]uint64{} // chain length -> metadata bytes of a non-folding publish
	)
	logFile := filepath.Join(root, "a.json.log")
	for v := 1; v <= commits; v++ {
		for b := 0; b < gammas[v%len(gammas)]; b++ {
			object[((v+b)%k)*blockSize+v%blockSize] ^= byte(v) | 1
		}
		before := cluster.WireStats().BytesWritten
		info, err := g.Commit(ctx, "a", -1, object)
		if err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
		committed += len(object)
		metadata := cluster.WireStats().BytesWritten - before - uint64(info.ShardWrites*blockSize)
		if fileExists(t, logFile) {
			publishBytes[v] = metadata
		} else {
			folds++
		}
		// Between folds the records on a node stay below the snapshot there.
		snap, err := holder.Get(ctx, store.ShardID{Object: "a/manifest"})
		if err != nil {
			t.Fatalf("after commit %d: no snapshot on its first ring node: %v", v, err)
		}
		m := loadManifest(t, root, "a")
		if _, size := recordsOn(ctx, holder, "a", m.Generation); size > len(snap) {
			t.Fatalf("after commit %d: %d bytes of records on the snapshot's first ring node extend a %d-byte snapshot", v, size, len(snap))
		}
	}
	at := func(length int) uint64 {
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
	root := t.TempDir()
	g, err := New(Config{Cluster: cluster, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	object := payloadFor(32, 1)
	var folding, plain int
	for v := 1; v <= 12; v++ {
		object = bytes.Clone(object)
		object[(v%4)*8] ^= 0xFF
		before := sum()
		if _, err := g.Commit(ctx, "a", -1, object); err != nil {
			t.Fatal(err)
		}
		after := sum()
		puts, deletes := after.PutBatches-before.PutBatches, after.DeleteBatches-before.DeleteBatches
		wantPuts, wantDeletes := uint64(nodes+holders), uint64(0)
		if !fileExists(t, filepath.Join(root, "a.json.log")) {
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
	if got, want := loadManifest(t, g2.cfg.Root, "a"), loadManifest(t, root, "a"); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("cluster load rebuilt %+v, the root holds %+v", got, want)
	}
}

// TestCleanCloseLeavesPlainJSON: after Close a root holds one JSON manifest
// per archive and no log, the nodes hold no records and the snapshot is on
// its n-k+1 ring nodes and no other, and the manifest is what core.Load -
// the reader every earlier release has - opens.
func TestCleanCloseLeavesPlainJSON(t *testing.T) {
	cluster := store.NewMemCluster(6)
	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := g.open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	holders := st.archive.ManifestRing(0)[:3] // n-k+1 of testSpec's (6,4)
	versions := 0
	for versions < 3 || !fileExists(t, filepath.Join(root, "a.json.log")) {
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
	if len(names) != 1 || filepath.Base(names[0]) != "a.json" {
		t.Errorf("root after Close holds %v, want a.json alone", names)
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

// crashRig runs one archive on nodes that can stop the world: when armed
// with a trigger, the first node mutation the trigger matches copies the
// gateway root aside and freezes every node against further mutations -
// the process died at that instant, and what the root copy and the nodes
// hold is what a restart finds. Armed with armAfter, the matched mutations
// are applied instead, the root is copied after the first of them, and the
// world freezes at the next mutation the trigger does not match: the
// process died right after what the trigger names, on every node. The
// first node of the snapshot's replica ring can also be made to lag: it
// then refuses manifest objects (snapshot, records and their deletes) while
// still taking shards, the way a node that was briefly away misses a fold.
type crashRig struct {
	t       *testing.T
	root    string
	cluster *store.Cluster
	gw      *Gateway

	mu      sync.Mutex
	trigger func(op string, ids []store.ShardID) bool
	after   bool // armAfter: apply the matched mutations, freeze after them
	frozen  bool
	lagging bool
	lag     int    // the node that lags: the snapshot ring's first
	image   string // the root as of the crash

	object    []byte
	attempted [][]byte // every payload handed to Commit, acknowledged or not
	acked     int
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
	if matched && !r.after || !matched && r.after && r.image != "" {
		if r.image == "" {
			r.copyRoot()
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
	if matched && r.image == "" {
		r.copyRoot() // armAfter: the root as it stands once the matched mutation is done
	}
	return errs
}

func (r *crashRig) copyRoot() {
	r.image = r.t.TempDir()
	if err := os.CopyFS(r.image, os.DirFS(r.root)); err != nil {
		r.t.Error(err)
	}
}

func (n crashNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	return n.mutate("put", ids, func() []error { return n.MemNode.PutBatch(ctx, ids, data) })
}

func (n crashNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	return n.mutate("delete", ids, func() []error { return n.MemNode.DeleteBatch(ctx, ids) })
}

// newCrashRig creates archive "a" under the given scheme ("" for the
// default) with auto-compaction on, so publishes carry rebases and reclaims
// as well as appends.
func newCrashRig(t *testing.T, scheme string) *crashRig {
	t.Helper()
	r := &crashRig{t: t, root: t.TempDir(), object: payloadFor(32, 1)}
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = crashNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i)), rig: r, index: i}
	}
	r.cluster = store.NewCluster(nodes)
	r.gw = newTestGateway(t, Config{Cluster: r.cluster, Root: r.root})
	spec := testSpec()
	spec.Scheme, spec.MaxChainLength = scheme, 3
	if _, err := r.gw.Create(t.Context(), "a", spec); err != nil {
		t.Fatal(err)
	}
	r.lag = r.ring(0)[0]
	return r
}

// ring lists the nodes in the order a publish tries them for the record of
// generation gen, or for the snapshot when gen is 0; the first n-k+1 = 3
// hold it when every put succeeds.
func (r *crashRig) ring(gen uint64) []int {
	r.t.Helper()
	st, err := r.gw.open(r.t.Context(), "a")
	if err != nil {
		r.t.Fatal(err)
	}
	return st.archive.ManifestRing(gen)
}

// commit appends one sparse edit; a commit the crash interrupts may fail
// or not, and counts as acknowledged only if it returned before the crash.
func (r *crashRig) commit() {
	r.t.Helper()
	v := len(r.attempted) + 1
	r.object = bytes.Clone(r.object)
	r.object[(v%4)*8+v%8] ^= byte(v) | 1
	r.attempted = append(r.attempted, r.object)
	_, err := r.gw.Commit(r.t.Context(), "a", -1, r.object)
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

func (r *crashRig) setLagging(lagging bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lagging = lagging
}

// commitUntilLog commits until a publish leaves at least frames records in
// the log (so the next ones append rather than fold).
func (r *crashRig) commitUntilLog(frames int) {
	r.t.Helper()
	for i := 0; i < 64; i++ {
		r.commit()
		l := manifestLog{path: filepath.Join(r.root, "a.json")}
		m, err := l.read()
		if err != nil {
			r.t.Fatal(err)
		}
		if m.Generation-l.folded >= uint64(frames) {
			return
		}
	}
	r.t.Fatal("the log never held enough records")
}

// verify restarts over the given root, which it takes over (empty: the root
// is lost, only the nodes remain), and checks the crash contract: every acknowledged version
// is there and decodes byte-identical, anything beyond is a whole version
// of an unacknowledged commit or absent, and no read names a codeword a
// reclaim has deleted (it would not decode).
func (r *crashRig) verify(what, root string) {
	r.t.Helper()
	if root == "" {
		root = r.t.TempDir()
	}
	g := newTestGateway(r.t, Config{Cluster: r.cluster, Root: root})
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
func isSnapshot(ids []store.ShardID) bool {
	return strings.HasSuffix(ids[0].Object, "/manifest")
}

// TestCrashPoints enumerates by hand the instants between the steps of a
// publish and of a fold, and restarts from each: from the root as the crash
// left it, and from the nodes alone with the root lost and one of the
// snapshot's holders a fold behind the others.
func TestCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme string
		// crash brings the rig to the crash and returns the root a restart
		// finds (normally the image the trigger copied).
		crash func(t *testing.T, r *crashRig) string
	}{
		{"after the record append, before replication", "", func(t *testing.T, r *crashRig) string {
			r.commitUntilLog(1)
			r.arm(func(op string, ids []store.ShardID) bool { return op == "put" && isRecord(ids) })
			r.commit()
			return r.image
		}},
		{"between the record and the snapshot reaching the nodes", "", func(t *testing.T, r *crashRig) string {
			r.commitUntilLog(1)
			r.arm(func(op string, ids []store.ShardID) bool { return op == "put" && isSnapshot(ids) })
			for r.image == "" {
				r.commit()
			}
			return r.image
		}},
		{"between snapshot rename and log truncate", "", func(t *testing.T, r *crashRig) string {
			r.commitUntilLog(1)
			// The log as it stood before the folding publish, plus that
			// publish's record (still on the nodes when the snapshot is
			// about to follow it), beside the new snapshot: the files a
			// crash between the rename and the removal leaves.
			var before []byte
			r.arm(func(op string, ids []store.ShardID) bool { return op == "put" && isSnapshot(ids) })
			for r.image == "" {
				var err error
				if before, err = os.ReadFile(filepath.Join(r.root, "a.json.log")); err != nil {
					t.Fatal(err)
				}
				r.commit()
			}
			if fileExists(t, filepath.Join(r.image, "a.json.log")) {
				t.Fatal("the fold left its log behind")
			}
			gen := loadManifest(t, r.image, "a").Generation
			node, err := r.cluster.Node(r.ring(gen)[0])
			if err != nil {
				t.Fatal(err)
			}
			last, err := node.Get(t.Context(), store.ShardID{Object: fmt.Sprintf("a/manifest/%d", gen)})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(r.image, "a.json.log"), append(before, last...), 0o644); err != nil {
				t.Fatal(err)
			}
			return r.image
		}},
		{"between snapshot PutBatch and record DeleteBatch", "", func(t *testing.T, r *crashRig) string {
			r.commitUntilLog(1)
			r.arm(func(op string, ids []store.ShardID) bool { return op == "delete" && isRecord(ids) })
			for r.image == "" {
				r.commit()
			}
			return r.image
		}},
		// Reversed SEC supersedes the old tip's full with every commit: the
		// record that stops naming it must be durable before it goes.
		{"right after the old tip's full codeword is deleted", "reversed-sec", func(t *testing.T, r *crashRig) string {
			r.armAfter(func(op string, ids []store.ShardID) bool {
				return op == "delete" && strings.HasSuffix(ids[0].Object, "-full")
			})
			r.commit()
			return r.image
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCrashRig(t, tc.scheme)
			// The snapshot ring's first node misses one whole fold cycle, then
			// is back for the rest.
			r.setLagging(true)
			r.commitUntilLog(2)
			folded := loadManifest(t, r.root, "a").Generation
			for loadManifest(t, r.root, "a").Generation == folded || fileExists(t, filepath.Join(r.root, "a.json.log")) {
				r.commit() // until the next fold
			}
			r.setLagging(false)
			if lag, fresh := r.snapshotOn(r.lag), r.snapshotOn(r.ring(0)[1]); lag >= fresh {
				t.Fatalf("node %d holds the snapshot of generation %d, node %d of %d: it is not lagging", r.lag, lag, r.ring(0)[1], fresh)
			}
			image := tc.crash(t, r)
			if image == "" {
				t.Fatal("the crash point was never reached")
			}
			r.verify("from the root", image)
			r.verify("from the nodes, root lost", "")
		})
	}
}

// TestTornAndDamagedLog cuts the log at every byte of its last frame - a
// crash inside the append, so that commit was never acknowledged - and
// flips a bit in the middle of a log whose commits all were, and restarts:
// the log is read up to the damage, every acknowledged version is served,
// the tail from the nodes, which got each record only after the log did, and
// the loader replaces the damaged log by a snapshot of all it recovered.
func TestTornAndDamagedLog(t *testing.T) {
	r := newCrashRig(t, "")
	r.commitUntilLog(3)
	r.arm(func(string, []store.ShardID) bool { return true }) // freeze at the next mutation: restarts below must not write to the nodes
	log, err := os.ReadFile(filepath.Join(r.root, "a.json.log"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []int // offsets at which a frame starts
	for at := 0; at < len(log); {
		frames = append(frames, at)
		_, _, n, err := store.DecodeFrame(log[at:])
		if err != nil {
			t.Fatal(err)
		}
		at += n
	}
	if len(frames) < 3 {
		t.Fatalf("log holds %d frames, want at least 3", len(frames))
	}
	damaged := func(what string, contents []byte, torn bool) {
		t.Helper()
		root := t.TempDir()
		if err := os.CopyFS(root, os.DirFS(r.root)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "a.json.log"), contents, 0o644); err != nil {
			t.Fatal(err)
		}
		r.verify(what, root)
		// A torn log is replaced by a snapshot of all the nodes gave back:
		// every record. One cut where a frame ends is whole, and stays.
		l := manifestLog{path: filepath.Join(root, "a.json")}
		m, err := l.read()
		want := len(r.attempted)
		if !torn {
			want--
		}
		if err != nil || l.mustFold || fileExists(t, logPath(l.path)) == torn || len(m.Entries) != want {
			t.Errorf("%s: root reread with %d versions (log left %v, damaged %v, err %v), want %d, the log left: %v",
				what, len(m.Entries), fileExists(t, logPath(l.path)), l.mustFold, err, want, !torn)
		}
	}
	last := frames[len(frames)-1]
	r.acked--
	for cut := last; cut < len(log); cut++ {
		damaged(fmt.Sprintf("log cut at byte %d of %d", cut, len(log)), log[:cut], cut > last)
	}
	r.acked++
	flipped := bytes.Clone(log)
	flipped[(frames[1]+frames[2])/2] ^= 0x04
	damaged("bit flipped in the second frame", flipped, true)
}

// TestDamagedLogRefusedWhileNodesAreDown: a root whose log is damaged is
// completed from the nodes alone, so while more than n-k of them are down
// the open fails with their error - before it opened the archive at the
// damaged log's generation with no error, dropping every acknowledged
// version behind the damage - and leaves the root as it was for the next
// attempt. With n-k down, the first two holders of the last record among
// them, it serves every acknowledged version.
func TestDamagedLogRefusedWhileNodesAreDown(t *testing.T) {
	cluster := store.NewMemCluster(6)
	root := t.TempDir()
	g := newTestGateway(t, Config{Cluster: cluster, Root: root})
	ctx := t.Context()
	if _, err := g.Create(ctx, "a", testSpec()); err != nil { // (6,4): n-k = 2
		t.Fatal(err)
	}
	var versions [][]byte
	for {
		versions = append(versions, payloadFor(32, len(versions)+1))
		if _, err := g.Commit(ctx, "a", -1, versions[len(versions)-1]); err != nil {
			t.Fatal(err)
		}
		l := manifestLog{path: filepath.Join(root, "a.json")}
		if m, err := l.read(); err != nil {
			t.Fatal(err)
		} else if m.Generation-l.folded >= 3 {
			break
		}
	}
	st, err := g.open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	lastHolders := st.archive.ManifestRing(st.archive.Manifest().Generation)[:2]

	damagedRoot := t.TempDir()
	if err := os.CopyFS(damagedRoot, os.DirFS(root)); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(damagedRoot, "a.json.log"))
	if err != nil {
		t.Fatal(err)
	}
	log[len(log)/8] ^= 0x10 // inside the first frame: no record of the log is read
	if err := os.WriteFile(filepath.Join(damagedRoot, "a.json.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
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
		if after, err := os.ReadFile(filepath.Join(damagedRoot, "a.json.log")); err != nil || !bytes.Equal(after, log) {
			t.Fatalf("nodes %v down: the refused open changed the damaged log (err %v)", down, err)
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
