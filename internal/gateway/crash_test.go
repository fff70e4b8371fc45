package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/secarchive/sec/internal/fsys"
	"github.com/secarchive/sec/internal/store"
)

// crashInstants is how many mutating file-system calls the run of
// TestEveryCrashInstant makes: one instant each. A write the run did not
// make before changes it.
const crashInstants = 1091

// crashWorld is the whole system on one recording file system: the gateway
// root at /gw and six DiskNodes at /n0 to /n5, over a cluster that runs its
// node batches in order. The recorder's log then lists every mutating call
// of the system in one order, the same from run to run.
type crashWorld struct {
	fs    *fsys.Recorder
	disks []*store.DiskNode
	gw    *Gateway
	// spans, when not nil, gathers which calls each node batch made.
	spans *[]batchSpan
	// lag, while lagging, refuses every manifest object, the way a node
	// that was briefly away misses a fold.
	lag     int
	lagging atomic.Bool
	// manifestReads counts the get batches that name a manifest object: an
	// open that loads from the nodes makes them, one that trusts the root
	// none.
	manifestReads atomic.Int64
}

// batchSpan is one node batch of a traced world: calls from+1 to to of the
// recorder's log (1-based) are its.
type batchSpan struct {
	node     int
	op       string
	object   string // the first shard's object
	from, to int
}

// worldNode is one DiskNode of a crashWorld.
type worldNode struct {
	*store.DiskNode
	w    *crashWorld
	node int
}

// mutate runs one mutating batch, refused while the node lags and names a
// manifest object, traced when the world is.
func (n worldNode) mutate(op string, ids []store.ShardID, batch func() []error) []error {
	if n.node == n.w.lag && n.w.lagging.Load() && strings.Contains(ids[0].Object, "/manifest") {
		errs := make([]error, len(ids))
		for i := range errs {
			errs[i] = fmt.Errorf("lagging node: %w", store.ErrNodeDown)
		}
		return errs
	}
	if n.w.spans == nil {
		return batch()
	}
	from := len(n.w.fs.Calls())
	errs := batch()
	*n.w.spans = append(*n.w.spans, batchSpan{node: n.node, op: op, object: ids[0].Object, from: from, to: len(n.w.fs.Calls())})
	return errs
}

func (n worldNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	return n.mutate("put", ids, func() []error { return n.DiskNode.PutBatch(ctx, ids, data) })
}

func (n worldNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	return n.mutate("delete", ids, func() []error { return n.DiskNode.DeleteBatch(ctx, ids) })
}

func (n worldNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if len(ids) > 0 && strings.Contains(ids[0].Object, "/manifest") {
		n.w.manifestReads.Add(1)
	}
	return n.DiskNode.GetBatch(ctx, ids)
}

// openWorld starts the system with its nodes on nodes and its gateway root
// at /gw on root, tracing node batches when traced.
func openWorld(t *testing.T, nodes *fsys.Recorder, root fsys.FS, traced bool) *crashWorld {
	t.Helper()
	w := &crashWorld{fs: nodes, lag: -1}
	if traced {
		w.spans = new([]batchSpan)
	}
	cluster := make([]store.Node, 6)
	for i := range cluster {
		disk, err := store.NewDiskNodeOn(nodes, fmt.Sprintf("disk-%d", i), fmt.Sprintf("/n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		w.disks = append(w.disks, disk)
		cluster[i] = worldNode{DiskNode: disk, w: w, node: i}
	}
	c := store.NewCluster(cluster)
	c.RunInOrder()
	gw, err := New(Config{Cluster: c, Root: "/gw", fs: root})
	if err != nil {
		t.Fatal(err)
	}
	w.gw = gw
	return w
}

// stopped reports whether the world's file system stopped at its armed call.
func (w *crashWorld) stopped() bool {
	_, err := w.fs.Stat("/")
	return errors.Is(err, fsys.ErrCrashed)
}

// crashVersions are the objects the run commits, in order: the first
// crashBase before the run, one sparse edit each.
func crashVersions() [][]byte {
	object := payloadFor(32, 1)
	versions := [][]byte{object}
	for v := 2; v <= crashBase+crashCommits; v++ {
		object = bytes.Clone(object)
		object[v%8] ^= byte(v) | 1 // block 0 only: merged deltas stay sparse, and compaction rebases
		versions = append(versions, object)
	}
	return versions
}

const (
	crashBase    = 6 // versions committed before the run
	crashCommits = 4 // versions the run commits
	crashWiped   = 1 // the node the run replaces and repairs
)

// crashBaseState is the system before the run: Reversed SEC archive "a"
// with auto-compaction at chain length 3, crashBase versions committed, and
// a clean Close; the first node of the snapshot's ring missed the manifest
// objects of the second half, and holds a snapshot a fold behind the others.
func crashBaseState(t *testing.T) *fsys.Recorder {
	t.Helper()
	rec := fsys.NewRecorder()
	w := openWorld(t, rec, rec, false)
	ctx := t.Context()
	spec := testSpec()
	spec.Scheme, spec.MaxChainLength = "reversed-sec", 3
	if _, err := w.gw.Create(ctx, "a", spec); err != nil {
		t.Fatal(err)
	}
	ring := resident(t, w.gw, "a").archive.ManifestRing(0)
	w.lag = ring[0]
	for v, object := range crashVersions()[:crashBase] {
		w.lagging.Store(v >= crashBase/2)
		if _, err := w.gw.Commit(ctx, "a", -1, object); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.gw.Close(ctx); err != nil {
		t.Fatal(err)
	}
	snapshot := func(node int) uint64 {
		raw, err := w.disks[node].Get(ctx, store.ShardID{Object: "a/manifest"})
		if err != nil {
			t.Fatal(err)
		}
		return snapshotGeneration(raw)
	}
	if behind, ahead := snapshot(ring[0]), snapshot(ring[1]); behind >= ahead {
		t.Fatalf("the lagging node holds the snapshot of generation %d, the next ring node of %d", behind, ahead)
	}
	return rec
}

// crashRun is the run the crashes interrupt, on a world reopened over the
// base state: crashCommits commits, among them publishes that fold and
// auto-compactions that rebase deltas, each reclaiming what it superseded;
// before the last commit a node's disk replaced and the node repaired; and a
// Close that folds the last commit's record. It stops at the first operation
// the stopped file system fails, and returns how many versions are
// acknowledged: committed by a call that returned without error.
func crashRun(t *testing.T, w *crashWorld) (acked int) {
	t.Helper()
	ctx := t.Context()
	fail := func(what string, err error) bool {
		if err != nil && !w.stopped() {
			t.Fatalf("%s: %v", what, err)
		}
		return err != nil
	}
	for acked = crashBase; acked < crashBase+crashCommits; acked++ {
		if acked == crashBase+crashCommits-1 {
			err := w.disks[crashWiped].Wipe()
			if err == nil {
				_, err = w.gw.Repair(ctx, "a", crashWiped)
			}
			if fail("replacing a node", err) {
				return acked
			}
		}
		if _, err := w.gw.Commit(ctx, "a", -1, crashVersions()[acked]); fail(fmt.Sprintf("commit %d", acked+1), err) {
			return acked
		}
	}
	fail("closing", w.gw.Close(ctx))
	return acked
}

// verifyRestart starts the system with its nodes on nodes and its root on
// root and checks the crash contract: every acknowledged version is there,
// every version the reopened manifest names reads back byte-identical - a
// version beyond the acknowledged ones is the commit the crash interrupted -
// and no read fails, ErrCorrupt included. It reports whether the open asked
// the nodes for the manifest.
func verifyRestart(t *testing.T, what string, nodes *fsys.Recorder, root fsys.FS, acked int) (askedNodes bool) {
	t.Helper()
	w := openWorld(t, nodes, root, false)
	ctx := t.Context()
	info, err := w.gw.Info(ctx, "a")
	if err != nil {
		t.Fatalf("%s: reopening: %v", what, err)
	}
	versions := crashVersions()
	if info.Versions < acked || info.Versions > acked+1 {
		t.Fatalf("%s: reopened with %d versions, %d were acknowledged", what, info.Versions, acked)
	}
	for v := 1; v <= info.Versions; v++ {
		got, err := w.gw.Retrieve(ctx, "a", v)
		if err != nil {
			t.Fatalf("%s: version %d of %d: %v", what, v, info.Versions, err)
		}
		if !bytes.Equal(bytes.Join(got.Parts, nil), versions[v-1]) {
			t.Fatalf("%s: version %d of %d differs", what, v, info.Versions)
		}
	}
	return w.manifestReads.Load() > 0
}

// TestEveryCrashInstant enumerates the crash instants of a commit, a publish
// that folds, an auto-compaction with its reclaim, a node repair and a Close
// (crashRun): every mutating call the gateway root and the nodes make, in
// turn. At each the process dies - the call and every later one fail - and
// the system restarts three ways, its nodes after a power loss that dropped
// what they had not synced: from the root as the process left it, from the
// root after the same power loss, and from the nodes alone with the root
// lost. Each restart reads every acknowledged version back byte-identical.
// Each asks the nodes for the manifest, except a restart from the root as
// the process left it while the root holds a clean mark: before the run's
// first publish removes the base state's mark, and once its Close has
// renamed the new one into place. The count of instants is pinned, and namedInstants finds among them the
// five instants earlier tests picked by hand; each of those runs as a
// subtest under its name.
func TestEveryCrashInstant(t *testing.T) {
	base := crashBaseState(t)

	// A run without a crash: the instants, and what is written at each.
	dry := base.Clone()
	w := openWorld(t, dry, dry, true)
	if acked := crashRun(t, w); acked != crashBase+crashCommits {
		t.Fatalf("the run without a crash acknowledged %d versions", acked)
	}
	calls := dry.Calls()
	if len(calls) != crashInstants {
		t.Errorf("the run makes %d mutating calls, pinned at %d", len(calls), crashInstants)
	}
	named := namedInstants(t, calls, *w.spans)
	unmarked, marked := 0, 0 // the calls that remove and that write the mark
	for i, c := range calls {
		switch {
		case c.Op == "remove" && c.Path == "/gw/a.json.clean":
			unmarked = i + 1
		case c.Op == "rename" && c.Path == "/gw/a.json.clean":
			marked = i + 1
		}
	}
	if unmarked == 0 || marked < unmarked {
		t.Fatalf("the run removes the clean mark at call %d and writes it at call %d", unmarked, marked)
	}

	for at := 1; at <= len(calls); at++ {
		crashAt := func(t *testing.T) {
			run := base.Clone()
			run.StopAt(at)
			acked := crashRun(t, openWorld(t, run, run, false))
			process := run.Clone() // the machine as the process left it
			process.Restart()
			power := func() *fsys.Recorder { // and after a power loss
				p := run.Clone()
				p.Crash()
				p.Restart()
				return p
			}
			what := fmt.Sprintf("stopped at call %d of %d (%s %s)", at, len(calls), calls[at-1].Op, calls[at-1].Path)
			trusted := at <= unmarked || at > marked
			if asked := verifyRestart(t, what+", from the root as the process left it", power(), process, acked); asked == trusted {
				t.Errorf("%s, from the root as the process left it: the open asked the nodes %v, want %v", what, asked, !trusted)
			}
			onePower := power()
			if !verifyRestart(t, what+", from the root after a power loss", onePower, onePower, acked) {
				t.Errorf("%s, from the root after a power loss: the open trusted the root and asked the nodes nothing", what)
			}
			if !verifyRestart(t, what+", from the nodes with the root lost", power(), fsys.NewRecorder(), acked) {
				t.Errorf("%s, from the nodes with the root lost: the open asked the nodes nothing", what)
			}
		}
		if name, ok := named[at]; ok {
			t.Run(name, crashAt)
		} else {
			crashAt(t)
		}
	}
}

// namedInstants finds, in the calls and node batches of a run without a
// crash, five instants between writes that the manifest's order rests on,
// keyed by the call the crash stops at, and checks that the run has each:
// a record on its n-k+1 nodes before the commit is acknowledged, a fold's
// snapshot on the nodes before the records it replaces are deleted, the old
// tip's full codeword deleted after the record that stops naming it, and a
// Close between its fold and the root snapshot and between the snapshot and
// the mark.
func namedInstants(t *testing.T, calls []fsys.Call, spans []batchSpan) map[int]string {
	t.Helper()
	named := map[int]string{}
	find := func(name string, at int) {
		if at < 1 || at > len(calls) {
			t.Errorf("the run has no instant %q", name)
			return
		}
		named[at] = name
	}
	isRecord := func(s batchSpan) bool { return strings.Contains(s.object, "/manifest/") }
	after, deletes, fullDeleted := 0, 0, 0
	for i, s := range spans {
		switch {
		case s.op == "put" && isRecord(s) && after == 0 && (i+1 == len(spans) || !isRecord(spans[i+1])):
			after = s.to + 1 // the last put of the run's first record
		case s.op == "delete" && isRecord(s) && deletes == 0 && i > 0 && spans[i-1].object == "a/manifest":
			deletes = s.from + 1 // the first delete of a fold's records, after its snapshot
		case s.op == "delete" && strings.HasSuffix(s.object, "-full") && fullDeleted == 0 && (i+1 == len(spans) || spans[i+1].object != s.object):
			fullDeleted = s.to + 1 // the last node's delete of the old tip's full
		}
	}
	find("the record on the nodes, before the acknowledgement", after)
	find("between the fold's snapshot put and its record deletes", deletes)
	find("right after the old tip's full codeword is deleted", fullDeleted)

	// The root's calls are the mark's removal at the first publish and the
	// two files a Close writes, each whole into a temporary file and then
	// renamed: the two Close instants are the only ones between root writes.
	var root []string
	var closeFold, closeMark int
	for i, c := range calls {
		if !strings.HasPrefix(c.Path, "/gw/") {
			continue
		}
		switch {
		case c.Op == "create" && closeFold == 0:
			closeFold = i + 1
		case c.Op == "rename" && c.Path == "/gw/a.json":
			closeMark = i + 2
		}
		if c.Op == "rename" || c.Op == "remove" {
			root = append(root, c.Op+" "+c.Path)
		} else {
			root = append(root, c.Op)
		}
	}
	t.Run("what the run writes under the root", func(t *testing.T) {
		want := []string{"remove /gw/a.json.clean", "create", "write", "rename /gw/a.json", "create", "write", "rename /gw/a.json.clean"}
		if strings.Join(root, ", ") != strings.Join(want, ", ") {
			t.Errorf("the run made %v under the root, want %v", root, want)
		}
	})
	find("Close between its node fold and the root snapshot", closeFold)
	find("Close between the root snapshot and the mark", closeMark)
	return named
}
