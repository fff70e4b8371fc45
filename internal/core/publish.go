package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/secarchive/sec/internal/store"
)

// publishState is what the nodes hold of the archive's manifest, as far as
// its publishes know: a snapshot, <name>/manifest, of generation folded and
// snapBytes bytes, and the records that extend it, one per publish since,
// <name>/manifest/<generation>. Each is on n-k+1 nodes, so that it survives
// what the codewords it describes survive.
type publishState struct {
	mu sync.Mutex // orders publishes
	// snapBytes is zero after Create and Open, so their first publish
	// folds. An open from a trusted root takes it from the root, which is
	// the snapshot the nodes hold.
	snapBytes int
	// held is the bytes of the records since the fold on each node, where
	// their rings put them when every put succeeds.
	held   map[int]int
	folded uint64
	// refold makes the next publish fold whatever the sizes: a publish
	// failed, leaving the archive unpublished; the archive was loaded from
	// the nodes, which may hold writes beyond what the load saw; or a node
	// was rebuilt, which lost its copies with its shards. RepairNodeContext
	// sets it under the archive lock, which a publish takes after mu.
	refold atomic.Bool
}

// PublishContext makes the archive's changes since the last publish durable
// on the nodes: one record, of the next generation, on n-k+1 nodes. Then it
// folds when the records on one of its nodes would outweigh the snapshot
// they extend, when a fold is owed (publishState.refold), and, with fold
// set, whenever a record extends the snapshot: it replicates a snapshot of
// the whole manifest to n-k+1 nodes and then deletes the records it
// replaces from every node, best effort. The rule is geometric, so a
// publish costs amortised O(1) bytes. While every put succeeds a node holds
// at most a snapshot's worth of records, and a load from the nodes, which
// asks every node, replays at most n snapshots' worth. With nothing changed
// and no fold owed or asked for, it sends nothing. With fold set it returns
// the snapshot the nodes then hold, byte for byte (nodeformat.go), which
// OpenContext takes back; it is encoded from a copy of the chain after the
// lock. It fails, before anything further, when the record or the snapshot
// reached fewer than n-k+1 nodes: the archive is then unpublished, and the
// next publish folds. Publishes run one at a time.
func (a *Archive) PublishContext(ctx context.Context, fold bool) ([]byte, error) {
	//lint:allow lockheld each publish is the successor of the one before it: they go one at a time
	a.pub.mu.Lock()
	defer a.pub.mu.Unlock()
	a.mu.Lock()
	record := a.nextRecordLocked()
	var ring []int
	if record != nil {
		ring = a.ManifestRing(a.generation)[:a.cfg.N-a.cfg.K+1]
	}
	gen, most := a.generation, 0
	for _, node := range ring {
		most = max(most, a.pub.held[node]+len(record))
	}
	// Every generation past the snapshot's is a record that extends it.
	folding := a.pub.refold.Load() || record != nil && most > a.pub.snapBytes || fold && gen > a.pub.folded
	var entries []entry
	if folding || fold {
		entries = slices.Clone(a.entries)
	}
	a.mu.Unlock()

	var snap []byte
	if folding || fold {
		snap = a.nodeSnapshot(gen, entries)
	}
	var err error
	if record != nil {
		err = a.replicate(ctx, recordID(a.cfg.Name, gen), record)
	}
	if err == nil && folding {
		if err = a.replicate(ctx, manifestID(a.cfg.Name), snap); err == nil {
			a.cluster.DeleteBatch(ctx, onEveryNode(a.cluster, recordIDs(a.cfg.Name, a.pub.folded+1, gen)...))
		}
	}
	if err != nil {
		a.pub.refold.Store(true)
		return nil, err
	}
	if folding {
		a.pub.snapBytes, a.pub.folded = len(snap), gen
		clear(a.pub.held)
		a.pub.refold.Store(false)
	} else if record != nil {
		if a.pub.held == nil {
			a.pub.held = make(map[int]int)
		}
		for _, node := range ring {
			a.pub.held[node] += len(record)
		}
	}
	return snap, nil
}

// CreateContext creates the named archive from spec and replicates its
// first snapshot to n-k+1 nodes, once every node has answered that it holds
// no snapshot of the name: one that does makes it store.ErrConflict, and
// while a node cannot answer the create fails with its error, as that node
// may hold one.
func CreateContext(ctx context.Context, name string, spec Spec, cluster *store.Cluster) (*Archive, error) {
	a, err := Open(spec.Manifest(name), cluster)
	if err != nil {
		return nil, err
	}
	switch _, _, err := manifestFromCluster(ctx, name, cluster); {
	case err == nil:
		return nil, fmt.Errorf("core: archive %q already exists on the nodes: %w", name, store.ErrConflict)
	case !errors.Is(err, store.ErrNotFound):
		return nil, fmt.Errorf("core: creating archive %q: %w", name, err)
	}
	if err := a.replicate(ctx, manifestID(name), a.nodeSnapshot(a.generation, a.entries)); err != nil {
		return nil, err
	}
	return a, nil
}

// OpenContext reopens the named archive from the manifest its publishes left
// on the nodes (manifestFromCluster). Given cached - the snapshot as
// PublishContext returned it with fold set, which the caller vouches is all
// the nodes hold - it opens that and asks the nodes nothing; a manifest of
// another archive is store.ErrConflict.
//
// A load from the nodes leaves the next publish a fold two generations past
// what it read. The nodes may hold writes beyond it that the load did not
// see: a writer that crashed may have left, on fewer than n-k+1 nodes now
// down, a record one generation past it and the snapshot of a fold at that
// same generation. Skipping two generations puts the fold strictly above
// both, where no load reads them.
func OpenContext(ctx context.Context, name string, cluster *store.Cluster, cached []byte) (*Archive, error) {
	if cached != nil {
		a, err := Load(bytes.NewReader(cached), cluster)
		switch {
		case err != nil:
			return nil, err
		case a.cfg.Name != name:
			return nil, fmt.Errorf("core: the manifest of %q names archive %q: %w", name, a.cfg.Name, store.ErrConflict)
		}
		a.pub.snapBytes = len(cached)
		return a, nil
	}
	m, snapshot, err := manifestFromCluster(ctx, name, cluster)
	if err != nil {
		return nil, err
	}
	m.Generation += 2
	a, err := Open(m, cluster)
	if err != nil {
		return nil, err
	}
	a.pub.folded = snapshot
	a.pub.refold.Store(true)
	return a, nil
}
