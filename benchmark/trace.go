package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// The traced run times calls at the four seams the benchmark itself owns;
// the program is not instrumented. From the outside in:
//
//	client   the secclient call, timed by the load generator
//	gateway  a transport.ArchiveBackend wrapped around the gateway
//	link     a store.BatchNode wrapped around each RemoteNode of the
//	         gateway's cluster (one span = one node RPC, seen by the caller)
//	node     a store.BatchNode wrapped around each MemNode handed to a
//	         node server (the same RPC, seen by the node)
//
// A traced run has one client, so at any instant at most one op is in
// flight: every span belongs to the op whose interval contains it, and no
// trace id has to cross the wire.
type seam uint8

const (
	seamClient seam = iota
	seamGateway
	seamLink
	seamNode
	numSeams
)

var seamNames = [numSeams]string{"client", "gateway", "link", "node"}

// MarshalText names the seam in the span file.
func (s seam) MarshalText() ([]byte, error) { return []byte(seamNames[s]), nil }

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Seam   seam   `json:"seam"`
	Name   string `json:"name"`
	Node   int    `json:"node"` // node index for link and node spans, -1 above them
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a client span
}

// tracer collects spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool  // spans are kept only while an op phase runs
	op    atomic.Int64 // the op in flight, set by the one client

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin returns the start stamp of a span, or 0 when nothing is recorded.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return int64(time.Since(t.epoch)) + 1
}

// end records the span begun at start.
func (t *tracer) end(s seam, name string, node int, start int64) {
	if start == 0 {
		return
	}
	end := int64(time.Since(t.epoch)) + 1
	t.mu.Lock()
	t.spans = append(t.spans, span{Seam: s, Name: name, Node: node, Op: t.op.Load(), Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// tracedBackend times the archive ops the load generator issues as the
// gateway sees them; the ops it does not issue pass through the embedded
// interface untimed.
type tracedBackend struct {
	transport.ArchiveBackend
	tr *tracer
}

func (b *tracedBackend) Create(ctx context.Context, name string, spec transport.ArchiveSpec) (transport.ArchiveInfo, error) {
	defer b.tr.end(seamGateway, "create", -1, b.tr.begin())
	return b.ArchiveBackend.Create(ctx, name, spec)
}

func (b *tracedBackend) Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	defer b.tr.end(seamGateway, "commit", -1, b.tr.begin())
	return b.ArchiveBackend.Commit(ctx, name, expect, object)
}

func (b *tracedBackend) Retrieve(ctx context.Context, name string, version int) (transport.ArchiveVersion, error) {
	defer b.tr.end(seamGateway, "retrieve", -1, b.tr.begin())
	return b.ArchiveBackend.Retrieve(ctx, name, version)
}

func (b *tracedBackend) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	defer b.tr.end(seamGateway, "retrieve_all", -1, b.tr.begin())
	return b.ArchiveBackend.RetrieveAll(ctx, name, version)
}

func (b *tracedBackend) Log(ctx context.Context, name string) ([]transport.ArchiveLogEntry, error) {
	defer b.tr.end(seamGateway, "log", -1, b.tr.begin())
	return b.ArchiveBackend.Log(ctx, name)
}

func (b *tracedBackend) Compact(ctx context.Context, name string, maxChain int) (transport.CompactReport, error) {
	defer b.tr.end(seamGateway, "compact", -1, b.tr.begin())
	return b.ArchiveBackend.Compact(ctx, name, maxChain)
}

// tracedNode times every shard call into the node it wraps. It serves both
// lower seams: around a RemoteNode it sees an RPC from the caller's side,
// around a MemNode the same RPC from the node's side. It always offers
// the batch calls, falling back per shard the way the store package does
// when the wrapped node has none.
type tracedNode struct {
	inner store.Node
	tr    *tracer
	seam  seam
	index int
}

var (
	_ store.Node      = (*tracedNode)(nil)
	_ store.BatchNode = (*tracedNode)(nil)
)

func (n *tracedNode) ID() string                         { return n.inner.ID() }
func (n *tracedNode) Available(ctx context.Context) bool { return n.inner.Available(ctx) }
func (n *tracedNode) Stats() store.NodeStats             { return n.inner.Stats() }
func (n *tracedNode) ResetStats()                        { n.inner.ResetStats() }

func (n *tracedNode) Put(ctx context.Context, id store.ShardID, data []byte) error {
	defer n.tr.end(n.seam, "put", n.index, n.tr.begin())
	return n.inner.Put(ctx, id, data)
}

func (n *tracedNode) Get(ctx context.Context, id store.ShardID) ([]byte, error) {
	defer n.tr.end(n.seam, "get", n.index, n.tr.begin())
	return n.inner.Get(ctx, id)
}

func (n *tracedNode) Delete(ctx context.Context, id store.ShardID) error {
	defer n.tr.end(n.seam, "delete", n.index, n.tr.begin())
	return n.inner.Delete(ctx, id)
}

func (n *tracedNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	defer n.tr.end(n.seam, "get_batch", n.index, n.tr.begin())
	return store.GetShards(ctx, n.inner, ids)
}

func (n *tracedNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	defer n.tr.end(n.seam, "put_batch", n.index, n.tr.begin())
	return store.PutShards(ctx, n.inner, ids, data)
}

func (n *tracedNode) DeleteBatch(ctx context.Context, ids []store.ShardID) []error {
	defer n.tr.end(n.seam, "delete_batch", n.index, n.tr.begin())
	return store.DeleteShards(ctx, n.inner, ids)
}

// opBreakdown is where one op's client-side latency went. The four parts
// are nested unions, so they add up to the client span exactly: the hop is
// what the client span has beyond the gateway span, the gateway's self time
// is what that has beyond the union of its node RPCs, the link is the part
// of that union in which no node was busy, and the rest is node busy time.
type opBreakdown struct {
	Hop, Gateway, Link, Node time.Duration
	RPCs, NodeCalls          int
}

// unionLen is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func unionLen(spans []*span, lo, hi int64) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end int64 = 0, lo
	for _, s := range spans {
		start, stop := max(s.Start, end), min(s.End, hi)
		if stop > start {
			total += stop - start
			end = stop
		}
	}
	return total
}

// resolve gives every span its parent and returns the breakdown of every
// traced op, in op order. A span's parent is the innermost span of the next
// seam out that contains it: link spans of one node rarely overlap, and when
// they do the latest-started container is the caller.
func (t *tracer) resolve() []opBreakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := make(map[int64][]int)
	var ops []int64
	for i := range t.spans {
		id := t.spans[i].Op
		if _, ok := byOp[id]; !ok {
			ops = append(ops, id)
		}
		byOp[id] = append(byOp[id], i)
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a] < ops[b] })
	out := make([]opBreakdown, 0, len(ops))
	for _, id := range ops {
		var bySeam [numSeams][]int
		for _, i := range byOp[id] {
			bySeam[t.spans[i].Seam] = append(bySeam[t.spans[i].Seam], i)
		}
		for s := seamGateway; s < numSeams; s++ {
			for _, i := range bySeam[s] {
				child := &t.spans[i]
				for _, j := range bySeam[s-1] {
					p := &t.spans[j]
					if p.Start > child.Start || p.End < child.End || (s == seamNode && p.Node != child.Node) {
						continue
					}
					if child.Parent < 0 || p.Start > t.spans[child.Parent].Start {
						child.Parent = j
					}
				}
			}
		}
		if len(bySeam[seamClient]) != 1 {
			continue // set-up traffic outside any op
		}
		root := &t.spans[bySeam[seamClient][0]]
		pick := func(s seam) []*span {
			spans := make([]*span, len(bySeam[s]))
			for i, j := range bySeam[s] {
				spans[i] = &t.spans[j]
			}
			return spans
		}
		gw := unionLen(pick(seamGateway), root.Start, root.End)
		link := unionLen(pick(seamLink), root.Start, root.End)
		node := unionLen(pick(seamNode), root.Start, root.End)
		total := root.End - root.Start
		out = append(out, opBreakdown{
			Hop:       time.Duration(total - gw),
			Gateway:   time.Duration(gw - link),
			Link:      time.Duration(link - node),
			Node:      time.Duration(node),
			RPCs:      len(bySeam[seamLink]),
			NodeCalls: len(bySeam[seamNode]),
		})
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	return nil
}
