package gateway

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
)

// probeGate parks every liveness probe of the nodes that share it until the
// test lets the round through, and counts the probes that have arrived: a
// reader that probes its nodes one after another never gets a second one to
// the gate while the first is parked.
type probeGate struct {
	mu      sync.Mutex
	armed   bool
	arrived int           // probes that reached the gate, ever
	parked  int           // probes waiting at it now
	open    chan struct{} // closed to let the parked round through
}

func (g *probeGate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed, g.open = true, make(chan struct{})
}

// wait parks the caller until the round is released or its context is done.
func (g *probeGate) wait(ctx context.Context) {
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return
	}
	g.arrived++
	g.parked++
	open := g.open
	g.mu.Unlock()
	select {
	case <-open:
	case <-ctx.Done():
	}
	g.mu.Lock()
	g.parked--
	g.mu.Unlock()
}

func (g *probeGate) counts() (arrived, parked int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.arrived, g.parked
}

// releaseRound lets every parked probe through; later probes park again.
func (g *probeGate) releaseRound() {
	g.mu.Lock()
	defer g.mu.Unlock()
	close(g.open)
	g.open = make(chan struct{})
}

// gatedNode is a MemNode whose probes go through a probeGate and whose next
// failGets batch reads fail as if the node had dropped the connection.
type gatedNode struct {
	*store.MemNode
	gate     *probeGate
	failGets *atomic.Int32
}

func (n gatedNode) Available(ctx context.Context) bool {
	n.gate.wait(ctx)
	return ctx.Err() == nil && n.MemNode.Available(ctx)
}

func (n gatedNode) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	if n.failGets.Add(-1) < 0 {
		return n.MemNode.GetBatch(ctx, ids)
	}
	results := make([]store.ShardResult, len(ids))
	for i := range results {
		results[i].Err = fmt.Errorf("%w: injected", store.ErrNodeDown)
	}
	return results
}

// TestLivenessProbesRunConcurrently pins that whoever asks several nodes
// whether they are up asks them in one round, not one after another.
// Gateway.Info asks every node of a (12,10) archive: all 12 pings must be
// parked at once before any is answered. A retrieval asks nobody it has heard
// from - its prefetch parks nothing - but once the k batches of the prefetch
// have failed, the per-object fallback read doubts exactly those k nodes and
// must have their k pings parked at once. A cancelled context must free every
// parked probe.
func TestLivenessProbesRunConcurrently(t *testing.T) {
	const n, k = 12, 10
	gate := &probeGate{}
	failGets := &atomic.Int32{}
	nodes := make([]store.Node, n)
	for i := range nodes {
		nodes[i] = gatedNode{MemNode: store.NewMemNode(fmt.Sprintf("mem-%d", i)), gate: gate, failGets: failGets}
	}
	g := newTestGateway(t, Config{Cluster: store.NewCluster(nodes)})
	if _, err := g.Create(t.Context(), "probed", transport.ArchiveSpec{N: n, K: k, BlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	object := payloadFor(k*8, 1)
	if _, err := g.Commit(t.Context(), "probed", 0, object); err != nil {
		t.Fatal(err)
	}
	gate.arm()
	// Nothing is released between rounds, so a round's arrivals are that
	// many probes parked at once.
	expected := 0
	allParked := func(t *testing.T, what string, round int) {
		t.Helper()
		expected += round
		testutil.MustWaitFor(t, 5*time.Second, func() bool { arrived, _ := gate.counts(); return arrived == expected },
			what+": the probes of one round are not all in flight at once")
	}

	t.Run("Info", func(t *testing.T) {
		done := make(chan transport.ArchiveInfo, 1)
		go func() {
			info, err := g.Info(t.Context(), "probed")
			if err != nil {
				t.Error(err)
			}
			done <- info
		}()
		allParked(t, "Info", n)
		gate.releaseRound()
		for _, node := range (<-done).Nodes {
			if !node.Up {
				t.Errorf("node %d reported down", node.Health.Node)
			}
		}
	})

	t.Run("fallback read", func(t *testing.T) {
		// The prefetch reads k nodes: each of those batches fails, on every
		// one of the cluster's 3 attempts.
		failGets.Store(3 * k)
		done := make(chan transport.ArchiveVersion, 1)
		go func() {
			got, err := g.Retrieve(t.Context(), "probed", 1)
			if err != nil {
				t.Error(err)
			}
			done <- got
		}()
		allParked(t, "fallback read", k)
		gate.releaseRound()
		if got := <-done; !bytes.Equal(bytes.Join(got.Parts, nil), object) {
			t.Error("content mismatch after the fallback read")
		}
		if arrived, _ := gate.counts(); arrived != expected {
			t.Errorf("the read sent %d pings, want %d: the doubted nodes, once", arrived-expected+k, k)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(t.Context())
		done := make(chan transport.ArchiveInfo, 1)
		go func() {
			info, _ := g.Info(ctx, "probed")
			done <- info
		}()
		allParked(t, "Info", n)
		cancel()
		for _, node := range (<-done).Nodes {
			if node.Up {
				t.Errorf("node %d reported up by a cancelled probe", node.Health.Node)
			}
		}
		if _, parked := gate.counts(); parked != 0 {
			t.Errorf("%d probes still parked after the context was cancelled", parked)
		}
	})
}
