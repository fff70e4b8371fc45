package secclient_test

// Error-path coverage for the public SDK over real TCP: the store error
// taxonomy must survive the wire and come back from the Client's methods
// as errors.Is-testable sentinels — ErrBusy when a gateway's writer queue
// is saturated, ErrConflict when an optimistic CommitAt expectation is
// stale, and ErrNotServed when the dialed peer is a storage node rather
// than a gateway. Transport-level unit tests cover the codecs; these
// tests assert the contract application code actually programs against.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// gatedNode wraps a node so every write parks until the gate is released,
// closing entered (once, across all nodes) when the first write arrives.
// It models a slow storage device that keeps a writer slot occupied. The
// entered signal — not an Info poll — is how the test learns the slot is
// held: a commit parked inside CommitContext holds the archive's internal
// lock, so metadata reads would park behind it too.
type gatedNode struct {
	store.Node
	gate    chan struct{}
	entered chan struct{}
	once    *sync.Once
}

func (g *gatedNode) PutBatch(ctx context.Context, ids []store.ShardID, data [][]byte) []error {
	if strings.Contains(ids[0].Object, "/manifest") {
		return g.Node.PutBatch(ctx, ids, data) // manifest objects pass: only shard writes park
	}
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.gate:
	case <-ctx.Done():
		errs := make([]error, len(ids))
		for i := range errs {
			errs[i] = ctx.Err()
		}
		return errs
	}
	return g.Node.PutBatch(ctx, ids, data)
}

// startGateway serves a gateway over loopback TCP on the given cluster
// and returns its address.
func startGateway(t *testing.T, cluster *store.Cluster, maxQueued int) string {
	t.Helper()
	testutil.CheckGoroutineLeaks(t)
	gw, err := gateway.New(gateway.Config{Cluster: cluster, Root: t.TempDir(), MaxQueuedWriters: maxQueued})
	if err != nil {
		t.Fatal(err)
	}
	server := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = server.Close()
		_ = gw.Close(context.Background())
	})
	t.Cleanup(func() { testutil.CheckConnDrain(t, "gateway server", server.ConnCount) })
	return addr.String()
}

func dial(t *testing.T, addr string) *secclient.Client {
	t.Helper()
	client := secclient.Dial(addr, secclient.WithTimeout(30*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// TestClientErrBusyUnderSaturatedWriterQueue saturates an archive's
// writer queue (capacity 1) by parking a commit inside a gated node's
// write, then asserts the next commit through the SDK is rejected with a
// typed ErrBusy — immediately, not after queueing.
func TestClientErrBusyUnderSaturatedWriterQueue(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	nodes := make([]store.Node, 6)
	for i := range nodes {
		nodes[i] = &gatedNode{
			Node:    store.NewMemNode(fmt.Sprintf("gated-%d", i)),
			gate:    gate,
			entered: entered,
			once:    &once,
		}
	}
	addr := startGateway(t, store.NewCluster(nodes), 1)
	client := dial(t, addr)
	ctx := t.Context()

	// Create writes no shards, only its manifest, which the gate lets
	// through; only commits park.
	info, err := client.Create(ctx, "busy", secclient.Spec{N: 6, K: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, info.Capacity)

	// First commit parks inside a node write while holding the only writer slot.
	writer := dial(t, addr)
	var wg sync.WaitGroup
	wg.Add(1)
	var firstErr error
	go func() {
		defer wg.Done()
		_, firstErr = writer.Commit(ctx, "busy", payload)
	}()
	// Wait until the commit reaches a node write: by then it holds the only
	// writer slot, since the gateway acquires the slot before encoding.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first commit never reached a node write")
	}

	// The queue (capacity 1) is full: the SDK must surface a typed busy
	// rejection.
	_, err = client.Commit(ctx, "busy", payload)
	if !errors.Is(err, store.ErrBusy) {
		t.Fatalf("saturated queue: err = %v, want ErrBusy", err)
	}
	// And ErrBusy must NOT be conflated with the other sentinels.
	if errors.Is(err, store.ErrConflict) || errors.Is(err, store.ErrNotFound) {
		t.Errorf("busy rejection also matches conflict/notfound: %v", err)
	}

	// Release the gate: the parked commit completes cleanly, proving the
	// rejection did not corrupt the writer slot.
	close(gate)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("parked commit failed after release: %v", firstErr)
	}
	if _, err := client.Commit(ctx, "busy", payload); err != nil {
		t.Fatalf("commit after release: %v", err)
	}
}

// TestClientErrConflictOnStaleCommitAt drives optimistic concurrency
// through the SDK: a CommitAt whose expectation is stale must come back
// as a typed ErrConflict over the wire, and the archive must be left
// exactly as the winner wrote it.
func TestClientErrConflictOnStaleCommitAt(t *testing.T) {
	addr := startGateway(t, store.NewMemCluster(6), 0)
	client := dial(t, addr)
	ctx := t.Context()
	info, err := client.Create(ctx, "opt", secclient.Spec{N: 6, K: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, info.Capacity)
	for i := range payload {
		payload[i] = 0xAB
	}
	if _, err := client.CommitAt(ctx, "opt", 0, payload); err != nil {
		t.Fatalf("first CommitAt(expect=0): %v", err)
	}
	// A second writer with the same stale snapshot must lose, typed.
	loser := dial(t, addr)
	_, err = loser.CommitAt(ctx, "opt", 0, payload)
	if !errors.Is(err, store.ErrConflict) {
		t.Fatalf("stale CommitAt: err = %v, want ErrConflict", err)
	}
	if errors.Is(err, store.ErrBusy) {
		t.Errorf("conflict also matches busy: %v", err)
	}
	// The conflict changed nothing: still exactly one version, correct
	// bytes, and a fresh CommitAt with the right expectation succeeds.
	got, err := loser.Latest(ctx, "opt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("conflicted archive has %d versions, want 1", got.Version)
	}
	if _, err := loser.CommitAt(ctx, "opt", 1, payload); err != nil {
		t.Fatalf("CommitAt with corrected expectation: %v", err)
	}
}

// TestClientErrNotServedAgainstLegacyPeer dials a storage-node server —
// a peer that answers pings but serves no archive ops, like a gateway
// predating them — and asserts every archive method fails with a typed
// ErrNotServed while Available still reports the peer alive.
func TestClientErrNotServedAgainstLegacyPeer(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	server := transport.NewServer(store.NewMemNode("legacy"))
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	t.Cleanup(func() { testutil.CheckConnDrain(t, "legacy server", server.ConnCount) })
	client := dial(t, addr.String())
	ctx := t.Context()

	if !client.Available(ctx) {
		t.Fatal("legacy peer does not answer pings")
	}
	if _, err := client.Create(ctx, "a", secclient.Spec{N: 6, K: 4, BlockSize: 8}); !errors.Is(err, secclient.ErrNotServed) {
		t.Errorf("Create = %v, want ErrNotServed", err)
	}
	if _, err := client.Commit(ctx, "a", []byte("x")); !errors.Is(err, secclient.ErrNotServed) {
		t.Errorf("Commit = %v, want ErrNotServed", err)
	}
	if _, err := client.Latest(ctx, "a"); !errors.Is(err, secclient.ErrNotServed) {
		t.Errorf("Latest = %v, want ErrNotServed", err)
	}
	if _, err := client.Log(ctx, "a"); !errors.Is(err, secclient.ErrNotServed) {
		t.Errorf("Log = %v, want ErrNotServed", err)
	}
	if _, err := client.Info(ctx, "a"); !errors.Is(err, secclient.ErrNotServed) {
		t.Errorf("Info = %v, want ErrNotServed", err)
	}
}

// TestEmbedAndDialServeTheSameVersions runs Retrieve, Latest and RetrieveAll
// through an embedded and a dialled client of one gateway, on an archive
// with a decoded-version cache (which its commits filled, so both read
// hits, RetrieveAll as one) and one without (both read cold), and requires
// the same Data, Version and Stats from both. The embedded gateway hands out its decoded blocks as Parts; the
// client joins them into Data, a copy of the caller's own: writing into it
// changes nothing the next read returns.
func TestEmbedAndDialServeTheSameVersions(t *testing.T) {
	gw, err := gateway.New(gateway.Config{Cluster: store.NewMemCluster(6), Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close(context.Background()) })
	server := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	embedded, dialled := secclient.Embed(gw), dial(t, addr.String())
	ctx := t.Context()
	for _, cacheBytes := range []int{0, 1 << 20} {
		name := fmt.Sprintf("cache-%d", cacheBytes)
		info, err := embedded.Create(ctx, name, secclient.Spec{N: 6, K: 3, BlockSize: 16, ReadCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		object := make([]byte, info.Capacity-5) // the last block is padded
		for v := 1; v <= 3; v++ {
			object[(v%3)*16] = byte(v)
			if _, err := dialled.Commit(ctx, name, object); err != nil {
				t.Fatal(err)
			}
		}
		reads := map[string]func(c *secclient.Client) (secclient.Version, error){
			"v1":     func(c *secclient.Client) (secclient.Version, error) { return c.Retrieve(ctx, name, 1) },
			"v2":     func(c *secclient.Client) (secclient.Version, error) { return c.Retrieve(ctx, name, 2) },
			"latest": func(c *secclient.Client) (secclient.Version, error) { return c.Latest(ctx, name) },
		}
		for what, read := range reads {
			if cacheBytes > 0 {
				if _, err := read(embedded); err != nil {
					t.Fatal(err)
				}
			}
			e, err := read(embedded)
			if err != nil {
				t.Fatal(err)
			}
			d, err := read(dialled)
			if err != nil {
				t.Fatal(err)
			}
			if e.Version != d.Version || !bytes.Equal(e.Data, d.Data) || !reflect.DeepEqual(e.Stats, d.Stats) || e.Parts != nil {
				t.Errorf("%s %s: embedded v%d %+v (parts %d), dialled v%d %+v; data equal %v",
					name, what, e.Version, e.Stats, len(e.Parts), d.Version, d.Stats, bytes.Equal(e.Data, d.Data))
			}
			if cacheBytes > 0 && e.Stats.CacheHits != 1 {
				t.Errorf("%s %s: %+v, want a cache hit", name, what, e.Stats)
			}
			clear(e.Data)
			if again, err := read(dialled); err != nil || !bytes.Equal(again.Data, d.Data) {
				t.Errorf("%s %s: writing into an embedded read changed what the next read returns", name, what)
			}
		}
		eAll, eStats, err := embedded.RetrieveAll(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		dAll, dStats, err := dialled.RetrieveAll(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eAll, dAll) || !reflect.DeepEqual(eStats, dStats) || len(eAll) != 3 {
			t.Errorf("%s RetrieveAll: embedded %+v, dialled %+v; versions equal %v", name, eStats, dStats, reflect.DeepEqual(eAll, dAll))
		}
		if hit := eStats.CacheHits == 1 && eStats.NodeReads == 0; hit != (cacheBytes > 0) {
			t.Errorf("%s RetrieveAll: %+v, cache hit %v, want %v", name, eStats, hit, cacheBytes > 0)
		}
		clear(eAll[2])
		if again, _, err := dialled.RetrieveAll(ctx, name, 0); err != nil || !reflect.DeepEqual(again, dAll) {
			t.Errorf("%s: writing into an embedded RetrieveAll changed what the next one returns", name)
		}
	}
}
