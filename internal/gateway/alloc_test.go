package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// servedStack is the whole served read path on loopback: storage nodes
// behind their own servers, a gateway reaching them through RemoteNodes,
// the gateway behind its server, one dialled client.
func servedStack(t testing.TB, nodes int) *secclient.Client {
	client, _, _ := servedStackParts(t, nodes)
	return client
}

// servedStackParts is servedStack with the gateway and the node servers.
func servedStackParts(t testing.TB, nodes int) (*secclient.Client, *gateway.Gateway, []*transport.Server) {
	t.Helper()
	remotes := make([]store.Node, nodes)
	servers := make([]*transport.Server, nodes)
	for i := range remotes {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		remote := transport.NewRemoteNode(fmt.Sprintf("node-%d", i), addr.String(), transport.WithTimeout(10*time.Second))
		t.Cleanup(func() { _ = remote.Close(); _ = srv.Close() })
		remotes[i], servers[i] = remote, srv
	}
	gw, err := gateway.New(gateway.Config{Cluster: store.NewCluster(remotes), Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	server := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := secclient.Dial(addr.String(), secclient.WithTimeout(10*time.Second))
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		_ = gw.Close(context.Background())
	})
	return client, gw, servers
}

// TestUntracedRequestsAllocateNothingMore pins what tracing costs a request
// that carries no trace id: nothing. Every span site - the gateway's
// admission, persist and replicate, the archive's plan and decode, the
// cluster's per-node batches - is on the read measured here but the first
// three; a read the decoded-version cache serves allocates nothing at all,
// and one decoded from a (12,10) codeword over memory nodes allocates 184
// times: 197, as before the span sites were there, less the 13 of the
// version graph the planner no longer builds. The span sites themselves
// allocate nothing on an untraced context.
func TestUntracedRequestsAllocateNothingMore(t *testing.T) {
	ctx := t.Context()
	var ring obs.LazyRing
	if allocs := testing.AllocsPerRun(100, func() {
		ctx := obs.RecordInto(ctx, &ring)
		obs.Start(ctx, "persist").End()
		obs.Start(ctx, "node-put").EndBatch(3, 1)
	}); allocs != 0 {
		t.Errorf("span sites on an untraced context allocate %.1f times, want 0", allocs)
	}
	if ring.Spans(0) != nil {
		t.Error("an untraced context made the ring")
	}
	gw, err := gateway.New(gateway.Config{Cluster: store.NewMemCluster(12), Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close(context.Background()) })
	for _, read := range []struct {
		name   string
		cache  int
		allocs float64
	}{{"decoded", 0, 184}, {"cached", 1 << 20, 0}} {
		if _, err := gw.Create(ctx, read.name, secclient.Spec{N: 12, K: 10, BlockSize: 4096, ReadCacheBytes: read.cache}); err != nil {
			t.Fatal(err)
		}
		object := make([]byte, 10*4096)
		for v := 0; v < 3; v++ {
			object[v*4096] ^= 1
			if _, err := gw.Commit(ctx, read.name, -1, object); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			v, err := gw.Retrieve(ctx, read.name, 3)
			if err != nil {
				t.Fatal(err)
			}
			if v.Release != nil {
				v.Release()
			}
		})
		t.Logf("%s read: %.1f allocs", read.name, allocs)
		if allocs != read.allocs && !testutil.RaceEnabled {
			t.Errorf("an untraced %s read allocates %.1f times, want %.0f", read.name, allocs, read.allocs)
		}
	}
	if spans := gw.Spans(0); spans != nil {
		t.Errorf("untraced requests recorded %d spans", len(spans))
	}
}

// TestRetrieveAllocationPerByte bounds what a served read allocates, as a
// count: bytes allocated anywhere in the stack - node servers, gateway,
// client - per byte returned, for a 2 MB optimized-sec version stored in
// full. The nodes hand out the shards they store, the gateway reads their
// frames into the frame pool and releases them once decoded, decodes into
// pooled blocks that it lends to the reply and takes back once the reply is
// written, and the reply is spliced from those blocks: what is left is
// chiefly the frame the client reads the object into, one. Decoding into
// fresh blocks read 2.01 B/B here; lending pooled ones reads 1.28, and the
// bound is 1.5.
func TestRetrieveAllocationPerByte(t *testing.T) {
	retrieveAllocationPerByte(t, 0, 1.5)
}

// TestCachedRetrieveAllocationPerByte is the same count for a read the
// decoded-version cache serves: the reply is spliced from the cached blocks,
// so the frame the client reads the object into is all a hit allocates.
// The parent commit joined the cached blocks into a reply first: two B/B.
func TestCachedRetrieveAllocationPerByte(t *testing.T) {
	retrieveAllocationPerByte(t, 16<<20, 1.2)
}

// retrieveAllocationPerByte reads a 2 MB version eight times over the served
// stack, from an archive with the given read cache, and bounds the bytes
// allocated per byte returned. Under the race detector, which empties pools
// at random, the bound is not checked.
func retrieveAllocationPerByte(t *testing.T, cacheBytes int, bound float64) {
	client := servedStack(t, 12)
	ctx := t.Context()
	spec := secclient.Spec{Scheme: "optimized-sec", N: 12, K: 10, BlockSize: 204800, ReadCacheBytes: cacheBytes}
	if _, err := client.Create(ctx, "big", spec); err != nil {
		t.Fatal(err)
	}
	object := make([]byte, 10*204800)
	rand.New(rand.NewSource(5)).Read(object)
	if _, err := client.Commit(ctx, "big", object); err != nil {
		t.Fatal(err)
	}
	read := func() core.RetrievalStats {
		v, err := client.Retrieve(ctx, "big", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.Data, object) {
			t.Fatal("retrieved bytes differ from the committed object")
		}
		return v.Stats
	}
	read() // connections dialled, decode matrix cached, the version cached
	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if stats := read(); (stats.CacheHits == 1) != (cacheBytes > 0) {
			t.Fatalf("read stats %+v, want a cache hit: %v", stats, cacheBytes > 0)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(reads*len(object))
	t.Logf("%.2f bytes allocated per byte returned", perByte)
	if perByte > bound && !testutil.RaceEnabled {
		t.Errorf("a served 2 MB read allocates %.2f B/B, want at most %.1f", perByte, bound)
	}
}

// BenchmarkServedRetrieve is large_object's read as a Go benchmark: a 2 MB
// version of a (12,10) optimized-sec archive with 204 800-byte blocks and no
// read cache, stored in full, read over the served stack. ns/op is the
// read's latency and B/op what the whole stack allocates for it. The
// suite's scribbling (TestMain) is off while it runs, or every released
// frame and block set would be overwritten on the read's time.
func BenchmarkServedRetrieve(b *testing.B) {
	requests, frames, blocks := transport.ScribbleRequests, transport.ScribbleReleasedFrames, erasure.ScribbleReleasedBuffers
	transport.ScribbleRequests, transport.ScribbleReleasedFrames, erasure.ScribbleReleasedBuffers = false, false, false
	b.Cleanup(func() {
		transport.ScribbleRequests, transport.ScribbleReleasedFrames, erasure.ScribbleReleasedBuffers = requests, frames, blocks
	})
	client := servedStack(b, 12)
	ctx := b.Context()
	spec := secclient.Spec{Scheme: "optimized-sec", N: 12, K: 10, BlockSize: 204800}
	if _, err := client.Create(ctx, "big", spec); err != nil {
		b.Fatal(err)
	}
	object := make([]byte, 10*204800)
	rand.New(rand.NewSource(5)).Read(object)
	if _, err := client.Commit(ctx, "big", object); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(object)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Retrieve(ctx, "big", 1); err != nil {
			b.Fatal(err)
		}
	}
}
