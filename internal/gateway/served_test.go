package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// TestMain runs the suite with every served connection overwriting its
// request buffer once the request has been handled, every pooled frame
// overwritten once its shards are released, and every set of decoded blocks
// once its reply is written: the served tests pass only if the gateway, its
// archives and their nodes kept no slice of any of them.
func TestMain(m *testing.M) {
	transport.ScribbleRequests = true
	transport.ScribbleReleasedFrames = true
	erasure.ScribbleReleasedBuffers = true
	os.Exit(m.Run())
}

// servedGateway is one secgw-shaped fixture: a gateway over in-memory
// nodes, served on loopback TCP.
type servedGateway struct {
	gw      *gateway.Gateway
	server  *transport.Server
	cluster *store.Cluster
	addr    string
}

func startServedGateway(t *testing.T) *servedGateway {
	t.Helper()
	// Registered before any fixture cleanup, so it runs last (t.Cleanup is
	// LIFO): the whole fixture must tear down without leaking a goroutine.
	testutil.CheckGoroutineLeaks(t)
	cluster := store.NewMemCluster(6)
	gw, err := gateway.New(gateway.Config{Cluster: cluster, Root: t.TempDir()})
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
	// Registered after the close cleanup, so it polls while the server is
	// still up, once every client (whose cleanups run first) has closed:
	// client disconnects must drain the server's connection set.
	t.Cleanup(func() { testutil.CheckConnDrain(t, "gateway server", server.ConnCount) })
	return &servedGateway{gw: gw, server: server, cluster: cluster, addr: addr.String()}
}

func (s *servedGateway) dial(t *testing.T) *secclient.Client {
	t.Helper()
	client := secclient.Dial(s.addr, secclient.WithTimeout(5*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// payloadFor builds a deterministic capacity-sized object for a version of
// a named archive, so every client can verify bytes independently.
func servedPayload(name string, capacity, version int) []byte {
	seed := byte(len(name)) + name[0]
	p := make([]byte, capacity)
	for i := range p {
		p[i] = byte(i*31+version*7) + seed
	}
	return p
}

// TestServedCacheCoherenceAcrossClients is the shared-read-cache contract:
// two clients of one gateway share one decoded-version cache, a second
// client's warm read is served from gateway memory with zero node reads,
// and a commit by one writer is what every other client's next latest
// read returns, while the versions cached before it, which no commit
// changes, stay byte-identical — the second client never reads stale bytes.
func TestServedCacheCoherenceAcrossClients(t *testing.T) {
	fixture := startServedGateway(t)
	writer := fixture.dial(t)
	reader := fixture.dial(t)
	ctx := t.Context()

	spec := secclient.Spec{N: 6, K: 4, BlockSize: 8, ReadCacheBytes: 1 << 20}
	info, err := writer.Create(ctx, "shared", spec)
	if err != nil {
		t.Fatal(err)
	}
	capacity := info.Capacity

	v1 := servedPayload("shared", capacity, 1)
	if _, err := writer.Commit(ctx, "shared", v1); err != nil {
		t.Fatal(err)
	}

	// The writer's read warms the shared cache...
	if _, err := writer.Latest(ctx, "shared"); err != nil {
		t.Fatal(err)
	}
	// ...so the OTHER client's read of the same version is a cache hit:
	// zero node reads, served from gateway memory.
	fixture.cluster.ResetStats()
	rgot, err := reader.Retrieve(ctx, "shared", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rgot.Data, v1) {
		t.Fatal("reader saw different bytes than the writer committed")
	}
	if rgot.Stats.CacheHits == 0 || rgot.Stats.NodeReads != 0 {
		t.Errorf("warm cross-client read: stats = %+v, want a cache hit with zero node reads", rgot.Stats)
	}
	if reads := fixture.cluster.TotalStats().Reads; reads != 0 {
		t.Errorf("warm cross-client read issued %d node get RPCs, want 0", reads)
	}

	// A second writer commit must invalidate what the reader sees: the
	// reader's next latest-read returns the new version's bytes, never the
	// cached old ones.
	v2 := servedPayload("shared", capacity, 2)
	if _, err := writer.Commit(ctx, "shared", v2); err != nil {
		t.Fatal(err)
	}
	rgot, err = reader.Latest(ctx, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Version != 2 || !bytes.Equal(rgot.Data, v2) {
		t.Fatalf("reader served stale data after cross-client commit: v%d", rgot.Version)
	}
	// The old version is still intact and correct.
	rgot, err = reader.Retrieve(ctx, "shared", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rgot.Data, v1) {
		t.Error("version 1 corrupted by invalidation")
	}
}

// TestServedCacheUnderCommitAndCompact races readers against a writer on
// one cached archive: the writer commits a chain of sparse edits and
// compacts it every few commits, while readers issue Retrieve, Latest and
// RetrieveAll over TCP. The cache keeps every version across both, so most
// reads are hits; every read must still return the committed bytes of the
// version it names, and Latest must never trail a commit acknowledged
// before it was asked. Run under -race in CI.
func TestServedCacheUnderCommitAndCompact(t *testing.T) {
	fixture := startServedGateway(t)
	ctx := t.Context()
	const name, versionsTotal, readers, compactEvery = "raced", 24, 3, 4
	writer := fixture.dial(t)
	info, err := writer.Create(ctx, name, secclient.Spec{N: 6, K: 4, BlockSize: 8, ReadCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// versions[v] is version v's bytes: each edits one byte of the last,
	// so the chain is all gamma = 1 deltas and compaction has work.
	versions := [][]byte{nil, servedPayload(name, info.Capacity, 1)}
	for v := 2; v <= versionsTotal; v++ {
		next := bytes.Clone(versions[v-1])
		next[(v%4)*8+v%8] = byte(v)
		versions = append(versions, next)
	}
	if _, err := writer.Commit(ctx, name, versions[1]); err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64 // the highest version a commit acknowledged
	acked.Store(1)

	done := make(chan struct{})
	var hits [3]atomic.Int64 // cache-served Retrieve, Latest and RetrieveAll
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := secclient.Dial(fixture.addr, secclient.WithTimeout(5*time.Second))
			defer client.Close()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				floor := int(acked.Load())
				switch i % 3 {
				case 0:
					v := 1 + i%floor
					got, err := client.Retrieve(ctx, name, v)
					if err != nil || got.Version != v || !bytes.Equal(got.Data, versions[v]) {
						t.Errorf("Retrieve v%d: served v%d, %v", v, got.Version, err)
						return
					}
					if got.Stats.CacheHits > 0 {
						hits[0].Add(1)
					}
				case 1:
					got, err := client.Latest(ctx, name)
					if err != nil || got.Version < floor || got.Version > versionsTotal || !bytes.Equal(got.Data, versions[got.Version]) {
						t.Errorf("Latest after v%d was acknowledged: v%d, %v", floor, got.Version, err)
						return
					}
					if got.Stats.CacheHits > 0 {
						hits[1].Add(1)
					}
				case 2:
					all, stats, err := client.RetrieveAll(ctx, name, floor)
					if err != nil || len(all) != floor {
						t.Errorf("RetrieveAll through v%d: %d versions, %v", floor, len(all), err)
						return
					}
					for j, data := range all {
						if !bytes.Equal(data, versions[j+1]) {
							t.Errorf("RetrieveAll through v%d: v%d differs from its commit (%+v)", floor, j+1, stats)
							return
						}
					}
					if stats.CacheHits > 0 {
						hits[2].Add(1)
					}
				}
			}
		}()
	}

	compactions := 0
	for v := 2; v <= versionsTotal; v++ {
		ci, err := writer.Commit(ctx, name, versions[v])
		if err != nil || ci.Version != v {
			t.Errorf("commit v%d: acknowledged v%d, %v", v, ci.Version, err)
			break
		}
		acked.Store(int64(v))
		if v%compactEvery == 0 {
			report, err := writer.Compact(ctx, name, 1)
			if err != nil {
				t.Errorf("compact after v%d: %v", v, err)
				break
			}
			if report.Info.Changed() {
				compactions++
			}
		}
	}
	close(done)
	wg.Wait()
	if compactions == 0 {
		t.Error("no compaction rewrote the chain; the race exercised commits only")
	}
	for i, what := range []string{"Retrieve", "Latest", "RetrieveAll"} {
		if hits[i].Load() == 0 {
			t.Errorf("no %s was served from the cache", what)
		}
	}
	// The cache served most reads; what the compactions stored under it
	// must read back the same through a cold archive of the manifest the
	// nodes hold.
	cold, err := core.OpenContext(ctx, name, fixture.cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, stats, err := cold.RetrieveAllContext(ctx, versionsTotal)
	if err != nil {
		t.Fatal(err)
	}
	for j, data := range all {
		if !bytes.Equal(data, versions[j+1]) {
			t.Errorf("cold read of v%d differs from its commit (%+v)", j+1, stats)
		}
	}
}

// TestServedConcurrentClients serves two archives from one gateway to a
// crowd of concurrent TCP clients mixing commits, retrieves, and log
// reads. Every retrieved version must be byte-identical to what its
// version number dictates, optimistic-commit conflicts and busy
// rejections must be the only write failures, and tearing the fixture
// down must leak no goroutines. Run under -race in CI.
func TestServedConcurrentClients(t *testing.T) {
	fixture := startServedGateway(t)
	ctx := t.Context()
	archives := []string{"alpha", "beta"}
	const versionsPerArchive = 6
	const readersPerArchive = 2

	setup := fixture.dial(t)
	capacity := 0
	for _, name := range archives {
		info, err := setup.Create(ctx, name, secclient.Spec{N: 6, K: 4, BlockSize: 8, ReadCacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		capacity = info.Capacity
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(archives)*(2+readersPerArchive))

	// Two competing writers per archive race CommitAt on the same expected
	// versions; conflict and busy rejections are re-read-and-retried, so
	// the committed sequence stays exactly payload(1..versionsPerArchive).
	for _, name := range archives {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				client := secclient.Dial(fixture.addr, secclient.WithTimeout(5*time.Second))
				defer client.Close()
				for {
					info, err := client.Info(ctx, name)
					if err != nil {
						errc <- fmt.Errorf("info %s: %w", name, err)
						return
					}
					v := info.Versions
					if v >= versionsPerArchive {
						return
					}
					_, err = client.CommitAt(ctx, name, v, servedPayload(name, capacity, v+1))
					if err != nil && !errors.Is(err, store.ErrConflict) && !errors.Is(err, store.ErrBusy) {
						errc <- fmt.Errorf("commit %s v%d: %w", name, v+1, err)
						return
					}
				}
			}(name)
		}
	}

	// Readers hammer retrieve and log while the writers commit: whatever
	// version they observe must carry exactly its dictated bytes.
	for _, name := range archives {
		for r := 0; r < readersPerArchive; r++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				client := secclient.Dial(fixture.addr, secclient.WithTimeout(5*time.Second))
				defer client.Close()
				for {
					entries, err := client.Log(ctx, name)
					if err != nil {
						errc <- fmt.Errorf("log %s: %w", name, err)
						return
					}
					if len(entries) == 0 {
						continue
					}
					got, err := client.Latest(ctx, name)
					if err != nil {
						// The latest version can be superseded between the
						// log and the read on a torn snapshot; only real
						// failures count.
						if errors.Is(err, store.ErrNotFound) {
							continue
						}
						errc <- fmt.Errorf("latest %s: %w", name, err)
						return
					}
					if !bytes.Equal(got.Data, servedPayload(name, capacity, got.Version)) {
						errc <- fmt.Errorf("%s v%d served wrong bytes", name, got.Version)
						return
					}
					if got.Version >= versionsPerArchive {
						return
					}
				}
			}(name)
		}
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every version of every archive is byte-identical for a fresh client.
	final := fixture.dial(t)
	for _, name := range archives {
		versions, _, err := final.RetrieveAll(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(versions) != versionsPerArchive {
			t.Fatalf("%s has %d versions, want %d", name, len(versions), versionsPerArchive)
		}
		for i, data := range versions {
			if !bytes.Equal(data, servedPayload(name, capacity, i+1)) {
				t.Errorf("%s v%d not byte-identical", name, i+1)
			}
		}
	}

	// Teardown is checked by the fixture: the conn-drain and
	// goroutine-leak cleanups registered in startServedGateway run after
	// every client cleanup has closed its connection.
}

// TestServedGracefulShutdownPersists drives the secgw shutdown sequence:
// stop the server, close the gateway, and a fresh gateway over the same
// root serves the same bytes.
func TestServedGracefulShutdownPersists(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	cluster := store.NewMemCluster(6)
	root := t.TempDir()
	gw, err := gateway.New(gateway.Config{Cluster: cluster, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	server := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := secclient.Dial(addr.String(), secclient.WithTimeout(5*time.Second))
	ctx := t.Context()
	if _, err := client.Create(ctx, "a", secclient.Spec{N: 6, K: 4, BlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	want := servedPayload("a", 32, 1)
	if _, err := client.Commit(ctx, "a", want); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	if err := server.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(ctx); err != nil {
		t.Fatal(err)
	}

	gw2, err := gateway.New(gateway.Config{Cluster: cluster, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close(context.Background())
	got, err := secclient.Embed(gw2).Retrieve(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Error("restarted gateway served different bytes")
	}
}
