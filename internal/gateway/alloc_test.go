package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// servedStack is the whole served read path on loopback: storage nodes
// behind their own servers, a gateway reaching them through RemoteNodes,
// the gateway behind its server, one dialled client.
func servedStack(t *testing.T, nodes int) *secclient.Client {
	t.Helper()
	remotes := make([]store.Node, nodes)
	for i := range remotes {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		remote := transport.NewRemoteNode(fmt.Sprintf("node-%d", i), addr.String(), transport.WithTimeout(10*time.Second))
		t.Cleanup(func() { _ = remote.Close(); _ = srv.Close() })
		remotes[i] = remote
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
	return client
}

// TestRetrieveAllocationPerByte bounds what a served read allocates, as a
// count: bytes allocated anywhere in the stack - node servers, gateway,
// client - per byte returned, for a 2 MB optimized-sec version stored in
// full. Each hop may allocate the buffer it reads the bytes into and the
// nodes the copy they hand out, the decode its blocks and the reply its
// object: five. The parent commit read 12.2 B/B here - the bytes copied
// again by every encoder and every "copy out of the frame" - and the bound
// is half of that, not a number tuned to pass.
func TestRetrieveAllocationPerByte(t *testing.T) {
	const bound = 6.0
	client := servedStack(t, 12)
	ctx := t.Context()
	if _, err := client.Create(ctx, "big", secclient.Spec{Scheme: "optimized-sec", N: 12, K: 10, BlockSize: 204800}); err != nil {
		t.Fatal(err)
	}
	object := make([]byte, 10*204800)
	rand.New(rand.NewSource(5)).Read(object)
	if _, err := client.Commit(ctx, "big", object); err != nil {
		t.Fatal(err)
	}
	read := func() {
		v, err := client.Retrieve(ctx, "big", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.Data, object) {
			t.Fatal("retrieved bytes differ from the committed object")
		}
	}
	read() // connections dialled, decode matrix cached
	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(reads*len(object))
	t.Logf("%.2f bytes allocated per byte returned", perByte)
	if perByte > bound {
		t.Errorf("a served 2 MB read allocates %.2f B/B, want at most %.1f", perByte, bound)
	}
}
