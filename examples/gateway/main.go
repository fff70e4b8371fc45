// Gateway: archives as a shared, multi-user resource. One secgw-shaped
// gateway owns two archives over six TCP storage nodes; three concurrent
// clients — two competing writers and a reader — drive it over loopback
// TCP through the secclient SDK. Competing writers coordinate with
// optimistic commit preconditions, the reader is always served the exact
// bytes of whatever version it observes, and a warm shared read cache
// answers repeat reads with zero node RPCs.
//
// Run with: go run ./examples/gateway
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/secclient"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	const (
		n, k      = 6, 3
		blockSize = 1024
		versions  = 5
	)
	// Storage fleet: one TCP server per node, as cmd/secnode would run.
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		server := sec.NewNodeServer(sec.NewMemNode(fmt.Sprintf("node-%d", i)))
		addr, err := server.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer server.Close()
		client := sec.DialNode(fmt.Sprintf("node-%d", i), addr.String())
		defer client.Close()
		nodes[i] = client
	}

	// The gateway: one process owning the archives, as cmd/secgw would run.
	root, err := os.MkdirTemp("", "secgw-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	gw, err := sec.NewGateway(sec.GatewayConfig{Cluster: sec.NewCluster(nodes), Root: root})
	if err != nil {
		return err
	}
	defer gw.Close(context.Background())
	gwServer := sec.NewGatewayServer(gw)
	gwAddr, err := gwServer.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer gwServer.Close()
	fmt.Fprintf(w, "gateway serving archives over TCP\n\n")

	// Every client is a plain secclient.Dial against the gateway address;
	// none of them holds a manifest or talks to a storage node.
	setup := secclient.Dial(gwAddr.String())
	defer setup.Close()
	spec := secclient.Spec{N: n, K: k, BlockSize: blockSize, ReadCacheBytes: 1 << 20}
	for _, name := range []string{"wiki", "logs"} {
		if _, err := setup.Create(ctx, name, spec); err != nil {
			return err
		}
	}
	capacity := k * blockSize
	payload := func(version int) []byte {
		return bytes.Repeat([]byte{byte('a' + version)}, capacity)
	}

	// Two writers race commits on "wiki" with optimistic preconditions:
	// each expects the version count it last saw, and on a conflict it
	// re-reads and retries. Every version number is committed exactly once.
	var wg sync.WaitGroup
	conflicts, errs := make([]int, 2), make([]error, 2)
	for writer := 0; writer < 2; writer++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			client := secclient.Dial(gwAddr.String())
			defer client.Close()
			for {
				info, err := client.Info(ctx, "wiki")
				if err != nil {
					errs[writer] = err
					return
				}
				if info.Versions >= versions {
					return
				}
				_, err = client.CommitAt(ctx, "wiki", info.Versions, payload(info.Versions+1))
				switch {
				case errors.Is(err, sec.ErrConflict):
					conflicts[writer]++ // the other writer got there first: re-read, retry
				case err != nil:
					errs[writer] = err
					return
				}
			}
		}(writer)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(w, "two writers raced to %d versions: %d + %d optimistic conflicts retried\n",
		versions, conflicts[0], conflicts[1])

	// A reader sees exactly the committed bytes for every version.
	reader := secclient.Dial(gwAddr.String())
	defer reader.Close()
	for v := 1; v <= versions; v++ {
		got, err := reader.Retrieve(ctx, "wiki", v)
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Data, payload(v)) {
			return fmt.Errorf("version %d served wrong bytes", v)
		}
	}
	fmt.Fprintf(w, "reader verified all %d versions byte-identical over TCP\n\n", versions)

	// The shared read cache: the writer's reads warmed it, so a DIFFERENT
	// client's read of the tip is served from gateway memory.
	if _, err := reader.Latest(ctx, "wiki"); err != nil {
		return err
	}
	fresh := secclient.Dial(gwAddr.String())
	defer fresh.Close()
	got, err := fresh.Latest(ctx, "wiki")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fresh client read v%d: %d node reads, %d cache hits (shared cache, warmed by other clients)\n",
		got.Version, got.Stats.NodeReads, got.Stats.CacheHits)

	// The second archive is independent: its own chain, its own cache, its
	// own writer queue — one gateway, many archives.
	if _, err := setup.Commit(ctx, "logs", payload(1)); err != nil {
		return err
	}
	info, err := setup.Info(ctx, "logs")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "archive %q independent on the same gateway: %d version(s), %d live nodes\n",
		info.Manifest.Name, info.Versions, len(info.Nodes))

	stats := gw.Stats()
	fmt.Fprintf(w, "\ngateway totals: %d commits, %d retrieves, %d conflicts rejected typed\n",
		stats.Commits, stats.Retrieves, stats.Conflicts)
	return nil
}
