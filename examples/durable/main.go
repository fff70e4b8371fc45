// Durable: a SEC archive over disk-backed TCP storage nodes that survives
// a full cluster crash and restart, plus on-disk bit rot.
//
// Six node servers run in-process over temporary directories (what six
// `secnode -data DIR` processes would provide). The walkthrough commits a
// few versions, kills every node, restarts them over the same directories,
// reads the whole history back, then flips a bit in one shard file on disk
// and shows the damage being detected (CRC32C at read time) and healed by
// a repairing scrub.
//
// Run with: go run ./examples/durable
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	sec "github.com/secarchive/sec"
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
	)
	base, err := os.MkdirTemp("", "sec-durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Start one disk-backed TCP server per storage node.
	dirs := make([]string, n)
	servers := make([]*sec.NodeServer, n)
	clients := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(base, fmt.Sprintf("node-%d", i))
		node, err := sec.NewDiskNode(fmt.Sprintf("node-%d", i), dirs[i])
		if err != nil {
			return err
		}
		server := sec.NewNodeServer(node)
		addr, err := server.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		servers[i] = server
		client := sec.DialNode(fmt.Sprintf("node-%d", i), addr.String())
		defer client.Close()
		clients[i] = client
	}
	fmt.Fprintf(w, "%d disk-backed storage nodes serving over TCP\n", n)

	cluster := sec.NewCluster(clients)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "durable",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	versions := make([][]byte, 0, 3)
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	for i := 0; i < 3; i++ {
		if i > 0 {
			if v, err = sec.SparseEdit(rng, v, blockSize, 1); err != nil {
				return err
			}
		}
		info, err := archive.CommitContext(ctx, v)
		if err != nil {
			return err
		}
		versions = append(versions, v)
		fmt.Fprintf(w, "committed v%d: %d shard writes, all fsynced to disk\n", info.Version, info.ShardWrites)
	}
	manifest := archive.Manifest()

	// Crash the whole cluster: every server goes away. With MemNodes this
	// would be the end of the archive; the disk nodes only lose their
	// processes.
	fmt.Fprintln(w, "\ncrashing all six nodes...")
	addrs := make([]string, n)
	for i, s := range servers {
		addrs[i] = mustAddr(clients[i])
		if err := s.Close(); err != nil {
			return err
		}
	}
	if _, _, err := archive.RetrieveContext(ctx, 1); err != nil {
		fmt.Fprintf(w, "retrieval now fails as expected: %v\n", err)
	} else {
		return fmt.Errorf("retrieval unexpectedly succeeded with every node dead")
	}

	// Restart each node over its directory, on the same address. A fresh
	// archive handle (as a new client process would build) reads the whole
	// history back from disk.
	fmt.Fprintln(w, "\nrestarting all six nodes over the same directories...")
	restarted := make([]*sec.DiskNode, n)
	for i := range servers {
		node, err := sec.OpenDiskNode(fmt.Sprintf("node-%d", i), dirs[i])
		if err != nil {
			return err
		}
		restarted[i] = node
		server := sec.NewNodeServer(node)
		if _, err := server.Listen(addrs[i]); err != nil {
			return err
		}
		defer server.Close()
		// Ping the node, as an operator confirms a restart: the cluster
		// remembers it failing in the crash, and may keep a node whose
		// failure was slow out of its reads for a second unless it answers.
		if !cluster.Available(ctx, i) {
			return fmt.Errorf("node %d is not answering after its restart", i)
		}
		fmt.Fprintf(w, "node %d: %d shards back online\n", i, node.Len())
	}
	restored, err := sec.OpenArchive(manifest, cluster)
	if err != nil {
		return err
	}
	for l, want := range versions {
		got, _, err := restored.RetrieveContext(ctx, l+1)
		if err != nil {
			return fmt.Errorf("version %d after restart: %w", l+1, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("version %d mismatch after restart", l+1)
		}
	}
	fmt.Fprintf(w, "all %d versions retrieved intact after the restart\n", len(versions))

	// Bit rot: flip one bit in one shard file on node 4's disk. The node's
	// per-shard CRC32C catches it at read time and a repairing scrub
	// rewrites the shard from the surviving rows.
	fmt.Fprintln(w, "\nflipping one bit in a shard file on node 4's disk...")
	if err := flipOneBit(restarted[4]); err != nil {
		return err
	}
	report, err := restored.ScrubContext(ctx, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scrub: %d corrupt shard detected, %d repaired\n", report.ShardsCorrupt, report.Repaired)
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		return fmt.Errorf("unexpected scrub report %+v", report)
	}
	report, err = restored.ScrubContext(ctx, false)
	if err != nil {
		return err
	}
	if report.ShardsCorrupt != 0 || report.ShardsMissing != 0 {
		return fmt.Errorf("archive still damaged after repair: %+v", report)
	}
	fmt.Fprintln(w, "second scrub clean: the archive healed itself")
	return nil
}

// flipOneBit damages the first shard file of a disk node.
func flipOneBit(node *sec.DiskNode) error {
	files, err := node.ShardFiles()
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no shard files to damage")
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	raw[len(raw)-1] ^= 0x01
	return os.WriteFile(files[0], raw, 0o644)
}

// mustAddr extracts the address a remote client dials.
func mustAddr(node sec.StorageNode) string {
	remote, ok := node.(*sec.RemoteNode)
	if !ok {
		panic("not a remote node")
	}
	return remote.Addr()
}
