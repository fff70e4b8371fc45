// Cluster: a SEC archive over real TCP storage nodes with injected
// failures. Six node servers run in-process; the archive writes shards over
// the network, three nodes then "crash", and degraded reads reconstruct
// every version from the survivors.
//
// Run with: go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

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
	// Start one TCP server per storage node, as cmd/secnode would.
	backings := make([]*sec.MemNode, n)
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		backings[i] = sec.NewMemNode(fmt.Sprintf("node-%d", i))
		server := sec.NewNodeServer(backings[i])
		addr, err := server.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer server.Close()
		client := sec.DialNode(fmt.Sprintf("node-%d", i), addr.String())
		defer client.Close()
		nodes[i] = client
	}
	fmt.Fprintf(w, "%d storage nodes serving over TCP\n", n)

	cluster := sec.NewCluster(nodes)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Name:      "clustered",
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, cluster)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(5))
	v1 := make([]byte, archive.Capacity())
	rng.Read(v1)
	v2, err := sec.SparseEdit(rng, v1, blockSize, 1)
	if err != nil {
		return err
	}
	for i, v := range [][]byte{v1, v2} {
		info, err := archive.CommitContext(ctx, v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "committed v%d over TCP: %d shard writes\n", i+1, info.ShardWrites)
	}

	got, stats, err := archive.RetrieveContext(ctx, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "healthy read of v2: %d node reads (%d sparse)\n", stats.NodeReads, stats.SparseReads)
	if !bytes.Equal(got, v2) {
		return fmt.Errorf("content mismatch")
	}

	// Crash n-k = 3 nodes. The archive still reconstructs everything.
	fmt.Fprintln(w, "\ncrashing nodes 0, 2, 4...")
	for _, i := range []int{0, 2, 4} {
		backings[i].SetFailed(true)
	}
	got, stats, err = archive.RetrieveContext(ctx, 2)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, v2) {
		return fmt.Errorf("degraded content mismatch")
	}
	fmt.Fprintf(w, "degraded read of v2: %d node reads (still %d sparse: any 2 shards decode the 1-sparse delta)\n",
		stats.NodeReads, stats.SparseReads)

	// One more failure exceeds the fault tolerance for the full version.
	fmt.Fprintln(w, "\ncrashing node 1 as well (only 2 survivors)...")
	backings[1].SetFailed(true)
	if _, _, err := archive.RetrieveContext(ctx, 2); err != nil {
		fmt.Fprintf(w, "retrieval now fails as expected: %v\n", err)
	} else {
		return fmt.Errorf("retrieval unexpectedly succeeded with 2 survivors")
	}

	fmt.Fprintln(w, "\nhealing all nodes...")
	// Each healed node is pinged, as an operator confirms a repair: the
	// cluster remembers the nodes failing, and may keep one whose failure
	// was slow out of its reads for a second unless it answers.
	for i, b := range backings {
		b.SetFailed(false)
		if !cluster.Available(ctx, i) {
			return fmt.Errorf("node %d is not answering after healing", i)
		}
	}
	if _, _, err := archive.RetrieveContext(ctx, 2); err != nil {
		return err
	}
	fmt.Fprintln(w, "retrieval works again")
	return nil
}
