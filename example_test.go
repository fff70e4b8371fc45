package sec_test

import (
	"context"
	"fmt"
	"log"

	sec "github.com/secarchive/sec"
)

// Example reproduces the paper's Section IV-C setting: a 3KB object in
// three 1KB blocks on a (6,3) code, with a second version that changes
// only the first kilobyte. The sparse delta is read back with 2 node reads
// instead of 3.
func Example() {
	ctx := context.Background()
	cluster := sec.NewMemCluster(6)
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 1024,
	}, cluster)
	if err != nil {
		log.Fatal(err)
	}

	v1 := make([]byte, 3*1024)
	for i := range v1 {
		v1[i] = byte(i)
	}
	if _, err := archive.CommitContext(ctx, v1); err != nil {
		log.Fatal(err)
	}

	v2 := append([]byte(nil), v1...)
	for i := 0; i < 1024; i++ { // modify only the first block
		v2[i] ^= 0xFF
	}
	info, err := archive.CommitContext(ctx, v2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("version 2 stored as delta with gamma=%d\n", info.Gamma)

	_, stats, err := archive.RetrieveContext(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("both versions read with %d node reads (baseline: 6)\n", stats.NodeReads)
	// Output:
	// version 2 stored as delta with gamma=1
	// both versions read with 5 node reads (baseline: 6)
}

// ExampleArchive_PlannedReads shows formula (3): the read plan for a
// version is the anchor's k reads plus min(2*gamma, k) per delta on the
// chain.
func ExampleArchive_PlannedReads() {
	ctx := context.Background()
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         20,
		K:         10,
		BlockSize: 1,
	}, sec.NewMemCluster(20))
	if err != nil {
		log.Fatal(err)
	}
	v := make([]byte, 10)
	if _, err := archive.CommitContext(ctx, v); err != nil {
		log.Fatal(err)
	}
	v = append([]byte(nil), v...)
	v[0] ^= 1 // gamma = 1
	if _, err := archive.CommitContext(ctx, v); err != nil {
		log.Fatal(err)
	}
	planned, err := archive.PlannedReads(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eta(x2) = %d\n", planned)
	// Output:
	// eta(x2) = 12
}

// ExampleArchive_CompactToContext bounds a deep Reversed SEC chain: the
// versions furthest from the full anchor are rebased onto it with merged
// deltas, the superseded delta codewords are reclaimed from the nodes, and
// the oldest version becomes dramatically cheaper to read. Commits and
// compaction only queue what they supersede; an owner reclaims it once the
// manifest that stops naming it is persisted, here right away.
func ExampleArchive_CompactToContext() {
	ctx := context.Background()
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.ReversedSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 4,
	}, sec.NewMemCluster(6))
	if err != nil {
		log.Fatal(err)
	}
	object := make([]byte, 12)
	for v := 1; v <= 7; v++ {
		object = append([]byte(nil), object...)
		object[0] = byte(v) // every version edits block 0: sparse deltas
		if _, err := archive.CommitContext(ctx, object); err != nil {
			log.Fatal(err)
		}
		if _, _, err := archive.ReclaimSupersededContext(ctx); err != nil {
			log.Fatal(err)
		}
	}
	_, before, err := archive.RetrieveContext(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	info, err := archive.CompactToContext(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	reclaimed, _, err := archive.ReclaimSupersededContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	_, after, err := archive.RetrieveContext(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebased %d versions, reclaimed %d superseded shards\n", len(info.Rebased), reclaimed)
	fmt.Printf("oldest version: %d node reads before, %d after\n", before.NodeReads, after.NodeReads)
	// Output:
	// rebased 4 versions, reclaimed 18 superseded shards
	// oldest version: 15 node reads before, 5 after
}

// ExampleArchiveConfig_checkpointing shows the proactive half of the chain
// lifecycle: with CheckpointEvery set, commits store a full codeword at
// regular intervals, so no retrieval ever walks more than a few deltas.
func ExampleArchiveConfig_checkpointing() {
	ctx := context.Background()
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:          sec.BasicSEC,
		Code:            sec.NonSystematicCauchy,
		N:               6,
		K:               3,
		BlockSize:       4,
		CheckpointEvery: 3,
	}, sec.NewMemCluster(6))
	if err != nil {
		log.Fatal(err)
	}
	object := make([]byte, 12)
	for v := 1; v <= 7; v++ {
		object = append([]byte(nil), object...)
		object[0] = byte(v)
		info, err := archive.CommitContext(ctx, object)
		if err != nil {
			log.Fatal(err)
		}
		if info.Checkpoint {
			fmt.Printf("v%d stored a checkpoint\n", info.Version)
		}
	}
	planned, err := archive.PlannedReads(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reading v7 needs %d node reads (an unbounded chain would need 15)\n", planned)
	// Output:
	// v4 stored a checkpoint
	// v7 stored a checkpoint
	// reading v7 needs 3 node reads (an unbounded chain would need 15)
}

// ExampleNewRepository runs the version-control layer: a one-line edit is
// stored as a sparse delta.
func ExampleNewRepository() {
	ctx := context.Background()
	repo, err := sec.NewRepository(sec.RepositoryConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 64,
	}, sec.NewMemCluster(6))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := repo.CommitContext(ctx, "init", map[string][]byte{"notes.txt": []byte("hello world")}); err != nil {
		log.Fatal(err)
	}
	c, err := repo.CommitContext(ctx, "edit", map[string][]byte{"notes.txt": []byte("hello there")})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("r%d stored notes.txt as delta: %v (gamma=%d)\n",
		c.Revision, c.Changes[0].StoredDelta, c.Changes[0].Gamma)
	// Output:
	// r2 stored notes.txt as delta: true (gamma=1)
}
