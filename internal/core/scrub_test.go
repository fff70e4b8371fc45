package core

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

func scrubArchive(t *testing.T) (*Archive, *store.Cluster, [][]byte) {
	t.Helper()
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{11}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 1)
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	return a, cluster, [][]byte{v1, v2}
}

func TestScrubCleanArchive(t *testing.T) {
	a, _, _ := scrubArchive(t)
	report, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := ScrubReport{ShardsChecked: 12} // 2 objects x 6 shards
	if report != want {
		t.Errorf("report = %+v, want %+v", report, want)
	}
}

func TestScrubDetectsMissingShards(t *testing.T) {
	a, cluster, _ := scrubArchive(t)
	node, err := cluster.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Delete(t.Context(), store.ShardID{Object: "t/v1-full", Row: 2}); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 1 || report.Repaired != 0 {
		t.Errorf("report = %+v", report)
	}
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	a, cluster, versions := scrubArchive(t)
	// Silently corrupt one shard of the delta codeword.
	node, err := cluster.Node(4)
	if err != nil {
		t.Fatal(err)
	}
	id := store.ShardID{Object: "t/v2-delta", Row: 4}
	data, err := node.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[0] ^= 0xFF
	if err := node.Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}

	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	// Second scrub is clean.
	report, err = a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 0 || report.ShardsMissing != 0 {
		t.Errorf("post-repair report = %+v", report)
	}
	// And the data is intact even when reads go through the repaired
	// shard (kill others so row 4 must be used).
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[1]) {
		t.Error("version 2 mismatch after scrub repair")
	}
}

func TestScrubRepairsMissingShards(t *testing.T) {
	a, cluster, _ := scrubArchive(t)
	node, err := cluster.Node(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []string{"t/v1-full", "t/v2-delta"} {
		if err := node.Delete(t.Context(), store.ShardID{Object: obj, Row: 5}); err != nil {
			t.Fatal(err)
		}
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsMissing != 2 || report.Repaired != 2 {
		t.Fatalf("report = %+v", report)
	}
	mem, ok := node.(*store.MemNode)
	if !ok {
		t.Fatal("expected MemNode")
	}
	if mem.Len() != 2 {
		t.Errorf("node 5 holds %d shards after repair, want 2", mem.Len())
	}
}

func TestScrubSkipsUnreachableNodes(t *testing.T) {
	a, cluster, _ := scrubArchive(t)
	if err := cluster.Fail(1, 3); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsUnreachable != 4 { // 2 nodes x 2 objects
		t.Errorf("unreachable = %d, want 4", report.ShardsUnreachable)
	}
	if report.ShardsChecked != 8 {
		t.Errorf("checked = %d, want 8", report.ShardsChecked)
	}
}

func TestScrubUndecodableObject(t *testing.T) {
	a, cluster, _ := scrubArchive(t)
	// Remove 4 of 6 shards of x1: fewer than k=3 remain.
	for _, row := range []int{0, 1, 2, 3} {
		node, err := cluster.Node(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Delete(t.Context(), store.ShardID{Object: "t/v1-full", Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	report, err := a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ObjectsUndecodable != 1 {
		t.Errorf("undecodable = %d, want 1", report.ObjectsUndecodable)
	}
}

// truncateShard replaces a stored shard with a shortened copy, the damage
// MemNode cannot detect itself (no checksums in memory).
func truncateShard(t *testing.T, cluster *store.Cluster, node int, id store.ShardID, drop int) {
	t.Helper()
	n, err := cluster.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	data, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Put(t.Context(), id, data[:len(data)-drop]); err != nil {
		t.Fatal(err)
	}
}

func TestScrubHealsTruncatedShard(t *testing.T) {
	a, cluster, versions := scrubArchive(t)
	truncateShard(t, cluster, 2, store.ShardID{Object: "t/v1-full", Row: 2}, 2)
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	// The healed shard is full length and decodes correctly: force reads
	// through it.
	if err := cluster.Fail(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[0]) {
		t.Error("version 1 mismatch after truncation repair")
	}
}

func TestScrubHealsGrownShard(t *testing.T) {
	a, cluster, _ := scrubArchive(t)
	node, err := cluster.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	id := store.ShardID{Object: "t/v2-delta", Row: 1}
	data, err := node.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Put(t.Context(), id, append(data, 0xEE, 0xEE)); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report, err = a.ScrubContext(t.Context(), false); err != nil || report.ShardsCorrupt != 0 {
		t.Errorf("post-repair report = %+v, %v", report, err)
	}
}

func TestScrubCombinedTruncatedAndMissingShards(t *testing.T) {
	// Partial damage on two distinct nodes of the same object: one shard
	// truncated, another missing. Both must be healed in one pass, and the
	// truncated shard must not poison the parity check.
	a, cluster, versions := scrubArchive(t)
	truncateShard(t, cluster, 0, store.ShardID{Object: "t/v1-full", Row: 0}, 1)
	node4, err := cluster.Node(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := node4.Delete(t.Context(), store.ShardID{Object: "t/v1-full", Row: 4}); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.ShardsMissing != 1 || report.Repaired != 2 {
		t.Fatalf("report = %+v", report)
	}
	report, err = a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 0 || report.ShardsMissing != 0 {
		t.Errorf("post-repair report = %+v", report)
	}
	// Reads forced through both healed rows reproduce the object.
	if err := cluster.Fail(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[0]) {
		t.Error("version 1 mismatch after combined repair")
	}
}

func TestScrubLengthTieIsUndecodableNotDestructive(t *testing.T) {
	// Half the shards truncated to one identical length: a shard's length
	// is known, not voted on, so the three truncated shards are corrupt
	// and the three healthy ones are exactly k, which decode but cannot be
	// verified. Scrub must rewrite nothing rather than let the damaged
	// group outvote (and overwrite) the healthy one.
	a, cluster, versions := scrubArchive(t)
	for _, row := range []int{0, 1, 2} {
		truncateShard(t, cluster, row, store.ShardID{Object: "t/v1-full", Row: row}, 2)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 3 || report.ObjectsUnverified != 1 || report.Repaired != 0 {
		t.Fatalf("report = %+v, want 3 corrupt shards, 1 unverified object, 0 repaired", report)
	}
	// The healthy shards were not overwritten: the object still decodes
	// from them.
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[0]) {
		t.Error("healthy shards were damaged by a non-majority repair")
	}
}

// corruptDiskShardFiles flips a byte in up to limit shard files of a disk
// node, returning how many were damaged.
func corruptDiskShardFiles(t *testing.T, n *store.DiskNode, limit int) int {
	t.Helper()
	files, err := n.ShardFiles()
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, path := range files[:min(limit, len(files))] {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	return damaged
}

func diskNodeAt(t *testing.T, cluster *store.Cluster, i int) *store.DiskNode {
	t.Helper()
	n, err := cluster.Node(i)
	if err != nil {
		t.Fatal(err)
	}
	disk, ok := n.(*store.DiskNode)
	if !ok {
		t.Fatalf("node %d is %T, want *store.DiskNode", i, n)
	}
	return disk
}

func TestScrubHealsDiskBitRot(t *testing.T) {
	// Disk-backed nodes detect bit rot themselves (CRC32C at read time)
	// and fail Get with ErrCorrupt; scrub must treat that as damage to
	// heal, not as a fatal error.
	cluster, err := store.NewDiskCluster(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{42}, a.Capacity())
	mustCommit(t, a, v1)

	if n := corruptDiskShardFiles(t, diskNodeAt(t, cluster, 5), 1); n != 1 {
		t.Fatalf("damaged %d files, want 1", n)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	report, err = a.ScrubContext(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := ScrubReport{ShardsChecked: 6}
	if report != want {
		t.Errorf("post-repair report = %+v, want %+v", report, want)
	}
	// The healed shard decodes: read through it.
	if err := cluster.Fail(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("version 1 mismatch after disk bit-rot repair")
	}
}

func TestScrubMajorityOutvotesCorruptShard(t *testing.T) {
	// Corrupt a shard among the first k rows, on which the parity check
	// is built: scrub must still locate it.
	a, cluster, _ := scrubArchive(t)
	node, err := cluster.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	id := store.ShardID{Object: "t/v1-full", Row: 0}
	data, err := node.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[1] ^= 0x55
	if err := node.Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	report, err := a.ScrubContext(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsCorrupt != 1 || report.Repaired != 1 {
		t.Fatalf("report = %+v", report)
	}
	got, _, err := a.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{11}, a.Capacity())) {
		t.Error("version 1 mismatch after majority repair")
	}
}

// TestScrubNeverMakesCorruptionPermanent flips one byte in each of some rows
// of a codeword, full or CDEC delta, on codes over both fields. The rows of a
// codeword here are a code of distance n-k+1, so a flip in up to (n-k)/2
// rows leaves one codeword nearest them, wherever the flips are: scrub with
// repair must heal those rows byte-identical, write no other row, and the
// versions must read back whole. Row 5 of a (12,10) code lies in every
// window of k consecutive rows, and the parity check heals it all the same.
// Flips past the first k rows are their own syndrome and heal without a
// search, three of them in a (200,100) GF(2^16) codeword included. Beyond
// what the search may spend - three flips elsewhere in that codeword - no
// codeword can be verified, so scrub must write nothing and count the object
// as unverified.
func TestScrubNeverMakesCorruptionPermanent(t *testing.T) {
	for _, tt := range []struct {
		name      string
		field     Field
		kind      erasure.Kind
		n, k      int
		blockSize int
		cdec      bool // damage the CDEC codeword of a gamma-1 delta, not the full one
		rows      []int
		heal      bool
	}{
		{"cauchy-12-10/row0", GF8, erasure.NonSystematicCauchy, 12, 10, 64, false, []int{0}, true},
		{"cauchy-6-4/row0", GF8, erasure.NonSystematicCauchy, 6, 4, 64, false, []int{0}, true},
		{"systematic-12-10/row0", GF8, erasure.SystematicCauchy, 12, 10, 64, false, []int{0}, true},
		{"cauchy-12-10/row5", GF8, erasure.NonSystematicCauchy, 12, 10, 64, false, []int{5}, true},
		{"gf16-6-3/row1", GF16, erasure.NonSystematicCauchy, 6, 3, 64, false, []int{1}, true},
		{"systematic-vandermonde-12-10/row11", GF8, erasure.SystematicVandermonde, 12, 10, 64, false, []int{11}, true},
		{"cdec-6-3/row2", GF8, erasure.NonSystematicCauchy, 6, 3, 64, true, []int{2}, true},
		{"cauchy-8-4/rows1,6", GF8, erasure.NonSystematicCauchy, 8, 4, 64, false, []int{1, 6}, true},
		{"gf16-200-100/row150", GF16, erasure.NonSystematicCauchy, 200, 100, 16, false, []int{150}, true},
		{"gf16-200-100/rows197,199", GF16, erasure.NonSystematicCauchy, 200, 100, 16, false, []int{197, 199}, true},
		{"gf16-200-100/rows197,198,199", GF16, erasure.NonSystematicCauchy, 200, 100, 16, false, []int{197, 198, 199}, true},
		{"gf16-200-100/rows3,99,190", GF16, erasure.NonSystematicCauchy, 200, 100, 16, false, []int{3, 99, 190}, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cluster := store.NewMemCluster(0)
			cfg := Config{Name: "t", Scheme: BasicSEC, Field: tt.field, Code: tt.kind, N: tt.n, K: tt.k, BlockSize: tt.blockSize, CompressDeltas: tt.cdec}
			a, err := New(cfg, cluster)
			if err != nil {
				t.Fatal(err)
			}
			v1 := make([]byte, a.Capacity())
			for i := range v1 {
				v1[i] = byte(i*7 + 3)
			}
			versions := [][]byte{v1}
			mustCommit(t, a, v1)
			object, rowCount := "t/v1-full", tt.n
			if tt.cdec {
				versions = append(versions, editBlocks(v1, tt.blockSize, 1))
				mustCommit(t, a, versions[1])
				object, rowCount = "t/v2-delta", 1+tt.n-tt.k
			}
			clean, err := a.ScrubContext(t.Context(), false)
			if err != nil {
				t.Fatal(err)
			}
			shards := func() [][]byte {
				out := make([][]byte, rowCount)
				for row := range out {
					node, err := cluster.Node(row)
					if err != nil {
						t.Fatal(err)
					}
					data, err := node.Get(t.Context(), store.ShardID{Object: object, Row: row})
					if err != nil {
						t.Fatal(err)
					}
					out[row] = bytes.Clone(data)
				}
				return out
			}
			writes := func() (total uint64) {
				for i := 0; i < cluster.Size(); i++ {
					node, err := cluster.Node(i)
					if err != nil {
						t.Fatal(err)
					}
					total += node.(*store.MemNode).Stats().Writes
				}
				return total
			}
			healthy := shards()
			for _, row := range tt.rows {
				flipped := bytes.Clone(healthy[row])
				flipped[3] ^= 0x40
				node, err := cluster.Node(row)
				if err != nil {
					t.Fatal(err)
				}
				if err := node.Put(t.Context(), store.ShardID{Object: object, Row: row}, flipped); err != nil {
					t.Fatal(err)
				}
			}
			damaged := shards()
			before := writes()

			report, err := a.ScrubContext(t.Context(), true)
			if err != nil {
				t.Fatal(err)
			}
			want := ScrubReport{ShardsChecked: clean.ShardsChecked, ShardsCorrupt: len(tt.rows), Repaired: len(tt.rows)}
			after := healthy
			if !tt.heal {
				want, after = ScrubReport{ShardsChecked: clean.ShardsChecked, ObjectsUnverified: 1}, damaged
			}
			if report != want {
				t.Errorf("report = %+v, want %+v", report, want)
			}
			if got := writes() - before; got != uint64(want.Repaired) {
				t.Errorf("scrub wrote %d shards, want %d", got, want.Repaired)
			}
			for row, data := range shards() {
				if !bytes.Equal(data, after[row]) {
					t.Errorf("row %d after scrub is not the bytes it should hold", row)
				}
			}
			if !tt.heal {
				return
			}
			for v, want := range versions {
				got, _, err := a.RetrieveContext(t.Context(), v+1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("version %d reads back other bytes after scrub", v+1)
				}
			}
		})
	}
}

// TestScrubNonMDSRowSets: systematic Vandermonde is not MDS, so the rows
// left of a (14,6) codeword when some are missing can be a code of less
// distance than m-k+1, and their first k rows need not decode. With rows 0,
// 2, 3, 6, 8, 11, 12 and 13 left (distance 2), a flip in row 13 is also one
// flip in row 12 away from another codeword: scrub must not guess, write
// nothing, count the object unverified and go on to the next. With rows 1,
// 2, 4, 6, 7, 10, 11, 12 and 13 left (distance 3), the flip is located and
// the rows left after it - rows 1, 2, 4, 6, 7 and 10 first, which do not
// decode - give the codeword back, so every damaged row heals.
func TestScrubNonMDSRowSets(t *testing.T) {
	for _, tt := range []struct {
		name    string
		missing []int
		heal    bool
	}{
		{"distance-2", []int{1, 4, 5, 7, 9, 10}, false},
		{"distance-3", []int{0, 3, 5, 8, 9}, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ctx := t.Context()
			cluster := store.NewMemCluster(0)
			a, err := New(Config{Name: "t", Scheme: BasicSEC, Code: erasure.SystematicVandermonde, N: 14, K: 6, BlockSize: 64}, cluster)
			if err != nil {
				t.Fatal(err)
			}
			v1 := make([]byte, a.Capacity())
			for i := range v1 {
				v1[i] = byte(i*7 + 3)
			}
			versions := [][]byte{v1, editBlocks(v1, 64, 2)}
			mustCommit(t, a, versions[0])
			mustCommit(t, a, versions[1])
			node := func(row int) store.Node {
				node, err := cluster.Node(row)
				if err != nil {
					t.Fatal(err)
				}
				return node
			}
			id := func(row int) store.ShardID { return store.ShardID{Object: "t/v1-full", Row: row} }
			writes := func() (total uint64) {
				for row := range 14 {
					total += node(row).(*store.MemNode).Stats().Writes
				}
				return total
			}
			healthy := make([][]byte, 14)
			for row := range healthy {
				data, err := node(row).Get(ctx, id(row))
				if err != nil {
					t.Fatal(err)
				}
				healthy[row] = bytes.Clone(data)
			}
			for _, row := range tt.missing {
				if err := node(row).Delete(ctx, id(row)); err != nil {
					t.Fatal(err)
				}
			}
			flipped := bytes.Clone(healthy[13])
			flipped[3] ^= 0x40
			if err := node(13).Put(ctx, id(13), flipped); err != nil {
				t.Fatal(err)
			}
			before := writes()

			report, err := a.ScrubContext(ctx, true)
			if err != nil {
				t.Fatalf("scrub ended the pass: %v", err)
			}
			want := ScrubReport{ShardsChecked: 28, ShardsMissing: len(tt.missing), ObjectsUnverified: 1}
			if tt.heal {
				want = ScrubReport{ShardsChecked: 28, ShardsMissing: len(tt.missing), ShardsCorrupt: 1, Repaired: len(tt.missing) + 1}
			}
			if report != want {
				t.Errorf("report = %+v, want %+v", report, want)
			}
			if got := writes() - before; got != uint64(want.Repaired) {
				t.Errorf("scrub wrote %d shards, want %d", got, want.Repaired)
			}
			if !tt.heal {
				return
			}
			for row := range 14 {
				if data, err := node(row).Get(ctx, id(row)); err != nil || !bytes.Equal(data, healthy[row]) {
					t.Errorf("row %d did not heal: %v", row, err)
				}
			}
			for v, want := range versions {
				if got, _, err := a.RetrieveContext(ctx, v+1); err != nil || !bytes.Equal(got, want) {
					t.Errorf("version %d does not read back after scrub: %v", v+1, err)
				}
			}
		})
	}
}

// healthyScrubArchive is a (12,10) Basic SEC archive of 4 KiB blocks over
// memory nodes holding 8 codewords: a full version and 7 one-block deltas.
func healthyScrubArchive(tb testing.TB, field Field, kind erasure.Kind) *Archive {
	tb.Helper()
	a, err := New(Config{Name: "t", Scheme: BasicSEC, Field: field, Code: kind, N: 12, K: 10, BlockSize: 4096}, store.NewMemCluster(0))
	if err != nil {
		tb.Fatal(err)
	}
	object := make([]byte, a.Capacity())
	for i := range object {
		object[i] = byte(i * 13)
	}
	for v := 0; v < 8; v++ {
		object = editBlocks(object, 4096, v)
		if _, err := a.CommitContext(tb.Context(), object); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

// TestScrubHealthyAllocatesNoCodeword: judging a healthy codeword is one
// parity-check product into pooled memory, so a scrub of 8 healthy (12,10)
// codewords allocates less than one 4 KiB block per codeword beyond what
// reading their shards allocates - where a reference codeword of 12 blocks
// would be 48 KiB - over either field. The race detector empties pools at random, so the bound is
// checked in a run without it.
func TestScrubHealthyAllocatesNoCodeword(t *testing.T) {
	ctx := t.Context()
	perCodeword := func(pass func()) uint64 {
		const passes = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range passes {
			pass()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / (passes * 8)
	}
	for _, code := range []struct {
		field Field
		kind  erasure.Kind
	}{{GF8, erasure.NonSystematicCauchy}, {GF8, erasure.SystematicCauchy}, {GF16, erasure.NonSystematicCauchy}} {
		a, kind := healthyScrubArchive(t, code.field, code.kind), fmt.Sprintf("%v %v", code.field, code.kind)
		read := perCodeword(func() {
			if err := a.eachStored(ctx, "read", func(cw codeword) error {
				releaseAll(a.getRows(ctx, cw, allRows(cw.code.N())))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		scrub := perCodeword(func() {
			report, err := a.ScrubContext(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			if want := (ScrubReport{ShardsChecked: 8 * 12}); report != want {
				t.Fatalf("%v: report = %+v, want %+v", kind, report, want)
			}
		})
		t.Logf("%v: a healthy scrub allocates %d bytes per codeword, of which reading its shards %d", kind, scrub, read)
		if scrub >= read+4096 && !testutil.RaceEnabled {
			t.Errorf("%v: judging a healthy codeword allocates %d bytes, want less than one 4096-byte block", kind, scrub-read)
		}
	}
}

// BenchmarkScrubHealthy prices judging healthy codewords: a scrub of 8
// (12,10) codewords of 4 KiB blocks over memory nodes, read, parity check
// and all, reported per codeword.
func BenchmarkScrubHealthy(b *testing.B) {
	for _, kind := range []erasure.Kind{erasure.NonSystematicCauchy, erasure.SystematicCauchy} {
		b.Run(kind.String(), func(b *testing.B) {
			a := healthyScrubArchive(b, GF8, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := a.ScrubContext(b.Context(), false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*8), "us/codeword")
		})
	}
}
