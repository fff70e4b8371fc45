package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestStoredRowsEncodeEachBlocksWindow holds every stored row to the dense
// encoder (nodesHoldTheDenseEncoding), on every codec kind at block sizes
// from 64 B to 200 KiB: row i of a delta of width w is row i of the encoded
// delta whose changed blocks are cut to their windows [off, off+w), each
// at its own offset, and moved to offset 0 (its gamma blocks alone, for a
// CDEC codeword, all at one offset), and each changed block is zero outside
// its window. A delta dense in bytes is stored whole - its rows are the
// dense rows, byte-identical to what a store without windows writes - and
// so is every delta of a block under 128 bytes. v3 changes the last byte
// of one block and byte 70 of another: a plain v3 keeps each at its own
// 64-byte window from 4 KiB blocks up, where one window for both would span
// the block. After the commits, and again after a compaction rebases the
// chain, every version reads back byte-identical at exactly its planned
// reads.
func TestStoredRowsEncodeEachBlocksWindow(t *testing.T) {
	kinds := []struct {
		name string
		cfg  Config
	}{
		{"non-systematic", Config{Code: erasure.NonSystematicCauchy}},
		{"systematic", Config{Code: erasure.SystematicCauchy}},
		{"cdec", Config{Code: erasure.NonSystematicCauchy, CompressDeltas: true}},
		{"reversed", Config{Code: erasure.NonSystematicCauchy, Scheme: ReversedSEC}},
		{"systematic-cdec", Config{Code: erasure.SystematicCauchy, CompressDeltas: true}},
		{"systematic-reversed", Config{Code: erasure.SystematicCauchy, Scheme: ReversedSEC}},
	}
	for _, kind := range kinds {
		for _, blockSize := range []int{64, 128, 200, 4096, 200 << 10} {
			t.Run(fmt.Sprintf("%s/%d", kind.name, blockSize), func(t *testing.T) {
				cfg := kind.cfg
				cfg.Name, cfg.N, cfg.K, cfg.BlockSize = "w", 6, 3, blockSize
				if cfg.Scheme == 0 {
					cfg.Scheme = BasicSEC
				}
				cluster := store.NewMemCluster(0)
				a, err := New(cfg, cluster)
				if err != nil {
					t.Fatal(err)
				}
				versions := windowVersions(blockSize)
				for _, v := range versions {
					mustCommit(t, a, v)
				}
				nodesHoldTheDenseEncoding(t, a, cluster, versions, "after commit")
				windowed, whole := deltaWidths(a)
				// v2, v3, v5 and v6 are narrow where the blocks allow a window;
				// v4 rewrites a whole block.
				wantWindowed, wantWhole := 4, 1
				if blockSize < 128 {
					wantWindowed, wantWhole = 0, 5
				}
				if windowed != wantWindowed || whole != wantWhole {
					t.Errorf("%d deltas stored at a window, %d whole; want %d and %d", windowed, whole, wantWindowed, wantWhole)
				}
				if v3 := a.entries[2].delta; blockSize >= 4096 && !v3.compressed && (v3.width != 64 || !slices.Equal(v3.offs, []int{blockSize - 64, 64})) {
					t.Errorf("v3 is stored %d bytes wide at offsets %v, want 64 at [%d 64]", v3.width, v3.offs, blockSize-64)
				}
				checkReadsArePlanned(t, a, versions)
				if _, err := a.CompactToContext(t.Context(), 1); err != nil {
					t.Fatal(err)
				}
				nodesHoldTheDenseEncoding(t, a, cluster, versions, "after compaction")
				checkReadsArePlanned(t, a, versions)
			})
		}
	}
}

// windowVersions returns six versions of a 3-block object: v2 edits 3
// bytes in the middle of block 1, v3 the last byte of block 0 and byte 70
// of block 2, v4 rewrites block 2 whole, v5 edits the last byte of block 1,
// and v6 repeats v5.
func windowVersions(blockSize int) [][]byte {
	rng := rand.New(rand.NewSource(int64(blockSize)))
	v := make([]byte, 3*blockSize)
	rng.Read(v)
	versions := [][]byte{v}
	edit := func(edits func(v []byte)) {
		next := bytes.Clone(versions[len(versions)-1])
		edits(next)
		versions = append(versions, next)
	}
	edit(func(v []byte) {
		for i := range 3 {
			v[blockSize+blockSize/2+i] ^= 0x5A
		}
	})
	edit(func(v []byte) { v[blockSize-1] ^= 1; v[2*blockSize+min(70, blockSize-1)] ^= 2 })
	edit(func(v []byte) {
		block := v[2*blockSize:]
		rng.Read(block)
		block[0] ^= 0xFF
		block[blockSize-1] ^= 0xFF
	})
	edit(func(v []byte) { v[2*blockSize-1] ^= 0x80 })
	edit(func([]byte) {})
	return versions
}

// deltaWidths counts the deltas the chain stores at a window narrower than
// the block and those it stores whole.
func deltaWidths(a *Archive) (windowed, whole int) {
	for _, e := range a.entries {
		switch {
		case e.delta == nil:
		case e.delta.width < a.cfg.BlockSize:
			windowed++
		default:
			whole++
		}
	}
	return windowed, whole
}

// checkReadsArePlanned reads every version back and holds its node reads to
// the planner's price.
func checkReadsArePlanned(t *testing.T, a *Archive, versions [][]byte) {
	t.Helper()
	for v, want := range versions {
		got, stats, err := a.RetrieveContext(t.Context(), v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d: err = %v, bytes equal %v", v+1, err, bytes.Equal(got, want))
		}
		planned, err := a.PlannedReads(v + 1)
		if err != nil || stats.NodeReads != planned {
			t.Fatalf("v%d: %d node reads, planned %d (%v)", v+1, stats.NodeReads, planned, err)
		}
	}
}

// TestSparseEditRowsAreOneEditWide pins what a chain of sparse edits costs
// on the wire: on a (12,10) chain of 4 KiB blocks whose gamma cycles
// 1,1,2,1,3, each changed block rewritten with 64 bytes at a seeded offset,
// every delta row a node holds is at most 128 bytes, the 64-byte-aligned
// windows of one edit, whichever blocks the edits of a delta land in. One
// window shared by the blocks of a delta would span from the first edit to
// the last.
func TestSparseEditRowsAreOneEditWide(t *testing.T) {
	cfg := Config{Name: "edits", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 12, K: 10, BlockSize: 4096}
	cluster := store.NewMemCluster(0)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	object := make([]byte, a.Capacity())
	rng.Read(object)
	versions := [][]byte{bytes.Clone(object)}
	mustCommit(t, a, object)
	for v := 2; v <= 50; v++ {
		gamma := []int{1, 1, 2, 1, 3}[(v-2)%5]
		for _, block := range rng.Perm(cfg.K)[:gamma] {
			edit := object[block*cfg.BlockSize+rng.Intn(cfg.BlockSize-64+1):][:64]
			first := edit[0]
			rng.Read(edit)
			edit[0] = first ^ 0xFF
		}
		versions = append(versions, bytes.Clone(object))
		if info := mustCommit(t, a, object); info.Gamma != gamma {
			t.Fatalf("v%d: gamma %d, want %d", v, info.Gamma, gamma)
		}
	}
	for v := 2; v <= len(versions); v++ {
		cw := *a.entries[v-1].delta
		ref := a.rowRefs(cw, []int{0})[0]
		node, err := cluster.Node(ref.Node)
		if err != nil {
			t.Fatal(err)
		}
		row, err := node.Get(t.Context(), ref.ID)
		if err != nil || len(row) > 128 {
			t.Errorf("v%d (gamma %d): a row of %d bytes (%v), want at most 128", v, cw.gamma, len(row), err)
		}
	}
	checkReadsArePlanned(t, a, versions)
}

// TestReadRefusesADeltaOffItsSupport: a plain delta whose decode finds
// blocks other than the support its entry records is damage - the entry
// and the rows cannot both be right - and the read fails with
// store.ErrCorrupt naming the codeword, applying none of it. The manifest
// moves v2's support (gamma 1, read
// sparse) and then v3's (gamma 2, past the (6,3) code's sparse reads, read
// full) to other blocks, keeping gamma; every version below the moved one
// still reads.
func TestReadRefusesADeltaOffItsSupport(t *testing.T) {
	cfg := Config{Name: "moved", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: 6, K: 3, BlockSize: 256}
	cluster := store.NewMemCluster(0)
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, a.Capacity())
	rand.New(rand.NewSource(9)).Read(v1)
	v2, v3 := bytes.Clone(v1), bytes.Clone(v1)
	v2[256+10] ^= 1
	v3[256+10] ^= 1
	v3[20] ^= 2
	v3[2*256+200] ^= 4
	for _, v := range [][]byte{v1, v2, v3} {
		mustCommit(t, a, v)
	}
	for _, moved := range []struct {
		version int
		support []int
	}{{2, []int{2}}, {3, []int{0, 1}}} {
		m := a.Manifest()
		e := &m.Entries[moved.version-1]
		if len(e.Support) != len(moved.support) || slices.Equal(e.Support, moved.support) {
			t.Fatalf("v%d records support %v; the test moves it to %v", moved.version, e.Support, moved.support)
		}
		e.Support = moved.support
		b, err := Open(m, cluster)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < moved.version; v++ {
			if _, _, err := b.RetrieveContext(t.Context(), v); err != nil {
				t.Fatalf("v%d, below the moved v%d: %v", v, moved.version, err)
			}
		}
		_, _, err = b.RetrieveContext(t.Context(), moved.version)
		if id := deltaID(cfg.Name, moved.version); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), id) {
			t.Errorf("v%d with support %v: err = %v, want ErrCorrupt naming %s", moved.version, moved.support, err, id)
		}
	}
}
