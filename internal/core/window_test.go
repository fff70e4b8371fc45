package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// TestStoredRowsAreTheWindowOfTheDenseRows holds every stored row to the
// dense encoder (nodesHoldTheDenseEncoding), on every codec kind at block
// sizes from 128 B to 200 KiB: row i of a delta stored at window
// [off, off+w) is bytes [off, off+w) of row i of the encoded expanded delta
// (of its gamma blocks, for a CDEC codeword), and that dense row is zero
// outside the window. A delta dense in bytes is stored whole - its rows
// are the dense rows, byte-identical to what a store without windows
// writes - and so is every delta of a block under 128 bytes. After the commits, and again
// after a compaction rebases the chain, every version reads back
// byte-identical at exactly its planned reads.
func TestStoredRowsAreTheWindowOfTheDenseRows(t *testing.T) {
	kinds := []struct {
		name string
		cfg  Config
	}{
		{"non-systematic", Config{Code: erasure.NonSystematicCauchy}},
		{"systematic", Config{Code: erasure.SystematicCauchy}},
		{"punctured", Config{Code: erasure.NonSystematicCauchy, PunctureDeltas: 1}},
		{"cdec", Config{Code: erasure.NonSystematicCauchy, CompressDeltas: true}},
		{"gf16", Config{Code: erasure.NonSystematicCauchy, Field: GF16}},
		{"reversed", Config{Code: erasure.NonSystematicCauchy, Scheme: ReversedSEC}},
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
		case !e.hasDelta:
		case e.width < a.cfg.BlockSize:
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
