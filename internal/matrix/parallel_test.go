package matrix

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/testutil"
)

// TestMulBlocksIntoParallelMatchesSequential forces the chunked parallel
// path (big blocks, several workers) and checks it agrees with the
// sequential range computation. GOMAXPROCS is raised so the test covers the
// worker pool even on single-CPU machines.
func TestMulBlocksIntoParallelMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const rows, cols = 6, 4
	blockLen := mulBlocksChunk*3 + 123 // several chunks plus an unaligned tail
	if rows*blockLen < mulBlocksParallelMin {
		t.Fatalf("test workload below parallel threshold: %d < %d", rows*blockLen, mulBlocksParallelMin)
	}
	rng := rand.New(rand.NewSource(31))
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		rng.Read(m.Row(i))
	}
	blocks := make([][]byte, cols)
	for j := range blocks {
		blocks[j] = make([]byte, blockLen)
		rng.Read(blocks[j])
	}

	want := make([][]byte, rows)
	for i := range want {
		want[i] = make([]byte, blockLen)
	}
	gf.MulBlocks(m.data, blocks, want, 0, blockLen)

	dst := make([][]byte, rows)
	for i := range dst {
		dst[i] = make([]byte, blockLen)
	}
	// Run twice so the second call reuses a pooled job.
	for pass := 0; pass < 2; pass++ {
		for i := range dst {
			clear(dst[i])
		}
		m.MulBlocksInto(blocks, dst)
		for i := range want {
			if !bytes.Equal(dst[i], want[i]) {
				t.Fatalf("pass %d: parallel MulBlocksInto row %d differs from sequential", pass, i)
			}
		}
	}

	// MulBlocks must agree as well (it shares the same dispatch).
	out := m.MulBlocks(blocks)
	for i := range want {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("MulBlocks row %d differs from sequential", i)
		}
	}
}

// TestMulBlocksIntoValidation checks the Into variant panics on shape
// mismatches like the allocating API does.
func TestMulBlocksIntoValidation(t *testing.T) {
	m := New(2, 3)
	blocks := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	for _, tc := range []struct {
		name string
		dst  [][]byte
	}{
		{"wrong count", [][]byte{make([]byte, 4)}},
		{"wrong length", [][]byte{make([]byte, 4), make([]byte, 5)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulBlocksInto did not panic", tc.name)
				}
			}()
			m.MulBlocksInto(blocks, tc.dst)
		}()
	}
}

// TestMulBlocksIntoDoesNotAllocate holds the parallel path to zero
// allocations per call: jobs are pooled and helpers take them from a channel
// rather than as go-statement arguments, which would allocate a closure.
func TestMulBlocksIntoDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops pooled jobs at random")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const rows, cols, blockLen = 12, 10, 64 << 10
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		rand.New(rand.NewSource(int64(i))).Read(m.Row(i))
	}
	blocks, dst := make([][]byte, cols), make([][]byte, rows)
	for j := range blocks {
		blocks[j] = make([]byte, blockLen)
	}
	for i := range dst {
		dst[i] = make([]byte, blockLen)
	}
	// Warm up until exited helpers are there for the runtime to reuse, as
	// they are in steady state. Counted by hand: testing.AllocsPerRun runs
	// with GOMAXPROCS 1, which takes the sequential path.
	const runs = 200
	for i := 0; i < runs; i++ {
		m.MulBlocksInto(blocks, dst)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.MulBlocksInto(blocks, dst)
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs >= 0.5 {
		t.Errorf("%v allocs per parallel MulBlocksInto, want 0", allocs)
	}
}
