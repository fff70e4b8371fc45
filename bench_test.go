package sec_test

// Benchmark harness: one benchmark per table/figure of the paper (each
// regenerates the experiment end to end; see internal/experiments and
// EXPERIMENTS.md) plus micro-benchmarks for the coding substrates and the
// archive hot paths, including the ablation benches DESIGN.md calls out.

import (
	"fmt"
	"math/rand"
	"testing"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/experiments"
	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/sparse"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/internal/wide"
)

// benchExperiment regenerates one paper table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(b.Context(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkCensusVA(b *testing.B) { benchExperiment(b, "census") }

// Ablation experiments (see DESIGN.md section 5).
func BenchmarkAblationPuncture(b *testing.B) { benchExperiment(b, "puncture") }
func BenchmarkAblationReversed(b *testing.B) { benchExperiment(b, "reversed") }

// System-measured experiments: the formulas validated on live archives.
func BenchmarkFig4System(b *testing.B)       { benchExperiment(b, "fig4sys") }
func BenchmarkLSweep(b *testing.B)           { benchExperiment(b, "lsweep") }
func BenchmarkRepairSimulation(b *testing.B) { benchExperiment(b, "repair") }

// --- substrate micro-benchmarks ---

func BenchmarkGFMulAddSlice(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf.MulAddSlice(0x57, dst, src)
	}
}

// --- old-vs-new kernel benches (see DESIGN.md section 2) ---
//
// Each benchmark reports allocations and runs once with the scalar
// reference kernels and once with the vectorized kernels, at 4 KiB, 64 KiB
// and 1 MiB blocks. The Into variants use pooled shard buffers and must
// stay at 0 allocs/op in steady state.

var kernelBenchSizes = []int{4 << 10, 64 << 10, 1 << 20}

func kernelBenchName(blockSize int, fast bool) string {
	kernel := "scalar"
	if fast {
		kernel = "fast"
	}
	if blockSize >= 1<<20 {
		return fmt.Sprintf("%dMiB/%s", blockSize>>20, kernel)
	}
	return fmt.Sprintf("%dKiB/%s", blockSize>>10, kernel)
}

func benchCodingKernels(b *testing.B, run func(b *testing.B, blockSize int)) {
	b.Helper()
	for _, blockSize := range kernelBenchSizes {
		for _, fast := range []bool{false, true} {
			b.Run(kernelBenchName(blockSize, fast), func(b *testing.B) {
				prev := gf.SetFastKernels(fast)
				defer gf.SetFastKernels(prev)
				run(b, blockSize)
			})
		}
	}
}

func benchBlocks(k, blockSize int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
		rng.Read(blocks[i])
	}
	return blocks
}

func BenchmarkEncodeKernels(b *testing.B) {
	benchCodingKernels(b, func(b *testing.B, blockSize int) {
		code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
		if err != nil {
			b.Fatal(err)
		}
		blocks := benchBlocks(10, blockSize, 21)
		b.SetBytes(int64(10 * blockSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code.Encode(blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeInto(b *testing.B) {
	benchCodingKernels(b, func(b *testing.B, blockSize int) {
		code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
		if err != nil {
			b.Fatal(err)
		}
		blocks := benchBlocks(10, blockSize, 22)
		shards := erasure.GetBuffers(20, blockSize)
		defer shards.Release()
		b.SetBytes(int64(10 * blockSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := code.EncodeInto(blocks, shards.Blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeFullKernels(b *testing.B) {
	benchCodingKernels(b, func(b *testing.B, blockSize int) {
		code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
		if err != nil {
			b.Fatal(err)
		}
		blocks := benchBlocks(10, blockSize, 23)
		shards, err := code.Encode(blocks)
		if err != nil {
			b.Fatal(err)
		}
		rows := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
		sub := make([][]byte, len(rows))
		for i, r := range rows {
			sub[i] = shards[r]
		}
		b.SetBytes(int64(10 * blockSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code.DecodeFull(rows, sub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeFullInto(b *testing.B) {
	benchCodingKernels(b, func(b *testing.B, blockSize int) {
		code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
		if err != nil {
			b.Fatal(err)
		}
		blocks := benchBlocks(10, blockSize, 24)
		shards, err := code.Encode(blocks)
		if err != nil {
			b.Fatal(err)
		}
		rows := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
		sub := make([][]byte, len(rows))
		for i, r := range rows {
			sub[i] = shards[r]
		}
		dst := erasure.GetBuffers(10, blockSize)
		defer dst.Release()
		b.SetBytes(int64(10 * blockSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := code.DecodeFullInto(rows, sub, dst.Blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- the benchmark's coding shapes ---
//
// The erasure rows of benchmark/ measure a (12,10) non-systematic Cauchy code
// at 4 KiB and 200 KiB blocks (small and large_object). These are the same
// calls at the same shapes, so the kernels' gain shows here without running
// the benchmark.

var ledgerBlockSizes = []int{4 << 10, 200 << 10}

func benchLedgerShape(b *testing.B, run func(b *testing.B, code *erasure.Code, blockSize int)) {
	b.Helper()
	code, err := erasure.New(erasure.NonSystematicCauchy, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, blockSize := range ledgerBlockSizes {
		b.Run(fmt.Sprintf("%dKiB", blockSize>>10), func(b *testing.B) {
			b.SetBytes(int64(10 * blockSize))
			b.ReportAllocs()
			run(b, code, blockSize)
		})
	}
}

func BenchmarkEncodeInto12_10(b *testing.B) {
	benchLedgerShape(b, func(b *testing.B, code *erasure.Code, blockSize int) {
		blocks := benchBlocks(10, blockSize, 31)
		shards := erasure.GetBuffers(12, blockSize)
		defer shards.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := code.EncodeInto(blocks, shards.Blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeFullInto12_10(b *testing.B) {
	benchLedgerShape(b, func(b *testing.B, code *erasure.Code, blockSize int) {
		shards, err := code.Encode(benchBlocks(10, blockSize, 32))
		if err != nil {
			b.Fatal(err)
		}
		rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		dst := erasure.GetBuffers(10, blockSize)
		defer dst.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := code.DecodeFullInto(rows, shards[:10], dst.Blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeSparseSupport12_10 decodes a gamma = 1 delta (block 3
// random) from the rows a sparse read of gamma 1 asks for.
func BenchmarkDecodeSparseSupport12_10(b *testing.B) {
	benchLedgerShape(b, func(b *testing.B, code *erasure.Code, blockSize int) {
		z := make([][]byte, 10)
		for j := range z {
			z[j] = make([]byte, blockSize)
		}
		rand.New(rand.NewSource(33)).Read(z[3])
		shards, err := code.Encode(z)
		if err != nil {
			b.Fatal(err)
		}
		rows := code.SparseReadRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1)
		sub := make([][]byte, len(rows))
		for i, r := range rows {
			sub[i] = shards[r]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := code.DecodeSparseSupport(rows, sub, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchEncode(b *testing.B, kind erasure.Kind, n, k, blockSize int) {
	b.Helper()
	code, err := erasure.New(kind, n, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
		rng.Read(blocks[i])
	}
	b.SetBytes(int64(k * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCauchy6_3(b *testing.B) { benchEncode(b, erasure.NonSystematicCauchy, 6, 3, 4096) }
func BenchmarkEncodeCauchy20_10(b *testing.B) {
	benchEncode(b, erasure.NonSystematicCauchy, 20, 10, 4096)
}
func BenchmarkEncodeSystematic20_10(b *testing.B) {
	benchEncode(b, erasure.SystematicCauchy, 20, 10, 4096)
}

func BenchmarkDecodeFull20_10(b *testing.B) {
	code, err := erasure.New(erasure.NonSystematicCauchy, 20, 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	blocks := make([][]byte, 10)
	for i := range blocks {
		blocks[i] = make([]byte, 4096)
		rng.Read(blocks[i])
	}
	shards, err := code.Encode(blocks)
	if err != nil {
		b.Fatal(err)
	}
	rows := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
	sub := make([][]byte, len(rows))
	for i, r := range rows {
		sub[i] = shards[r]
	}
	b.SetBytes(int64(10 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.DecodeFull(rows, sub); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: support-enumeration vs Berlekamp-Massey sparse decoding at the
// same I/O (2*gamma shards of a (24,12) code, gamma=3).
func benchSparseDecode(b *testing.B, kind erasure.Kind) {
	b.Helper()
	const (
		n, k, gamma = 24, 12, 3
		blockSize   = 1024
	)
	code, err := erasure.New(kind, n, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	z := make([][]byte, k)
	for i := range z {
		z[i] = make([]byte, blockSize)
	}
	for _, j := range rng.Perm(k)[:gamma] {
		rng.Read(z[j])
		z[j][0] |= 1
	}
	shards, err := code.Encode(z)
	if err != nil {
		b.Fatal(err)
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	rows := code.SparseReadRows(live, gamma)
	if rows == nil {
		b.Fatal("no sparse read rows")
	}
	sub := make([][]byte, len(rows))
	for i, r := range rows {
		sub[i] = shards[r]
	}
	b.SetBytes(int64(gamma * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.DecodeSparse(rows, sub, gamma); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseDecodeEnumCauchy(b *testing.B) {
	benchSparseDecode(b, erasure.NonSystematicCauchy)
}

func BenchmarkSparseDecodeSyndromeVandermonde(b *testing.B) {
	benchSparseDecode(b, erasure.NonSystematicVandermonde)
}

// Ablation: generic sparse recovery cost as gamma grows (enumeration is
// C(k,gamma); syndrome decoding is polynomial).
func BenchmarkSparseRecoverEnumByGamma(b *testing.B) {
	const k = 16
	for _, gamma := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("gamma=%d", gamma), func(b *testing.B) {
			code, err := erasure.New(erasure.NonSystematicCauchy, 2*k, k)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			z := make([][]byte, k)
			for i := range z {
				z[i] = make([]byte, 64)
			}
			for _, j := range rng.Perm(k)[:gamma] {
				rng.Read(z[j])
				z[j][0] |= 1
			}
			gen := code.Generator()
			rows := make([]int, 2*gamma)
			for i := range rows {
				rows[i] = i
			}
			phi := gen.SelectRows(rows)
			y := phi.MulBlocks(z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.RecoverEnum(phi, y, gamma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The sparse decode of a (12,10) Cauchy delta as gamma and the block size grow,
// against DecodeFull at the same block size as the reference row. The support
// enumeration is C(k,gamma), so gamma = 1 alone (the ledger's only sparse row)
// hides what it costs; the block size shows whether that cost is paid per
// candidate at full block width or once. Two delta shapes: dense (each support
// block random throughout) and edit (each support block differs in 64 bytes at
// its own random offset - what a small edit to a large object produces, and the
// shape in which almost every byte column is 1-sparse).
func BenchmarkDecodeSparseByGamma(b *testing.B) {
	const n, k, editBytes = 12, 10, 64
	code, err := erasure.New(erasure.NonSystematicCauchy, n, k)
	if err != nil {
		b.Fatal(err)
	}
	for _, blockSize := range []int{4096, 204800} {
		b.Run(fmt.Sprintf("block=%d/full", blockSize), func(b *testing.B) {
			shards, err := code.Encode(benchBlocks(k, blockSize, 6))
			if err != nil {
				b.Fatal(err)
			}
			rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.DecodeFull(rows, shards[:k]); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, shape := range []string{"dense", "edit"} {
			for gamma := 1; gamma <= 4; gamma++ {
				b.Run(fmt.Sprintf("block=%d/%s/gamma=%d", blockSize, shape, gamma), func(b *testing.B) {
					rng := rand.New(rand.NewSource(int64(7 + gamma)))
					z := make([][]byte, k)
					for i := range z {
						z[i] = make([]byte, blockSize)
					}
					for _, j := range rng.Perm(k)[:gamma] {
						span := z[j]
						if shape == "edit" {
							at := rng.Intn(blockSize - editBytes + 1)
							span = span[at : at+editBytes]
						}
						rng.Read(span)
						span[0] |= 1
					}
					shards, err := code.Encode(z)
					if err != nil {
						b.Fatal(err)
					}
					rows := make([]int, 2*gamma)
					for i := range rows {
						rows[i] = i
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := code.DecodeSparse(rows, shards[:2*gamma], gamma); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// Ablation: symbol width. The GF(2^16) backend unlocks n+k > 256 at some
// throughput cost; compare encode speed at equal (n,k) and payload.
func BenchmarkEncodeWideGF16_20_10(b *testing.B) {
	code, err := wide.NewCauchy(20, 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	blocks := make([][]byte, 10)
	for i := range blocks {
		blocks[i] = make([]byte, 4096)
		rng.Read(blocks[i])
	}
	b.SetBytes(int64(10 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// --- archive hot paths ---

func benchArchive(b *testing.B, scheme sec.Scheme) (*sec.Archive, []byte) {
	b.Helper()
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    scheme,
		Code:      sec.NonSystematicCauchy,
		N:         20,
		K:         10,
		BlockSize: 1024,
	}, sec.NewMemCluster(20))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(b.Context(), v); err != nil {
		b.Fatal(err)
	}
	return archive, v
}

func BenchmarkArchiveCommitSparseDelta(b *testing.B) {
	archive, v := benchArchive(b, sec.BasicSEC)
	rng := rand.New(rand.NewSource(7))
	b.SetBytes(int64(len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := sec.SparseEdit(rng, v, 1024, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := archive.CommitContext(b.Context(), next); err != nil {
			b.Fatal(err)
		}
		v = next
	}
}

func BenchmarkArchiveRetrieveLatestSparseChain(b *testing.B) {
	archive, v := benchArchive(b, sec.BasicSEC)
	rng := rand.New(rand.NewSource(8))
	for j := 0; j < 4; j++ {
		next, err := sec.SparseEdit(rng, v, 1024, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := archive.CommitContext(b.Context(), next); err != nil {
			b.Fatal(err)
		}
		v = next
	}
	b.SetBytes(int64(len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := archive.RetrieveContext(b.Context(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveRetrieveTCPBatched builds a (20,10) archive whose 20 nodes are real
// RemoteNode clients talking to loopback TCP servers, commits a chain of
// one full version plus four sparse deltas, and measures Retrieve of the
// chain tip. The whole retrieval costs one concurrent liveness ping per
// node plus one get-batch RPC per node touched. The 2 MB case is the one
// where carrying the bytes, not the RPC count, is the cost: B/op over the
// object size is the bytes a read allocates per byte it returns.
func BenchmarkArchiveRetrieveTCPBatched(b *testing.B) {
	for _, size := range []struct {
		name      string
		blockSize int
	}{{"40KiB", 4096}, {"2MB", 204800}} {
		b.Run(size.name, func(b *testing.B) { benchArchiveRetrieveTCP(b, size.blockSize) })
	}
}

func benchArchiveRetrieveTCP(b *testing.B, blockSize int) {
	const n, k = 20, 10
	nodes := make([]sec.StorageNode, n)
	for i := 0; i < n; i++ {
		srv := transport.NewServer(store.NewMemNode(fmt.Sprintf("mem-%d", i)))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client := transport.NewRemoteNode(fmt.Sprintf("remote-%d", i), addr.String())
		defer client.Close()
		nodes[i] = client
	}
	archive, err := sec.NewArchive(sec.ArchiveConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         n,
		K:         k,
		BlockSize: blockSize,
	}, sec.NewCluster(nodes))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	if _, err := archive.CommitContext(b.Context(), v); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		next, err := sec.SparseEdit(rng, v, blockSize, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := archive.CommitContext(b.Context(), next); err != nil {
			b.Fatal(err)
		}
		v = next
	}
	b.SetBytes(int64(len(v)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := archive.RetrieveContext(b.Context(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	srv := transport.NewServer(store.NewMemNode("bench"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := transport.NewRemoteNode("bench", addr.String())
	defer client.Close()
	id := store.ShardID{Object: "o", Row: 0}
	payload := make([]byte, 4096)
	if err := client.Put(b.Context(), id, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Get(b.Context(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieveOldestByChainState measures what compaction buys the
// paper's linear-in-chain-length cost: reading the oldest version of a
// (20,10) Reversed-SEC chain of 1 full + 8 sparse deltas, against the
// same history compacted to MaxChainLength=4.
func BenchmarkRetrieveOldestByChainState(b *testing.B) {
	build := func(b *testing.B, compact bool) *sec.Archive {
		b.Helper()
		archive, err := sec.NewArchive(sec.ArchiveConfig{
			Scheme:    sec.ReversedSEC,
			Code:      sec.NonSystematicCauchy,
			N:         20,
			K:         10,
			BlockSize: 4096,
		}, sec.NewMemCluster(20))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		object := make([]byte, 10*4096)
		rng.Read(object)
		for j := 0; j < 9; j++ {
			if j > 0 {
				if object, err = sec.SparseEdit(rng, object, 4096, 1); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := archive.CommitContext(b.Context(), object); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			if _, err := archive.CompactToContext(b.Context(), 4); err != nil {
				b.Fatal(err)
			}
		}
		return archive
	}
	for _, state := range []struct {
		name    string
		compact bool
	}{{"chained", false}, {"compacted", true}} {
		b.Run(state.name, func(b *testing.B) {
			archive := build(b, state.compact)
			b.SetBytes(10 * 4096)
			b.ReportAllocs()
			b.ResetTimer()
			reads := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := archive.RetrieveContext(b.Context(), 1)
				if err != nil {
					b.Fatal(err)
				}
				reads = stats.NodeReads
			}
			b.ReportMetric(float64(reads), "node-reads/op")
		})
	}
}

// BenchmarkCompactPass prices the maintenance operation itself: one full
// compaction of the 9-version chain above (materialize, merge, re-encode,
// swap, GC).
func BenchmarkCompactPass(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 10*4096)
	rng.Read(base)
	history := [][]byte{base}
	object := base
	var err error
	for j := 1; j < 9; j++ {
		if object, err = sec.SparseEdit(rng, object, 4096, 1); err != nil {
			b.Fatal(err)
		}
		history = append(history, object)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		archive, err := sec.NewArchive(sec.ArchiveConfig{
			Scheme:    sec.ReversedSEC,
			Code:      sec.NonSystematicCauchy,
			N:         20,
			K:         10,
			BlockSize: 4096,
		}, sec.NewMemCluster(20))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range history {
			if _, err := archive.CommitContext(b.Context(), v); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := archive.CompactToContext(b.Context(), 4); err != nil {
			b.Fatal(err)
		}
	}
}
