package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/secclient"
)

// The ledger pushes the workloads' object shapes through each layer's
// public entry point in isolation, one layer at a time, and reports the
// median of per-call times. Subtracting adjacent rows names the layer that
// holds the time; the tax rows do that subtraction as ratios.

const (
	smallBlock = 4096   // the 40 960 B workloads' block
	largeBlock = 204800 // large_object's block
	chainTip   = 5      // core, gateway and secclient rows work at the tip of a 5-version gamma=1 chain
)

// timeCalls calls f back to back for at least d and returns the median
// call time in microseconds and the number of calls. f reports its own
// failures through the returned error, which ends the row.
func timeCalls(d time.Duration, f func() error) (float64, int, error) {
	var samples []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(samples), len(samples), nil
}

func randomBlocks(rng *rand.Rand, count, size int) [][]byte {
	blocks := make([][]byte, count)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		rng.Read(blocks[i])
	}
	return blocks
}

// erasureRows measures encode, full decode and gamma=1 sparse decode at one
// block size. It returns the decode time a retrieve at the chain tip needs:
// one full decode and chainTip-1 sparse ones.
func erasureRows(rng *rand.Rand, code *erasure.Code, size int, tag string, row func(name, unit string, f func() error) (float64, error)) (float64, error) {
	blocks := randomBlocks(rng, codeK, size)
	shards := erasure.GetBuffers(codeN, size)
	defer shards.Release()
	decoded := erasure.GetBuffers(codeK, size)
	defer decoded.Release()
	if _, err := row("erasure.encode_"+tag+"_us", "us", func() error { return code.EncodeInto(blocks, shards.Blocks) }); err != nil {
		return 0, err
	}
	rows := make([]int, codeK)
	for i := range rows {
		rows[i] = i
	}
	full, err := row("erasure.decode_full_"+tag+"_us", "us", func() error {
		return code.DecodeFullInto(rows, shards.Blocks[:codeK], decoded.Blocks)
	})
	if err != nil {
		return 0, err
	}
	// A delta with one non-zero block, read back from the 2 rows a sparse
	// read of gamma 1 asks for.
	sparseDelta := make([][]byte, codeK)
	for i := range sparseDelta {
		sparseDelta[i] = make([]byte, size)
	}
	rng.Read(sparseDelta[3])
	if err := code.EncodeInto(sparseDelta, shards.Blocks); err != nil {
		return 0, fmt.Errorf("ledger: %w", err)
	}
	all := make([]int, codeN)
	for i := range all {
		all[i] = i
	}
	sparseRows := code.SparseReadRows(all, 1)
	sparseShards := make([][]byte, len(sparseRows))
	for i, r := range sparseRows {
		sparseShards[i] = shards.Blocks[r]
	}
	sparse, err := row("erasure.decode_sparse_"+tag+"_us", "us", func() error {
		_, err := code.DecodeSparse(sparseRows, sparseShards, 1)
		return err
	})
	if err != nil {
		return 0, err
	}
	return full + float64(chainTip-1)*sparse, nil
}

// ledger measures every isolated row. rowTime is how long each row runs;
// scratch is where the disk-node and gateway rows may write.
func ledger(ctx context.Context, out *report, rowTime time.Duration, scratch string) error {
	rng := rand.New(rand.NewSource(1))
	row := func(name, unit string, f func() error) (float64, error) {
		us, n, err := timeCalls(rowTime, f)
		if err != nil {
			return 0, fmt.Errorf("ledger row %s: %w", name, err)
		}
		out.add(name, unit, us, fmt.Sprintf("median of %d calls", n))
		return us, nil
	}

	// gf: one 64 KiB multiply-accumulate, reported as bandwidth.
	src, dst := make([]byte, 64<<10), make([]byte, 64<<10)
	rng.Read(src)
	us, n, err := timeCalls(rowTime, func() error { gf.MulAddSlice(0x57, dst, src); return nil })
	if err != nil {
		return err
	}
	out.add("gf.muladd_gb_per_s", "GB/s", ratio(float64(len(src)), us*1e3), fmt.Sprintf("64 KiB MulAddSlice, median of %d calls", n))

	// erasure: encode, full decode and gamma=1 sparse decode at both blocks.
	code, err := erasure.New(erasure.NonSystematicCauchy, codeN, codeK)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	smallDecodes, err := erasureRows(rng, code, smallBlock, "4k", row)
	if err != nil {
		return err
	}
	if _, err := erasureRows(rng, code, largeBlock, "200k", row); err != nil {
		return err
	}

	// delta: difference and sparsity of two 2 048 000 B versions.
	prev := randomBlocks(rng, codeK, largeBlock)
	next := make([][]byte, codeK)
	for i := range next {
		next[i] = append([]byte(nil), prev[i]...)
	}
	next[7][100] ^= 0x5A
	if _, err := row("delta.compute_us", "us", func() error {
		d, err := delta.Compute(prev, next)
		if err == nil && delta.Sparsity(d) != 1 {
			err = errMismatch
		}
		return err
	}); err != nil {
		return err
	}

	// store: one 4 096 B shard through each node kind's batch calls.
	dir, err := os.MkdirTemp(scratch, "ledger-")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer os.RemoveAll(dir)
	disk, err := store.NewDiskNode("ledger-disk", filepath.Join(dir, "disk"))
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	mem := store.NewMemNode("ledger-mem")
	shard := [][]byte{randomBlocks(rng, 1, smallBlock)[0]}
	const keys = 256
	for _, node := range []struct {
		tag  string
		node store.BatchNode
	}{{"mem", mem}, {"disk", disk}} {
		i := 0
		id := func() []store.ShardID {
			i++
			return []store.ShardID{{Object: fmt.Sprintf("ledger/%d", i%keys), Row: 0}}
		}
		if _, err := row("store."+node.tag+"_putbatch_us", "us", func() error { return node.node.PutBatch(ctx, id(), shard)[0] }); err != nil {
			return err
		}
		for j := 0; j < keys; j++ { // make sure every key the get row asks for exists
			if err := node.node.PutBatch(ctx, id(), shard)[0]; err != nil {
				return fmt.Errorf("ledger: %w", err)
			}
		}
		if _, err := row("store."+node.tag+"_getbatch_us", "us", func() error { return node.node.GetBatch(ctx, id())[0].Err }); err != nil {
			return err
		}
	}
	if err := disk.Close(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}

	// transport: the same one-shard GetBatch against the memory node, now
	// over a loopback RPC.
	nodeSrv := transport.NewServer(mem)
	addr, err := nodeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer nodeSrv.Close()
	remote := transport.NewRemoteNode("ledger-mem", addr.String(), transport.WithTimeout(rpcTimeout))
	defer remote.Close()
	one := []store.ShardID{{Object: "ledger/1", Row: 0}}
	if _, err := row("transport.node_rpc_us", "us", func() error { return remote.GetBatch(ctx, one)[0].Err }); err != nil {
		return err
	}

	// core, gateway, secclient: commit and retrieve at the tip of a
	// 5-version gamma=1 chain of 40 960 B objects, on an in-process memory
	// cluster, so each row adds exactly one layer to the one before.
	object := make([]byte, codeK*smallBlock)
	rng.Read(object)
	edit := func() []byte {
		sparseEdit(rng, object, smallBlock, 1)
		return object
	}
	// chains times commits at chain positions chainTip+1 .. chainTip+20 of
	// ever fresh chains, so no row measures a long chain. Building the next
	// chain happens inside one timed call in 21; the row is a median, which
	// that call does not move.
	chains := func(name string, fresh func(i int) (commit func([]byte) error, err error)) (float64, error) {
		var commit func([]byte) error
		made, left := 0, 0
		return row(name, "us", func() error {
			if left == 0 {
				var err error
				if commit, err = fresh(made); err != nil {
					return err
				}
				made++
				rng.Read(object)
				if err := commit(object); err != nil {
					return err
				}
				for v := 2; v <= chainTip; v++ {
					if err := commit(edit()); err != nil {
						return err
					}
				}
				left = 20
			}
			left--
			return commit(edit())
		})
	}

	cfg := core.Config{Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: codeN, K: codeK, BlockSize: smallBlock}
	var tipArchive *core.Archive
	if _, err := chains("core.commit_us", func(i int) (func([]byte) error, error) {
		c := cfg
		c.Name = fmt.Sprintf("core-%d", i)
		a, err := core.New(c, store.NewMemCluster(codeN))
		if err != nil {
			return nil, err
		}
		tipArchive = a
		return func(b []byte) error { _, err := a.CommitContext(ctx, b); return err }, nil
	}); err != nil {
		return err
	}
	coreRetrieve, err := row("core.retrieve_us", "us", func() error {
		_, _, err := tipArchive.RetrieveContext(ctx, chainTip)
		return err
	})
	if err != nil {
		return err
	}

	gw, err := gateway.New(gateway.Config{Cluster: store.NewMemCluster(codeN), Root: filepath.Join(dir, "gateway")})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer gw.Close(ctx)
	spec := baseSpec("basic-sec", smallBlock)
	tipName := ""
	if _, err := chains("gateway.commit_us", func(i int) (func([]byte) error, error) {
		tipName = fmt.Sprintf("gw-%d", i)
		name := tipName
		if _, err := gw.Create(ctx, name, spec); err != nil {
			return nil, err
		}
		return func(b []byte) error { _, err := gw.Commit(ctx, name, -1, b); return err }, nil
	}); err != nil {
		return err
	}
	gwRetrieve, err := row("gateway.retrieve_us", "us", func() error {
		_, err := gw.Retrieve(ctx, tipName, chainTip)
		return err
	})
	if err != nil {
		return err
	}

	gwSrv := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	gwAddr, err := gwSrv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer gwSrv.Close()
	sdk := secclient.Dial(gwAddr.String(), secclient.WithTimeout(rpcTimeout))
	defer sdk.Close()
	if _, err := row("secclient.roundtrip_us", "us", func() error {
		_, err := sdk.Info(ctx, tipName)
		return err
	}); err != nil {
		return err
	}
	sdkRetrieve, _, err := timeCalls(rowTime, func() error {
		_, err := sdk.Retrieve(ctx, tipName, chainTip)
		return err
	})
	if err != nil {
		return fmt.Errorf("ledger: served retrieve: %w", err)
	}

	// taxes: each retrieve row over the one below it.
	base := smallDecodes
	out.add("tax.core_over_erasure", "ratio", ratio(coreRetrieve, base), fmt.Sprintf("core.retrieve_us %.1f over one full and %d sparse 4k decodes, %.1f us", coreRetrieve, chainTip-1, base))
	out.add("tax.gateway_over_core", "ratio", ratio(gwRetrieve, coreRetrieve), fmt.Sprintf("gateway.retrieve_us %.1f over core.retrieve_us %.1f", gwRetrieve, coreRetrieve))
	out.add("tax.secclient_over_gateway", "ratio", ratio(sdkRetrieve, gwRetrieve), fmt.Sprintf("served retrieve %.1f us over gateway.retrieve_us %.1f", sdkRetrieve, gwRetrieve))
	return nil
}
