package core

import (
	"bytes"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// TestRetryAddsNoCountedRead pins the premise of the cluster's always-on
// retry rule: a retry re-issues only the shards that failed, and only the
// shards that arrive are counted, so it adds no read to the paper's count.
// On a (12,10) chain of sparse deltas, node 0 fails its next get batch with
// ErrNodeDown and then serves, before each read: every version reads back
// byte-identical, in the reads formula (3) plans, and node 0 served the
// re-issued batch instead of the read falling back to a liveness ping.
func TestRetryAddsNoCountedRead(t *testing.T) {
	const n, k, blockSize, versions = 12, 10, 16, 6
	inner := store.NewMemNode("flaky")
	flaky := faults.NewChaosNode(inner, faults.Schedule{})
	var clock faults.Clock
	flaky.UseClock(&clock)
	cluster, _, pings := pingCountedCluster(n, flaky)
	a, err := New(Config{
		Name: "premise", Scheme: BasicSEC, Code: erasure.NonSystematicCauchy, N: n, K: k, BlockSize: blockSize,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{7}, a.Capacity())
	var want [][]byte
	for v := 0; v < versions; v++ {
		if v > 0 {
			object = editBlocks(object, blockSize, v%k)
		}
		if info := mustCommit(t, a, object); v > 0 && info.Gamma != 1 {
			t.Fatalf("version %d: gamma = %d, want a sparse delta", v+1, info.Gamma)
		}
		want = append(want, object)
	}

	for l := 1; l <= versions; l++ {
		next := clock.Ticks()
		flaky.SetSchedule(faults.Schedule{Rules: []faults.Rule{{Kind: faults.FaultError, Ops: faults.OpGet, From: next, To: next + 1}}})
		failed := flaky.InjectionStats().Errors
		inner.ResetStats()
		pings.Store(0)
		got, stats := mustRetrieve(t, a, l)
		if !bytes.Equal(got, want[l-1]) {
			t.Errorf("version %d: content mismatch", l)
		}
		planned, err := a.PlannedReads(l)
		if err != nil {
			t.Fatal(err)
		}
		if stats.NodeReads != planned {
			t.Errorf("version %d: %d node reads, formula (3) plans %d", l, stats.NodeReads, planned)
		}
		if errs := flaky.InjectionStats().Errors - failed; errs != 1 {
			t.Fatalf("version %d: node 0 failed %d get batches, want 1", l, errs)
		}
		// The read that does not re-issue the batch doubts node 0 and falls
		// back: it pings the node, then reads it again.
		if inner.Stats().Reads == 0 || pings.Load() != 0 {
			t.Errorf("version %d: node 0 served %d reads after %d pings, want its re-issued batch and no ping",
				l, inner.Stats().Reads, pings.Load())
		}
	}
}
