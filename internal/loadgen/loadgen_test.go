package loadgen

import (
	"context"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/testutil"
)

// smallProfile is a scaled-down mixed-traffic profile that still touches
// every op kind.
func smallProfile(seed int64) Profile {
	return Profile{
		Seed:         seed,
		Archives:     16,
		Clients:      4,
		OpsPerClient: 15,
	}
}

// TestRunDeterminism is the harness's replayability contract: two Run
// invocations with the same seed produce identical op sequences and
// identical workload bytes — byte-for-byte identical planned traces —
// regardless of goroutine scheduling, extending the workload package's
// seed-reproducibility guarantee through the whole harness.
func TestRunDeterminism(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ctx := t.Context()
	first, err := Run(ctx, smallProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, smallProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	if first.TraceDigest != second.TraceDigest {
		t.Errorf("trace digests diverged: %x vs %x", first.TraceDigest, second.TraceDigest)
	}
	if len(first.ClientDigests) != len(second.ClientDigests) {
		t.Fatalf("client counts diverged: %d vs %d", len(first.ClientDigests), len(second.ClientDigests))
	}
	for i := range first.ClientDigests {
		if first.ClientDigests[i] != second.ClientDigests[i] {
			t.Errorf("client %d digest diverged: %x vs %x", i, first.ClientDigests[i], second.ClientDigests[i])
		}
	}
	// The op mix itself is planned, so per-kind counts must match too.
	if len(first.Ops) != len(second.Ops) {
		t.Fatalf("op kinds diverged: %d vs %d", len(first.Ops), len(second.Ops))
	}
	for i := range first.Ops {
		if first.Ops[i].Op != second.Ops[i].Op || first.Ops[i].Count != second.Ops[i].Count {
			t.Errorf("op %s count %d vs %s count %d",
				first.Ops[i].Op, first.Ops[i].Count, second.Ops[i].Op, second.Ops[i].Count)
		}
	}
	// The plan is also pinned across commits, not only within one process:
	// smallProfile(42) plans exactly these ops. A change here means the
	// generator's plan drifted (every seeded load result before it stops
	// being comparable); update the literals only when that is intended.
	const pinnedDigest = 0xd7e8d3f57f0b5c44
	pinnedCounts := []struct {
		op    string
		count uint64
	}{{"commit", 16}, {"retrieve", 26}, {"latest", 7}, {"log", 6}, {"compact", 5}}
	if first.TraceDigest != pinnedDigest {
		t.Errorf("smallProfile(42) trace digest = %#x, pinned %#x: the seed-pinned plan drifted", first.TraceDigest, uint64(pinnedDigest))
	}
	if len(first.Ops) != len(pinnedCounts) {
		t.Fatalf("smallProfile(42) planned %d op kinds, pinned %d", len(first.Ops), len(pinnedCounts))
	}
	for i, pin := range pinnedCounts {
		if first.Ops[i].Op != pin.op || first.Ops[i].Count != pin.count {
			t.Errorf("smallProfile(42) op row %d = %s x%d, pinned %s x%d", i, first.Ops[i].Op, first.Ops[i].Count, pin.op, pin.count)
		}
	}
	// A different seed must actually change the plan.
	third, err := Run(ctx, smallProfile(43))
	if err != nil {
		t.Fatal(err)
	}
	if third.TraceDigest == first.TraceDigest {
		t.Error("different seeds produced the same trace digest")
	}
}

// TestRunReport checks the report's accounting invariants on a clean
// (chaos-free) run: all planned ops issued, none failed, every read
// byte-identical, and latency quantiles ordered.
func TestRunReport(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	p := smallProfile(7)
	report, err := Run(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(p.Clients * p.OpsPerClient); report.TotalOps != want {
		t.Errorf("TotalOps = %d, want %d", report.TotalOps, want)
	}
	if len(report.Divergences) != 0 {
		t.Errorf("byte divergences on a clean run: %q", report.Divergences)
	}
	if report.VerifiedVersions == 0 {
		t.Error("final sweep verified nothing")
	}
	for _, op := range report.Ops {
		if op.Errors != 0 {
			t.Errorf("%s: %d unexpected errors on a clean run", op.Op, op.Errors)
		}
		if op.Conflicts != 0 {
			t.Errorf("%s: %d conflicts without CommitAt contention", op.Op, op.Conflicts)
		}
		if !(op.P50 <= op.P99 && op.P99 <= op.P999 && op.P999 <= op.Max) {
			t.Errorf("%s: quantiles not ordered: p50=%v p99=%v p999=%v max=%v",
				op.Op, op.P50, op.P99, op.P999, op.Max)
		}
		if op.Count > 0 && op.P50 == 0 {
			t.Errorf("%s: zero p50 over %d ops", op.Op, op.Count)
		}
	}
	if report.Elapsed <= 0 {
		t.Error("no elapsed time measured")
	}
}

// TestRunHonorsCancellation bounds a run by a context deadline: Run must
// return promptly with the cause instead of finishing the profile.
func TestRunHonorsCancellation(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	p := smallProfile(9)
	p.Archives = 64
	p.OpsPerClient = 500
	start := time.Now()
	_, err := Run(ctx, p)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if time.Since(start) > 20*time.Second {
		t.Fatalf("cancelled run took %v to return", time.Since(start))
	}
}
