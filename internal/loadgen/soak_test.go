package loadgen

import (
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/testutil"
)

// TestLoadSoak is the gateway soak the roadmap's scale item asks for: a
// zipfian mixed-traffic profile (8 closed-loop clients over 64 archives,
// every op kind in the mix) against a served gateway whose storage nodes
// run seeded chaos schedules, under -race in CI. It must come out with
// byte-identical reads everywhere (in-band verification plus the final
// sweep), no goroutine leaks, and a bounded p999 — the properties that
// make the harness a regression gate rather than a demo.
//
// Replayable: set CHAOS_SEED to rerun a failure; the failing report logs
// the schedule description.
func TestLoadSoak(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	seed := int64(20260808)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		parsed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		seed = parsed
	}
	p := Profile{
		Seed:         seed,
		Archives:     64,
		Clients:      8,
		OpsPerClient: 40,
		Chaos:        true,
	}
	report, err := Run(t.Context(), p)
	if err != nil {
		t.Fatalf("soak run failed (seed %d): %v", seed, err)
	}
	logReport := func() {
		t.Logf("soak seed=%d elapsed=%v ticks=%d injected=%+v ops=%+v",
			seed, report.Elapsed, report.ChaosTicks, report.Injected, report.Ops)
		t.Logf("chaos schedules:\n%s", report.ChaosDesc)
	}

	// Byte identity is absolute: chaos may fail operations, never corrupt
	// what a read returns or what the final sweep recovers.
	if len(report.Divergences) != 0 {
		logReport()
		t.Fatalf("byte divergences under chaos: %q", report.Divergences)
	}
	if report.VerifiedVersions == 0 {
		t.Fatal("final sweep verified nothing")
	}
	if want := uint64(p.Clients * p.OpsPerClient); report.TotalOps != want {
		t.Errorf("TotalOps = %d, want %d", report.TotalOps, want)
	}

	// The chaos machinery must actually have fired, and the measured
	// phase must have ridden through every scheduled window.
	if report.Injected == (faults.InjectionStats{}) {
		logReport()
		t.Error("soak injected no faults; schedules too tame")
	}
	if end := uint64(chaosWindows * chaosWindowLen); report.ChaosTicks < end {
		logReport()
		t.Errorf("measured phase consumed %d ticks, short of the %d-tick schedule", report.ChaosTicks, end)
	}

	// Latency bound: p999 per op kind stays under a deliberately generous
	// ceiling. Chaos injects milliseconds of latency and retries multiply
	// it; what this catches is a hang, an unbounded backoff, or a lost
	// wakeup — order-of-magnitude regressions, not jitter.
	const p999Ceiling = 10 * time.Second
	for _, op := range report.Ops {
		if op.P999 > p999Ceiling {
			logReport()
			t.Errorf("%s: p999 %v breaches the %v ceiling", op.Op, op.P999, p999Ceiling)
		}
		if !(op.P50 <= op.P99 && op.P99 <= op.P999) {
			t.Errorf("%s: quantiles not ordered: p50=%v p99=%v p999=%v", op.Op, op.P50, op.P99, op.P999)
		}
	}
}
