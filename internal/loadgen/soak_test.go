package loadgen

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/testutil"
)

// TestLoadSoak is the soak: a zipfian mixed-traffic profile (8 closed-loop
// clients over 64 archives, every op kind in the mix, scrub and repair
// included) against a served gateway whose storage nodes - MemNodes and
// DiskNodes behind TCP servers - run seeded chaos schedules, under -race in
// CI. The history checker judges the run: acknowledged versions distinct
// and in real-time order, every read the bytes of a commit invoked before
// it returned, no stale latest, and every acknowledged version read back
// by the final sweep once the fault windows are over. Besides, the run must
// have ridden through every window, at least 3 commits must land and every
// read must succeed while the windows run, faults must have fired, the read
// cache must have served, no goroutine may leak, and p999 stays bounded.
//
// Replayable: set CHAOS_SEED to rerun a failure; the failing report logs
// the schedule description, which is also written to
// $CHAOS_ARTIFACTS/chaos-schedule.txt when that variable is set.
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
	if dir := os.Getenv("CHAOS_ARTIFACTS"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "chaos-schedule.txt"), []byte(report.ChaosDesc+"\n"), 0o644); err != nil {
			t.Errorf("writing schedule artifact: %v", err)
		}
	}
	logReport := func() {
		t.Logf("soak seed=%d elapsed=%v ticks=%d injected=%+v ops=%+v",
			seed, report.Elapsed, report.ChaosTicks, report.Injected, report.Ops)
		t.Logf("chaos schedules:\n%s", report.ChaosDesc)
	}

	// The measured phase must have ridden through every scheduled window,
	// or the run says nothing about the later ones.
	if end := uint64(chaosWindows * chaosWindowLen); report.ChaosTicks < end {
		logReport()
		t.Fatalf("measured phase consumed %d ticks, short of the %d-tick schedule; workload too small", report.ChaosTicks, end)
	}

	// The contract is absolute: chaos may fail operations, never make a
	// read return bytes no commit wrote, lose an acknowledged version, or
	// serve a stale latest.
	if bad := checkHistory(report.history); len(bad) != 0 {
		logReport()
		t.Fatalf("history violates the contract under chaos (seed %d):\n%s", seed, strings.Join(bad, "\n"))
	}
	if want := uint64(p.Clients * p.OpsPerClient); report.TotalOps != want {
		t.Errorf("TotalOps = %d, want %d", report.TotalOps, want)
	}

	// Liveness: with at most n - k nodes inside a window, commits still
	// land and every read still succeeds while the windows run; only
	// admission backpressure may refuse one.
	commits := 0
	var readErrs []string
	for _, e := range report.history {
		switch {
		case !e.underChaos:
		case e.op == opCommit && e.version > 0:
			commits++
		case (e.op == opRetrieve || e.op == opRetrieveAll || e.op == opLatest) && e.err != nil && !errors.Is(e.err, store.ErrBusy):
			readErrs = append(readErrs, fmt.Sprintf("client %d's %s of %s: %v", e.client, opNames[e.op], archiveName(e.arch), e.err))
		}
	}
	if commits < 3 {
		logReport()
		t.Errorf("only %d commits acknowledged under chaos (seed %d)", commits, seed)
	}
	if len(readErrs) != 0 {
		logReport()
		t.Errorf("%d reads failed with at most n - k nodes faulty (seed %d):\n%s", len(readErrs), seed, strings.Join(readErrs, "\n"))
	}

	// The chaos machinery must actually have fired.
	if report.Injected == (faults.InjectionStats{}) {
		logReport()
		t.Error("soak injected no faults; schedules too tame")
	}
	// The read cache is on so that a commit that caches the wrong blocks,
	// a decode that writes into a cached version, or a scrub or repair
	// that leaves a decode of a corrupt row behind shows up in the
	// history; that only tests something if the cache served, single
	// versions and whole prefixes both.
	var cacheHits, prefixHits int
	for _, e := range report.history {
		if e.cacheHit {
			cacheHits++
			if e.op == opRetrieveAll {
				prefixHits++
			}
		}
	}
	if cacheHits == 0 || prefixHits == 0 {
		t.Errorf("%d reads, %d of them retrieve-alls, were served by the read cache (seed %d); workload not exercising it", cacheHits, prefixHits, seed)
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
