package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// pass is one one-client replay of the plan on its own fixture.
type pass struct {
	timed       phaseResult
	mainOps     int64     // traced ops of the timed phase
	mainLatency float64   // sum of the timed phase's client-side latencies, ms
	mainCommits []float64 // the timed phase's commit latencies, in order
	totals      *counters // timed phase and probes
	busy        uint64
	conflicts   uint64
	manifests   int64 // bytes of manifest files under the gateway root at the end
	mem0, mem1  runtime.MemStats
}

func runPass(ctx context.Context, w *workload, p *plan, scratch string, tr *tracer, budget time.Duration) (*pass, error) {
	r, _, err := startRun(ctx, w, p, scratch, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ps := &pass{}
	heapAfterGC(1)
	runtime.ReadMemStats(&ps.mem0)
	if tr != nil {
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	opsBefore := r.opSeq.Load()
	ps.timed = r.phase(ctx, p.main, modeTimed, time.Now().Add(budget))
	runtime.ReadMemStats(&ps.mem1)
	ps.mainOps = r.opSeq.Load() - opsBefore
	main := r.totals()
	for _, samples := range main.lat {
		for _, ms := range samples {
			ps.mainLatency += ms
		}
	}
	ps.mainCommits = main.lat[opCommit]
	r.phase(ctx, p.probe, modeTimed, time.Time{})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted: %w", context.Cause(ctx))
	}
	ps.totals = r.totals()
	stats := r.fx.gw.Stats()
	ps.busy, ps.conflicts = stats.BusyRejections, stats.Conflicts
	if ps.manifests, err = treeBytes(r.fx.gatewayRoot()); err != nil {
		return nil, err
	}
	return ps, nil
}

// perLayer is the traced mode. One client's share of one replicate is
// replayed by one client, twice: plain, for the counts, the per-kind latencies,
// the process rows and the throughput that tracing is compared against;
// and on a fixture with timing decorators at the gateway, link and node
// seams, for the span rows. Which pass goes first alternates with the seed,
// because the second fixture of a process does not find the machine as the
// first did: the heap has grown. The isolated-layer ledger runs last.
func perLayer(ctx context.Context, w *workload, cfg config, scratch string, rep *report) error {
	p := w.build(cfg.seed, 1, cfg.seconds/refSeconds, true)
	fmt.Fprintf(os.Stderr, "plan digest %016x\n", planDigest(w, p))
	budget := time.Duration(cfg.seconds / replicates * float64(time.Second))
	tr := newTracer()
	var plain, traced *pass
	var err error
	for _, tracedTurn := range []bool{cfg.seed%2 != 0, cfg.seed%2 == 0} {
		if tracedTurn {
			traced, err = runPass(ctx, w, p, scratch, tr, budget)
		} else {
			plain, err = runPass(ctx, w, p, scratch, nil, budget)
		}
		if err != nil {
			return err
		}
	}
	t := plain.totals

	breakdowns := tr.resolve()
	if int64(len(breakdowns)) > traced.mainOps {
		breakdowns = breakdowns[:traced.mainOps] // the span rows describe the timed phase, not the probes
	}
	var sum opBreakdown
	for _, b := range breakdowns {
		sum.Hop += b.Hop
		sum.Gateway += b.Gateway
		sum.Link += b.Link
		sum.Node += b.Node
		sum.RPCs += b.RPCs
		sum.NodeCalls += b.NodeCalls
	}
	tracePath := filepath.Join(cfg.out, "trace_"+w.name+".json")
	if err := tr.write(tracePath, w.name, cfg.seed); err != nil {
		return err
	}
	perOp := func(d time.Duration) float64 {
		return ratio(float64(d)/float64(time.Millisecond), float64(len(breakdowns)))
	}
	share := func(d time.Duration) float64 {
		return 100 * ratio(float64(d)/float64(time.Millisecond), traced.mainLatency)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s; over %d timed ops the four self times sum to %.1f%% of the client-side latency (hop %.1f%%, gateway+core %.1f%%, link %.1f%%, node %.1f%%)\n",
		len(tr.spans), tracePath, len(breakdowns), share(sum.Hop+sum.Gateway+sum.Link+sum.Node),
		share(sum.Hop), share(sum.Gateway), share(sum.Link), share(sum.Node))

	// Isolated layers.
	rowTime := time.Duration(min(1, cfg.seconds/refSeconds) * float64(500*time.Millisecond))
	if err := ledger(ctx, rep, rowTime, scratch); err != nil {
		return err
	}

	spanNote := fmt.Sprintf("mean over %d traced ops", len(breakdowns))
	rep.add("store.node_busy_ms_per_op", "ms", perOp(sum.Node), spanNote+", union of node-side spans")
	rep.add("store.node_calls_per_op", "count", ratio(float64(sum.NodeCalls), float64(len(breakdowns))), spanNote)
	rep.add("transport.node_rpcs_per_op", "count", ratio(float64(sum.RPCs), float64(len(breakdowns))), spanNote)
	rep.add("transport.node_link_ms_per_op", "ms", perOp(sum.Link), spanNote+", union of link spans minus union of node spans")
	rep.add("transport.gw_hop_ms_per_op", "ms", perOp(sum.Hop), spanNote+", client span minus gateway span")
	rep.add("gateway.self_ms_per_op", "ms", perOp(sum.Gateway), spanNote+", gateway span minus union of link spans (gateway and core)")

	decoded := t.sparse + t.full + t.compressed
	rep.add("core.cache_hit_ratio", "ratio", ratio(float64(t.hits), float64(t.reads)), fmt.Sprintf("%d cache-served of %d reads", t.hits, t.reads))
	rep.add("core.sparse_read_share", "ratio", ratio(float64(t.sparse), float64(decoded)), fmt.Sprintf("%d sparse of %d decoded objects", t.sparse, decoded))
	rep.add("core.shard_writes_per_commit", "count", ratio(float64(t.shardWrites), float64(t.commits)), fmt.Sprintf("%d commits", t.commits))
	rep.add("core.compactions_per_1k_commits", "count", 1000*ratio(float64(t.compactions), float64(t.commits)), fmt.Sprintf("%d compactions", t.compactions))
	rep.add("gateway.manifest_bytes", "B", float64(plain.manifests), "manifest files under the gateway root at the end")
	mainCommits := plain.mainCommits
	if len(mainCommits) < 20 {
		mainCommits = t.lat[opCommit] // a read workload's commits are its probe's
	}
	tenth := max(1, len(mainCommits)/10)
	rep.add("gateway.commit_p50_last_over_first", "ratio", ratio(median(mainCommits[len(mainCommits)-tenth:]), median(mainCommits[:tenth])),
		fmt.Sprintf("p50 of the last %d commits over the first %d", tenth, tenth))
	rep.add("gateway.busy", "count", float64(plain.busy), "commits refused by a full writer queue")
	rep.add("gateway.conflicts", "count", float64(plain.conflicts), "failed optimistic preconditions")
	latencyRow(rep, t, opLatest, "secclient.latest_p50_ms", 0.5)
	latencyRow(rep, t, opLog, "secclient.log_p50_ms", 0.5)
	latencyRow(rep, t, opCompact, "secclient.compact_p50_ms", 0.5)
	latencyRow(rep, t, opCommit, "secclient.commit_p95_ms", 0.95)
	latencyRow(rep, t, opRetrieve, "secclient.retrieve_p95_ms", 0.95)

	rep.add("proc.alloc_kb_per_op", "KB", ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc)/1024, float64(plain.timed.issued)), "heap allocated over the plain pass")
	rep.add("proc.gc_pause_ms", "ms", float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6, fmt.Sprintf("%d collections over the plain pass", plain.mem1.NumGC-plain.mem0.NumGC))
	rep.add("proc.peak_rss_mb", "MB", mb(uint64(peakRSS())), "high-water resident set of the whole run")
	plainRate := ratio(float64(plain.timed.issued), plain.timed.elapsed.Seconds())
	tracedRate := ratio(float64(traced.timed.issued), traced.timed.elapsed.Seconds())
	rep.add("proc.trace_overhead_pct", "%", 100*ratio(plainRate-tracedRate, plainRate), fmt.Sprintf("%.0f ops/s plain, %.0f traced", plainRate, tracedRate))

	rep.attempted, rep.failed = t.attempted+traced.totals.attempted, t.failed+traced.totals.failed
	return nil
}
