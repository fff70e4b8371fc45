// Command benchmark is the repository's one benchmark: it brings the whole
// served stack up in one process — twelve storage-node servers on loopback
// TCP, a gateway behind its own server, closed-loop secclient clients —
// runs one of four workloads made from -seed, checks every returned byte
// and read count against its own ledger, and prints every metric by name
// with its unit, the last line being the JSON result. See README.md.
//
//	go run . -workload sparse_read -seed 1 -seconds 25 -trace 0
//
// -trace 0 measures the end-to-end metrics: replicates of two clients on a
// fresh fixture each with nothing between the layers, every metric the median
// over them. -trace 1 measures the per-layer metrics: one client replaying
// its share of a replicate, once plain and once with timing decorators at the
// seams the benchmark owns, plus the isolated-layer ledger.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "sparse_read", "sparse_read, commit_chain, large_object or hot_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", refSeconds, "length of the timed phase; op counts scale with it")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced run and ledger")
	flag.StringVar(&cfg.out, "out", "out", "directory for trace files and scratch data (fixtures live under <out>/scratch)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	correct := rep.failed == 0
	if err := rep.print(os.Stdout, correct); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// measure runs one workload in the mode cfg asks for and returns its report,
// checked against the declared metric list.
func measure(ctx context.Context, cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 || cfg.seconds > 60 {
		return nil, fmt.Errorf("-seconds %v outside (0, 60]", cfg.seconds)
	}
	scratch := filepath.Join(cfg.out, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	fmt.Fprintf(os.Stderr, "workload %s seed %d seconds %g trace %d | GOMAXPROCS %d, %d CPUs, scratch on %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), fsName(scratch))
	rep := &report{}
	decls := endToEndMetrics
	if cfg.trace == 0 {
		err = endToEnd(ctx, w, cfg, scratch, rep)
	} else {
		decls = perLayerMetrics
		err = perLayer(ctx, w, cfg, scratch, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.check(decls); err != nil {
		return nil, err
	}
	return rep, nil
}

// reopenReps is how often each replicate runs the reopen phase.
const reopenReps = 2

// ratio is a/b, and 0 when b is 0: a row whose base did not occur reads 0
// instead of poisoning the JSON with NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func heapAfterGC(cycles int) uint64 {
	for i := 0; i < cycles; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// latencyRow emits one quantile of one op kind's latencies and shows the
// whole ladder on stderr.
func latencyRow(rep *report, t *counters, kind opKind, name string, q float64) {
	asc := sorted(t.lat[kind])
	fmt.Fprintf(os.Stderr, "  %-12s n=%-6d p50 %.3f  p75 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  max %.3f ms\n", kindNames[kind], len(asc),
		quantile(asc, 0.5), quantile(asc, 0.75), quantile(asc, 0.9), quantile(asc, 0.95), quantile(asc, 0.99), quantile(asc, 1))
	rep.add(name, "ms", quantile(asc, q), fmt.Sprintf("%d samples", len(asc)))
}

// endToEnd is the untraced run: replicates of two closed-loop clients on a
// fresh fixture each, every metric reported as the median over them.
func endToEnd(ctx context.Context, w *workload, cfg config, scratch string, rep *report) error {
	const clients = 2 // one generator process, never more client goroutines than the sandbox has cores
	scale := cfg.seconds / refSeconds
	p := w.build(cfg.seed, clients, scale, false)
	fmt.Fprintf(os.Stderr, "plan digest %016x\n", planDigest(w, p))
	count := replicates
	if scale < 0.2 {
		count = 1 // quick runs (tests) check the schema, not the spread
	}
	budget := time.Duration(cfg.seconds / float64(count) * float64(time.Second))
	reps := make([]*report, count)
	stolen := make([]float64, count)
	for i := range reps {
		reps[i] = &report{}
		steal0, wall0 := stolenTime(), time.Now()
		if err := replicate(ctx, w, p, scratch, budget, reps[i]); err != nil {
			return fmt.Errorf("replicate %d: %w", i+1, err)
		}
		stolen[i] = (stolenTime() - steal0).Seconds() / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
		fmt.Fprintf(os.Stderr, "replicate %d of %d: %.0f ops/s, %.1f%% of the CPUs' time stolen by the host\n", i+1, count, reps[i].value("ops_per_s"), 100*stolen[i])
		rep.attempted += reps[i].attempted
		rep.failed += reps[i].failed
	}
	quiet := quietest(stolen)
	for i, row := range reps[0].rows {
		values := make([]float64, len(quiet))
		for j, k := range quiet {
			values[j] = reps[k].rows[i].value
		}
		rep.add(row.name, row.unit, median(values), fmt.Sprintf("median of %d of %d replicates; in the first: %s", len(quiet), count, row.note))
	}
	return nil
}

// quietShare is how much of the CPUs' time the host may take from a
// replicate that still counts as undisturbed.
const quietShare = 0.01

// quietest picks the replicates a run reports from, given the share of CPU
// time the host stole during each: the undisturbed ones, and never fewer
// than the three least disturbed. Where the kernel reports no steal, that
// is all of them.
func quietest(stolen []float64) []int {
	order := make([]int, len(stolen))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen[order[a]] < stolen[order[b]] })
	keep := min(3, len(order))
	for keep < len(order) && stolen[order[keep]] <= quietShare {
		keep++
	}
	return order[:keep]
}

// replicate is one fresh fixture taken through every phase: set-up, the
// timed phase, the probes for op kinds the timed phase lacks, reopen, space.
func replicate(ctx context.Context, w *workload, p *plan, scratch string, budget time.Duration, rep *report) error {
	r, took, err := startRun(ctx, w, p, scratch, nil)
	if err != nil {
		return err
	}
	defer r.close()
	rep.add("setup_s", "s", took.Seconds(), "fixture start to first timed op")

	// Timed phase.
	heapAfterGC(1) // garbage of set-up and of the replicate before is not this phase's
	wire0 := r.fx.cluster.WireStats()
	planned := 0
	for _, ops := range p.main {
		planned += len(ops)
	}
	timed := r.phase(ctx, p.main, modeTimed, time.Now().Add(budget))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", context.Cause(ctx))
	}
	if timed.issued < planned {
		fmt.Fprintf(os.Stderr, "timed phase stopped at its share of -seconds after %d of %d planned ops\n", timed.issued, planned)
	}
	rep.add("ops_per_s", "1/s", ratio(float64(timed.issued), timed.elapsed.Seconds()), fmt.Sprintf("%d ops in %.2f s, %d clients closed loop", timed.issued, timed.elapsed.Seconds(), len(r.clients)))
	rep.add("cpu_ms_per_op", "ms", ratio(float64(timed.cpu)/float64(time.Millisecond), float64(timed.issued)), "process user+sys CPU over the timed phase, generator included")
	rep.add("live_heap_mb", "MB", mb(heapAfterGC(1)), "HeapAlloc after a forced GC at the end of the timed phase")

	// Probes, then everything the counters can say.
	r.phase(ctx, p.probe, modeTimed, time.Time{})
	wire := r.fx.cluster.WireStats()
	t := r.totals()
	latencyRow(rep, t, opCommit, "commit_p50_ms", 0.5)
	latencyRow(rep, t, opRetrieve, "retrieve_p50_ms", 0.5)
	latencyRow(rep, t, opRetrieveAll, "retrieve_all_p50_ms", 0.5)
	rep.add("shard_reads_per_retrieve", "count", ratio(float64(t.nodeReads), float64(t.retrieves)), fmt.Sprintf("%d shard reads over %d retrieves", t.nodeReads, t.retrieves))
	rep.add("commit_wire_amp", "B/B", ratio(float64(wire.BytesWritten-wire0.BytesWritten), float64(t.bytesCommitted)), fmt.Sprintf("gateway-to-node bytes written over %d user bytes committed", t.bytesCommitted))
	rep.add("retrieve_wire_amp", "B/B", ratio(float64(wire.BytesRead-wire0.BytesRead), float64(t.bytesReturned)), fmt.Sprintf("gateway-to-node bytes read over %d user bytes returned", t.bytesReturned))

	// Reopen: the restart-readability check, timed.
	var reopens []float64
	for i := 0; i < reopenReps; i++ {
		took, err := r.reopen(ctx)
		if err != nil {
			return err
		}
		reopens = append(reopens, took.Seconds())
	}
	rep.add("reopen_s", "s", median(reopens), fmt.Sprintf("close-start to last verified byte, median of %d restarts", len(reopens)))

	// Space: what the nodes hold per user byte stored, taken as the heap
	// that is left once the gateway and the clients are gone.
	stored := r.userBytesStored()
	r.closeClients()
	if err := r.fx.stopGateway(ctx); err != nil {
		return fmt.Errorf("closing gateway: %w", err)
	}
	heap := heapAfterGC(2)
	rep.add("space_amp", "B/B", ratio(float64(heap), float64(stored)), fmt.Sprintf("%d heap bytes with only the memory nodes left over %d user bytes stored", heap, stored))
	final := r.totals()
	rep.attempted, rep.failed = final.attempted, final.failed
	return nil
}
