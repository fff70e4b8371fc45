// Package loadgen is the soak: a deterministic, seed-driven generator that
// drives a live gateway over loopback TCP through the public secclient SDK,
// the way real clients do, while seeded fault schedules perturb the storage
// nodes. It composes the internal/workload sparse-edit model with a zipfian
// archive-popularity sampler over a large archive population and a fixed
// weighted op mix (commit/retrieve/retrieve-all/latest/log/compact/scrub/
// repair), and runs a fleet of closed-loop clients against node servers
// that front MemNodes and DiskNodes alike. Per-node and wire accounting is the
// benchmark's job (benchmark/), not this package's.
//
// Every run is replayable from Profile.Seed: each client draws its op
// kinds, archive targets, repair targets and commit payloads from a private
// plan RNG that no runtime event ever touches, so the planned (op, archive,
// payload) trace — summarized in Report.ClientDigests/TraceDigest — is
// identical across runs regardless of goroutine scheduling. Runtime
// choices that legitimately depend on observed state (which committed
// version to read back) come from a separate RNG so they can never
// perturb the plan.
//
// Correctness is judged from the run's history: every client appends one
// invoke/return event per operation to its own slice (client, archive, op,
// version, byte hash, start, end, outcome), the setup commits and the final
// sweep (a re-read of every acknowledged version and a scrub of every
// archive, once the fault windows are over) are events too, and the package
// tests check the merged history against the archive's sequential contract.
// The latency quantiles of the Report are exact order statistics of the
// same events.
package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/internal/workload"
	"github.com/secarchive/sec/secclient"
)

// Profile configures one load run; Archives, Clients and OpsPerClient
// must be positive. Everything else about the run is fixed (see the
// constants below and specFor).
type Profile struct {
	// Seed drives every planned choice; identical profiles with identical
	// seeds produce identical op traces and workload bytes.
	Seed int64
	// Archives is the population the zipfian sampler draws over.
	Archives int
	// Clients is the closed-loop client fleet size; each client issues
	// OpsPerClient operations drawn from the op mix.
	Clients      int
	OpsPerClient int
	// Chaos wires every node behind a seeded fault schedule
	// (faults.SoakSchedules) activated after the setup phase, keeping at
	// most n - k nodes inside a fault window at any instant.
	Chaos bool
}

// The shape every run uses. Only the Profile fields vary between runs.
const (
	// nodes and k shape the (n, k) cluster; blockSize the striping. The
	// odd-numbered node servers front DiskNodes, the even ones MemNodes.
	nodes, k  = 6, 4
	blockSize = 16
	// zipfS and zipfV are the popularity skew (s > 1, v >= 1).
	zipfS, zipfV = 1.2, 1
	// compactChain is the chain bound opCompact requests.
	compactChain = 6
	// timeout bounds each RPC round trip.
	timeout = 10 * time.Second
	// chaosWindowLen and chaosWindows are short shared-clock windows that
	// together span most of the soak's measured phase (1 200 of the 1 500
	// to 2 200 ticks its 320 ops consume), so faults meet scrubs and repairs
	// while the measured phase still outlasts every window.
	chaosWindowLen = 50
	chaosWindows   = 24
	// verifyAttempts bounds the final sweep's per-op retries that absorb a
	// node still remembered silent, for up to a second, after the windows.
	verifyAttempts = 8
	// setupClient and sweepClient are the client ids of the setup phase's
	// seeding commits and of the final sweep's reads and scrubs in the
	// history.
	setupClient, sweepClient = -1, -2
)

// specFor is the spec archive arch is created with: the production-ish
// configuration of the benchmark's hot_mixed workload (checkpoints every 4,
// CDEC compression and a shared read cache on), under Optimized SEC over a
// systematic code for odd archives, Reversed SEC - whose every commit
// supersedes the old tip's full, so queue and reclaim run all the time - for
// archives 2 mod 4, and Basic SEC over a non-systematic code for the rest.
func specFor(arch int) secclient.Spec {
	s := secclient.Spec{
		N:               nodes,
		K:               k,
		BlockSize:       blockSize,
		CheckpointEvery: 4,
		CompressDeltas:  true,
		ReadCacheBytes:  1 << 20,
	}
	switch arch % 4 {
	case 1, 3:
		s.Scheme, s.Code = "optimized-sec", "systematic-cauchy"
	case 2:
		s.Scheme = "reversed-sec"
	}
	return s
}

// OpResult is the per-op-kind outcome of a run: counts, typed rejections,
// and the latency distribution.
type OpResult struct {
	// Op is the op kind name ("commit", "retrieve", ...).
	Op string
	// Count is the number of operations issued; Errors the unexpected
	// failures among them. Busy and Conflicts count the typed admission
	// rejections, which are backpressure working as designed, not errors.
	Count, Errors, Busy, Conflicts uint64
	// The latency distribution over all Count operations.
	P50, P99, P999, Mean, Max time.Duration
}

// Report is the outcome of one Run.
type Report struct {
	// Ops holds one entry per op kind that was issued.
	Ops []OpResult
	// TotalOps sums Ops counts; Elapsed is the measured-phase wall time.
	TotalOps uint64
	Elapsed  time.Duration
	// ClientDigests[i] is client i's planned-trace digest (FNV-1a over
	// its op kinds, archive targets, and commit payload hashes);
	// TraceDigest folds them in client order. Equal seeds and profiles
	// yield equal digests, always.
	ClientDigests []uint64
	TraceDigest   uint64
	// Injected aggregates chaos injections; ChaosDesc is the replayable
	// schedule description; ChaosTicks the shared-clock ticks consumed
	// by the measured phase.
	Injected   faults.InjectionStats
	ChaosDesc  string
	ChaosTicks uint64
	// history is every operation of the run: the setup commits, each
	// client's events in client order, then the final sweep's reads and
	// scrubs.
	history []event
}

// event is one operation of the history: what a client invoked, when, and
// what came back. version is the version a commit was acknowledged with (0
// when none), the version a retrieve asked for or a latest was served, the
// last version of the prefix a retrieve-all asked for, the number of
// entries a log listed, or the damage a scrub found (shards missing or
// corrupt, objects undecodable); hash is the FNV-1a of the bytes a commit
// sent or a read returned, and hashes those of each version a retrieve-all
// returned, in order. underChaos marks a fleet operation invoked before the
// last fault window closed.
type event struct {
	client, arch         int
	op                   op
	version              int
	hash                 uint64
	hashes               []uint64
	cacheHit, underChaos bool
	start, end           time.Time
	err                  error
}

// latest is the highest acknowledged version per archive: the range the
// runtime RNG draws read targets from, and the only state clients share.
type latest struct {
	mu sync.Mutex
	v  []int
}

func (l *latest) raise(arch, version int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.v[arch] = max(l.v[arch], version)
}

func (l *latest) of(arch int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v[arch]
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func archiveName(i int) string { return fmt.Sprintf("arch-%04d", i) }

// basePayload is the deterministic version-1 object of an archive, shared
// by setup and every client's local edit chain.
func basePayload(seed int64, arch int) []byte {
	rng := rand.New(rand.NewSource(seed ^ (int64(arch+1) * 0x9E3779B97F4A7C1)))
	b := make([]byte, k*blockSize)
	rng.Read(b)
	return b
}

// issue performs e's operation through c and completes e with what came
// back: payload is a commit's object, node a repair's target.
func issue(ctx context.Context, c *secclient.Client, e *event, payload []byte, node int) {
	name := archiveName(e.arch)
	var got secclient.Version
	e.start = time.Now()
	switch e.op {
	case opCommit:
		var info secclient.CommitInfo
		// A version comes back even when the error reports a follow-on
		// failure (e.g. a failed auto-compaction): the bytes are durable.
		info, e.err = c.Commit(ctx, name, payload)
		e.version = info.Version
	case opRetrieve:
		got, e.err = c.Retrieve(ctx, name, e.version)
	case opRetrieveAll:
		var all [][]byte
		all, got.Stats, e.err = c.RetrieveAll(ctx, name, e.version)
		for _, data := range all {
			e.hashes = append(e.hashes, hash64(data))
		}
		e.cacheHit = got.Stats.CacheHits > 0
	case opLatest:
		got, e.err = c.Latest(ctx, name)
		e.version = got.Version
	case opLog:
		var entries []secclient.LogEntry
		entries, e.err = c.Log(ctx, name)
		e.version = len(entries)
	case opCompact:
		_, e.err = c.Compact(ctx, name, compactChain)
	case opScrub:
		var sr secclient.ScrubReport
		sr, e.err = c.Scrub(ctx, name, true)
		e.version = sr.ShardsMissing + sr.ShardsCorrupt + sr.ObjectsUndecodable + sr.ObjectsUnverified
	case opRepair:
		_, e.err = c.Repair(ctx, name, node)
	}
	e.end = time.Now()
	if e.op == opRetrieve || e.op == opLatest {
		e.hash, e.cacheHit = hash64(got.Data), got.Stats.CacheHits > 0
	}
}

// fixture is the live system under load: n loopback-TCP node servers
// (chaos-wrapped when asked) over MemNodes and DiskNodes under a directory
// of its own, a cluster of remote-node clients, a gateway over it, and the
// gateway's own TCP server.
type fixture struct {
	gw        *gateway.Gateway
	gwServer  *transport.Server
	addr      string
	dir       string
	nodeSrvs  []*transport.Server
	nodeConns []*transport.RemoteNode
	chaos     []*faults.ChaosNode
	schedules []faults.Schedule
	clock     *faults.Clock
	chaosEnd  uint64 // the clock tick the last fault window closes at
	desc      string
}

func startFixture(p Profile) (*fixture, error) {
	dir, err := os.MkdirTemp("", "loadgen-")
	if err != nil {
		return nil, fmt.Errorf("loadgen: node directory: %w", err)
	}
	fx := &fixture{dir: dir}
	if p.Chaos {
		fx.schedules, fx.clock, fx.desc = faults.SoakSchedules(p.Seed, nodes, nodes-k, chaosWindowLen, chaosWindows)
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		var node store.Node = store.NewMemNode(name)
		if i%2 == 1 {
			disk, err := store.NewDiskNode(name, filepath.Join(dir, name))
			if err != nil {
				fx.close()
				return nil, fmt.Errorf("loadgen: node %d: %w", i, err)
			}
			node = disk
		}
		if p.Chaos {
			// Rules are installed only after setup (activateChaos), so the
			// seeded fault windows cover exactly the measured phase.
			ch := faults.NewChaosNode(node, faults.Schedule{Seed: fx.schedules[i].Seed})
			ch.UseClock(fx.clock)
			fx.chaos = append(fx.chaos, ch)
			node = ch
		}
		srv := transport.NewServer(node)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("loadgen: node %d listen: %w", i, err)
		}
		fx.nodeSrvs = append(fx.nodeSrvs, srv)
		conn := transport.NewRemoteNode(name, addr.String(), transport.WithTimeout(timeout))
		fx.nodeConns = append(fx.nodeConns, conn)
	}
	members := make([]store.Node, len(fx.nodeConns))
	for i, c := range fx.nodeConns {
		members[i] = c
	}
	gw, err := gateway.New(gateway.Config{Cluster: store.NewCluster(members)})
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.gw = gw
	fx.gwServer = transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := fx.gwServer.Listen("127.0.0.1:0")
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("loadgen: gateway listen: %w", err)
	}
	fx.addr = addr.String()
	return fx, nil
}

// activateChaos installs the seeded fault schedules, shifting every
// window past the ticks the setup phase consumed so the measured phase
// sees all of them.
func (fx *fixture) activateChaos() {
	if fx.clock == nil {
		return
	}
	base := fx.clock.Ticks()
	for i, ch := range fx.chaos {
		sched := faults.Schedule{Seed: fx.schedules[i].Seed}
		for _, r := range fx.schedules[i].Rules {
			r.From += base
			r.To += base
			fx.chaosEnd = max(fx.chaosEnd, r.To)
			sched.Rules = append(sched.Rules, r)
		}
		ch.SetSchedule(sched)
	}
}

// underChaos reports whether a fault window is still open or ahead.
func (fx *fixture) underChaos() bool {
	return fx.clock != nil && fx.clock.Ticks() < fx.chaosEnd
}

// endChaos clears every schedule, so what follows runs after the windows
// even when the measured phase ended inside one.
func (fx *fixture) endChaos() {
	for _, ch := range fx.chaos {
		ch.SetSchedule(faults.Schedule{})
	}
}

// injected aggregates the chaos nodes' injection stats.
func (fx *fixture) injected() faults.InjectionStats {
	var total faults.InjectionStats
	for _, ch := range fx.chaos {
		s := ch.InjectionStats()
		total.Delayed += s.Delayed
		total.Errors += s.Errors
		total.Corruptions += s.Corruptions
		total.Torn += s.Torn
		total.PartitionDrops += s.PartitionDrops
	}
	return total
}

// close tears the fixture down in dependency order: the gateway server
// stops admitting clients, the gateway persists its manifests to the
// still-running cluster, then the node links, the node servers and the
// DiskNodes' directory go.
func (fx *fixture) close() {
	if fx.gwServer != nil {
		_ = fx.gwServer.Close()
	}
	if fx.gw != nil {
		//lint:allow ctxcheck teardown must run to completion even when the run's ctx is already cancelled, or a cancelled Run would leak the fixture's goroutines
		_ = fx.gw.Close(context.Background())
	}
	for _, c := range fx.nodeConns {
		_ = c.Close()
	}
	for _, s := range fx.nodeSrvs {
		_ = s.Close()
	}
	_ = os.RemoveAll(fx.dir)
}

// clientResult is one client's share of the run: its events and its
// planned-trace digest.
type clientResult struct {
	events []event
	digest uint64
	fatal  error
}

// planSeed and runSeed derive per-client RNG seeds from the profile seed.
// The plan stream drives every replayable choice; the run stream drives
// choices that depend on observed state (which version to read).
func planSeed(seed int64, client int) int64 { return seed + int64(client+1)*0x1000193 }
func runSeed(seed int64, client int) int64  { return seed ^ (int64(client+1) * 0x100000001B3) }

// runClient executes one closed-loop client: draw an op and a target from
// the plan, issue it through the SDK, and append the event to this
// client's own history.
func runClient(ctx context.Context, p Profile, fx *fixture, id int, tip *latest) *clientResult {
	res := &clientResult{}
	plan := rand.New(rand.NewSource(planSeed(p.Seed, id)))
	runtime := rand.New(rand.NewSource(runSeed(p.Seed, id)))
	pop := newPopularity(plan, p.Archives)
	client := secclient.Dial(fx.addr,
		secclient.WithTimeout(timeout),
		secclient.WithID(fmt.Sprintf("loadgen-client-%d", id)))
	defer client.Close()

	digest := fnv.New64a()
	var rec [13]byte
	local := make(map[int][]byte) // per-archive edit chain tip, this client's view
ops:
	for i := 0; i < p.OpsPerClient; i++ {
		if ctx.Err() != nil {
			res.fatal = context.Cause(ctx)
			break
		}
		e := event{client: id, op: nextOp(plan), arch: pop.sample()}

		// Plan the payload and the repair target before timing anything:
		// both are pure functions of the plan stream, never of runtime
		// outcomes.
		var payload []byte
		var node int
		switch e.op {
		case opCommit:
			cur, ok := local[e.arch]
			if !ok {
				cur = basePayload(p.Seed, e.arch)
			}
			gamma := 1 + plan.Intn(k)
			var err error
			payload, err = workload.SparseEdit(plan, cur, blockSize, gamma)
			if err != nil {
				res.fatal = err
				break ops
			}
			local[e.arch] = payload
			e.hash = hash64(payload)
		case opRetrieve, opRetrieveAll:
			e.version = 1 + runtime.Intn(tip.of(e.arch))
		case opRepair:
			node = plan.Intn(nodes)
		}
		rec[0] = byte(e.op)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(e.arch))
		binary.LittleEndian.PutUint64(rec[5:13], e.hash)
		digest.Write(rec[:])

		e.underChaos = fx.underChaos()
		issue(ctx, client, &e, payload, node)
		if e.op == opCommit && e.version > 0 {
			tip.raise(e.arch, e.version)
		}
		res.events = append(res.events, e)
	}
	res.digest = digest.Sum64()
	return res
}

// opResults folds the fleet's events into one row per op kind issued. The
// latency quantiles are exact: order statistics of the sorted durations.
func opResults(history []event) []OpResult {
	var rows [numOps]OpResult
	var durations [numOps][]time.Duration
	for _, e := range history {
		if e.client < 0 {
			continue // setup and sweep are not fleet traffic
		}
		r := &rows[e.op]
		r.Count++
		switch {
		case e.err == nil:
		case errors.Is(e.err, store.ErrBusy):
			r.Busy++
		case errors.Is(e.err, store.ErrConflict):
			r.Conflicts++
		default:
			r.Errors++
		}
		durations[e.op] = append(durations[e.op], e.end.Sub(e.start))
	}
	var out []OpResult
	for kind, d := range durations {
		if len(d) == 0 {
			continue
		}
		slices.Sort(d)
		var sum time.Duration
		for _, x := range d {
			sum += x
		}
		quantile := func(q float64) time.Duration {
			return d[max(int(math.Ceil(q*float64(len(d)))), 1)-1]
		}
		r := rows[kind]
		r.Op = opNames[kind]
		r.P50, r.P99, r.P999 = quantile(0.50), quantile(0.99), quantile(0.999)
		r.Mean, r.Max = sum/time.Duration(len(d)), d[len(d)-1]
		out = append(out, r)
	}
	return out
}

// Run executes the profile against a freshly built gateway fixture and
// returns the report with its history. The context bounds the whole run; a
// cancellation mid-run tears the fixture down and returns the cause.
func Run(ctx context.Context, p Profile) (Report, error) {
	fx, err := startFixture(p)
	if err != nil {
		return Report{}, err
	}
	defer fx.close()

	// Setup phase: create and seed every archive with its deterministic
	// version 1, in parallel — a few thousand archives must not dominate
	// the run.
	setup := secclient.Dial(fx.addr, secclient.WithTimeout(timeout), secclient.WithID("loadgen-setup"))
	defer setup.Close()
	tip := &latest{v: make([]int, p.Archives)}
	workers := min(8, p.Archives)
	seeded := make([][]event, workers)
	setupErrs := make(chan error, workers)
	var setupWG sync.WaitGroup
	// The work queue is pre-filled and buffered so a worker that bails on
	// an error never wedges the producer.
	work := make(chan int, p.Archives)
	for arch := 0; arch < p.Archives; arch++ {
		work <- arch
	}
	close(work)
	for w := 0; w < workers; w++ {
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			for arch := range work {
				name := archiveName(arch)
				if _, err := setup.Create(ctx, name, specFor(arch)); err != nil {
					setupErrs <- fmt.Errorf("loadgen: creating %s: %w", name, err)
					return
				}
				base := basePayload(p.Seed, arch)
				e := event{client: setupClient, arch: arch, op: opCommit, hash: hash64(base)}
				issue(ctx, setup, &e, base, 0)
				if e.err != nil {
					setupErrs <- fmt.Errorf("loadgen: seeding %s: %w", name, e.err)
					return
				}
				tip.raise(arch, e.version)
				seeded[w] = append(seeded[w], e)
			}
		}()
	}
	setupWG.Wait()
	close(setupErrs)
	if err := <-setupErrs; err != nil {
		return Report{}, err
	}

	// Measured phase: arm the chaos schedules and release the client fleet.
	var ticksBefore uint64
	if fx.clock != nil {
		ticksBefore = fx.clock.Ticks()
	}
	fx.activateChaos()

	results := make([]*clientResult, p.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(ctx, p, fx, c, tip)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range results {
		if r.fatal != nil {
			return Report{}, fmt.Errorf("loadgen: client failed: %w", r.fatal)
		}
	}

	report := Report{Elapsed: elapsed, ClientDigests: make([]uint64, p.Clients), history: slices.Concat(seeded...)}
	trace := fnv.New64a()
	var buf [8]byte
	for c, r := range results {
		report.history = append(report.history, r.events...)
		report.ClientDigests[c] = r.digest
		binary.LittleEndian.PutUint64(buf[:], r.digest)
		trace.Write(buf[:])
	}
	report.TraceDigest = trace.Sum64()
	report.Ops = opResults(report.history)
	for _, op := range report.Ops {
		report.TotalOps += op.Count
	}
	if fx.clock != nil {
		report.ChaosTicks = fx.clock.Ticks() - ticksBefore
		report.Injected = fx.injected()
		report.ChaosDesc = fx.desc
	}

	// Final sweep, after the windows: every acknowledged version is read
	// back through a fresh client, then every archive is scrubbed; bounded
	// retries absorb a node still remembered silent. Whether the bytes are
	// right and the archive is whole is the history's to judge.
	fx.endChaos()
	sweep := make([][]event, p.Archives)
	for _, e := range report.history {
		if e.op == opCommit && e.version > 0 {
			sweep[e.arch] = append(sweep[e.arch], event{client: sweepClient, arch: e.arch, op: opRetrieve, version: e.version})
		}
	}
	verifier := secclient.Dial(fx.addr, secclient.WithTimeout(timeout), secclient.WithID("loadgen-verify"))
	defer verifier.Close()
	for arch, events := range sweep {
		for _, e := range append(events, event{client: sweepClient, arch: arch, op: opScrub}) {
			for attempt := 0; attempt < verifyAttempts; attempt++ {
				issue(ctx, verifier, &e, nil, 0)
				report.history = append(report.history, e)
				if e.err == nil {
					break
				}
				if ctx.Err() != nil {
					return report, context.Cause(ctx)
				}
				time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return report, context.Cause(ctx)
	}
	return report, nil
}
