// Package loadgen is the gateway load soak: a deterministic, seed-driven
// generator that drives a live gateway over loopback TCP through the public
// secclient SDK, the way real clients do. It composes the internal/workload
// sparse-edit model with a zipfian archive-popularity sampler over a large
// archive population and a fixed weighted op mix
// (commit/retrieve/latest/log/compact), runs a fleet of closed-loop
// clients, and records latencies into lock-free per-client histogram shards
// merged at the end. Per-node and wire accounting is the benchmark's job
// (benchmark/), not this package's.
//
// Every run is replayable from Profile.Seed: each client draws its op
// kinds, archive targets, and commit payloads from a private plan RNG
// that no runtime event ever touches, so the planned (op, archive,
// payload) trace — summarized in Report.ClientDigests/TraceDigest — is
// identical across runs regardless of goroutine scheduling. Runtime
// choices that legitimately depend on observed state (which committed
// version to read back) come from a separate RNG so they can never
// perturb the plan.
//
// Correctness is checked in-band: every committed payload's hash is
// registered under the version the gateway assigned, every read is
// verified against the registry, and a final sweep re-reads every
// registered version — byte divergence anywhere is reported, which is
// what makes the harness a soak and not just a meter.
package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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
// constants below and spec).
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
	// nodes and k shape the (n, k) cluster; blockSize the striping.
	nodes, k  = 6, 4
	blockSize = 16
	// zipfS and zipfV are the popularity skew (s > 1, v >= 1).
	zipfS, zipfV = 1.2, 1
	// compactChain is the chain bound opCompact requests.
	compactChain = 6
	// timeout bounds each RPC round trip.
	timeout = 10 * time.Second
	// chaosWindowLen and chaosWindows are short shared-clock windows, so
	// the measured phase sweeps through every fault window with ticks to
	// spare.
	chaosWindowLen = 30
	chaosWindows   = 4
	// verifyAttempts bounds the final sweep's per-read retries that absorb
	// a cooling chaos window.
	verifyAttempts = 8
)

// spec is the archive spec every archive is created with: the
// production-ish configuration of the benchmark's hot_mixed workload
// (checkpoints every 4, CDEC compression and a shared read cache on).
var spec = secclient.Spec{
	N:               nodes,
	K:               k,
	BlockSize:       blockSize,
	CheckpointEvery: 4,
	CompressDeltas:  true,
	ReadCacheBytes:  1 << 20,
}

// OpResult is the per-op-kind outcome of a run: counts, typed rejections,
// and the merged latency distribution.
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
	// Divergences lists byte-identity violations observed by in-band
	// read verification or the final sweep. Any entry is a correctness
	// bug.
	Divergences []string
	// VerifiedVersions counts the (archive, version) pairs the final
	// sweep re-read.
	VerifiedVersions int
	// Injected aggregates chaos injections; ChaosDesc is the replayable
	// schedule description; ChaosTicks the shared-clock ticks consumed
	// by the measured phase.
	Injected   faults.InjectionStats
	ChaosDesc  string
	ChaosTicks uint64
}

// registry is the shared ground truth of committed bytes: payload hashes
// keyed by (archive, version), the latest registered version per archive,
// and the divergence log. It is the only cross-client shared state and
// sits off the latency path (lookups and registrations happen outside the
// timed RPC).
type registry struct {
	mu     sync.Mutex
	latest []int
	hashes []map[int]uint64
	diverg []string
}

func newRegistry(archives int) *registry {
	r := &registry{latest: make([]int, archives), hashes: make([]map[int]uint64, archives)}
	for i := range r.hashes {
		r.hashes[i] = make(map[int]uint64)
	}
	return r
}

func (r *registry) record(arch, version int, hash uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hashes[arch][version] = hash
	if version > r.latest[arch] {
		r.latest[arch] = version
	}
}

func (r *registry) latestOf(arch int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest[arch]
}

func (r *registry) lookup(arch, version int) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hashes[arch][version]
	return h, ok
}

func (r *registry) diverge(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.diverg = append(r.diverg, fmt.Sprintf(format, args...))
}

func (r *registry) divergences() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.diverg...)
}

// versionsOf snapshots the registered versions of one archive in order.
func (r *registry) versionsOf(arch int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := make([]int, 0, len(r.hashes[arch]))
	for v := 1; v <= r.latest[arch]; v++ {
		if _, ok := r.hashes[arch][v]; ok {
			versions = append(versions, v)
		}
	}
	return versions
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

// fixture is the live system under load: n loopback-TCP node servers
// (chaos-wrapped when asked), a cluster of remote-node clients, a gateway
// over it, and the gateway's own TCP server.
type fixture struct {
	gw        *gateway.Gateway
	gwServer  *transport.Server
	addr      string
	nodeSrvs  []*transport.Server
	nodeConns []*transport.RemoteNode
	chaos     []*faults.ChaosNode
	schedules []faults.Schedule
	clock     *faults.Clock
	desc      string
}

func startFixture(p Profile) (*fixture, error) {
	fx := &fixture{}
	if p.Chaos {
		fx.schedules, fx.clock, fx.desc = faults.SoakSchedules(p.Seed, nodes, nodes-k, chaosWindowLen, chaosWindows)
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		var node store.Node = store.NewMemNode(name)
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
		conn := transport.NewRemoteNode(name, addr.String(),
			transport.WithTimeout(timeout),
			//lint:allow retrydefault the harness owns its whole fixture; running with retries on is part of the load profile under test (the soak injects faults they must absorb)
			transport.WithRetryPolicy(store.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
		fx.nodeConns = append(fx.nodeConns, conn)
	}
	members := make([]store.Node, len(fx.nodeConns))
	for i, c := range fx.nodeConns {
		members[i] = c
	}
	cluster := store.NewCluster(members)
	//lint:allow retrydefault the production resilience stack is deliberately on: the load numbers must describe the configuration operators run
	cluster.SetRetryPolicy(store.DefaultRetryPolicy)
	if p.Chaos {
		//lint:allow retrydefault chaos runs enable the breaker for the same reason; both knobs mirror the faults soak fixture
		cluster.SetHealthConfig(store.HealthConfig{TripAfter: 5, Cooldown: 2 * time.Second})
	}
	gw, err := gateway.New(gateway.Config{Cluster: cluster})
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
			sched.Rules = append(sched.Rules, r)
		}
		ch.SetSchedule(sched)
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
// still-running cluster, then the node links and node servers go.
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
}

// clientResult is one client's shard of the run outcome: its private
// histograms and counters, and its planned-trace digest.
type clientResult struct {
	hists     [numOps]Histogram
	counts    [numOps]uint64
	errs      [numOps]uint64
	busy      [numOps]uint64
	conflicts [numOps]uint64
	digest    uint64
	fatal     error
}

// planSeed and runSeed derive per-client RNG seeds from the profile seed.
// The plan stream drives every replayable choice; the run stream drives
// choices that depend on observed state (which version to read).
func planSeed(seed int64, client int) int64 { return seed + int64(client+1)*0x1000193 }
func runSeed(seed int64, client int) int64  { return seed ^ (int64(client+1) * 0x100000001B3) }

// runClient executes one closed-loop client: draw an op and a target from
// the plan, issue it through the SDK, verify bytes against the registry,
// and record the latency into this client's own histogram shard.
func runClient(ctx context.Context, p Profile, addr string, id int, reg *registry) *clientResult {
	res := &clientResult{}
	plan := rand.New(rand.NewSource(planSeed(p.Seed, id)))
	runtime := rand.New(rand.NewSource(runSeed(p.Seed, id)))
	pop := newPopularity(plan, p.Archives)
	client := secclient.Dial(addr,
		secclient.WithTimeout(timeout),
		secclient.WithID(fmt.Sprintf("loadgen-client-%d", id)))
	defer client.Close()

	digest := fnv.New64a()
	var rec [13]byte
	local := make(map[int][]byte) // per-archive edit chain tip, this client's view
	for i := 0; i < p.OpsPerClient; i++ {
		if ctx.Err() != nil {
			res.fatal = context.Cause(ctx)
			break
		}
		kind := nextOp(plan)
		arch := pop.sample()
		name := archiveName(arch)

		// Plan the payload before timing anything: commit bytes are a pure
		// function of the plan stream, never of runtime outcomes.
		var payload []byte
		var phash uint64
		if kind == opCommit {
			cur, ok := local[arch]
			if !ok {
				cur = basePayload(p.Seed, arch)
			}
			gamma := 1 + plan.Intn(k)
			var err error
			payload, err = workload.SparseEdit(plan, cur, blockSize, gamma)
			if err != nil {
				res.fatal = err
				break
			}
			local[arch] = payload
			phash = hash64(payload)
		}
		rec[0] = byte(kind)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(arch))
		binary.LittleEndian.PutUint64(rec[5:13], phash)
		digest.Write(rec[:])

		start := time.Now()
		var opErr error
		switch kind {
		case opCommit:
			var info secclient.CommitInfo
			info, opErr = client.Commit(ctx, name, payload)
			if info.Version > 0 {
				// The bytes are durable even when opErr reports a follow-on
				// failure (e.g. a failed auto-compaction), so readers may
				// verify against them.
				reg.record(arch, info.Version, phash)
			}
		case opRetrieve:
			version := 1 + runtime.Intn(reg.latestOf(arch))
			var got secclient.Version
			got, opErr = client.Retrieve(ctx, name, version)
			if opErr == nil {
				if want, ok := reg.lookup(arch, got.Version); ok && hash64(got.Data) != want {
					reg.diverge("client %d: %s v%d bytes diverged", id, name, got.Version)
				}
			}
		case opLatest:
			var got secclient.Version
			got, opErr = client.Latest(ctx, name)
			if opErr == nil {
				if want, ok := reg.lookup(arch, got.Version); ok && hash64(got.Data) != want {
					reg.diverge("client %d: %s latest (v%d) bytes diverged", id, name, got.Version)
				}
			}
		case opLog:
			var entries []secclient.LogEntry
			entries, opErr = client.Log(ctx, name)
			if opErr == nil && len(entries) == 0 {
				reg.diverge("client %d: %s log empty after seeding", id, name)
			}
		case opCompact:
			_, opErr = client.Compact(ctx, name, compactChain)
		}
		res.hists[kind].Record(time.Since(start))
		res.counts[kind]++
		switch {
		case opErr == nil:
		case errors.Is(opErr, store.ErrBusy):
			res.busy[kind]++
		case errors.Is(opErr, store.ErrConflict):
			res.conflicts[kind]++
		default:
			res.errs[kind]++
		}
	}
	res.digest = digest.Sum64()
	return res
}

// Run executes the profile against a freshly built gateway fixture and
// returns the merged report. The context bounds the whole run; a
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
	reg := newRegistry(p.Archives)
	setupErrs := make(chan error, p.Archives)
	var setupWG sync.WaitGroup
	// The work queue is pre-filled and buffered so a worker that bails on
	// an error never wedges the producer.
	work := make(chan int, p.Archives)
	for arch := 0; arch < p.Archives; arch++ {
		work <- arch
	}
	close(work)
	workers := min(8, p.Archives)
	for w := 0; w < workers; w++ {
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			for arch := range work {
				name := archiveName(arch)
				if _, err := setup.Create(ctx, name, spec); err != nil {
					setupErrs <- fmt.Errorf("loadgen: creating %s: %w", name, err)
					return
				}
				base := basePayload(p.Seed, arch)
				info, err := setup.Commit(ctx, name, base)
				if err != nil {
					setupErrs <- fmt.Errorf("loadgen: seeding %s: %w", name, err)
					return
				}
				reg.record(arch, info.Version, hash64(base))
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
			results[c] = runClient(ctx, p, fx.addr, c, reg)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range results {
		if r.fatal != nil {
			return Report{}, fmt.Errorf("loadgen: client failed: %w", r.fatal)
		}
	}

	// Merge the per-client shards.
	var merged [numOps]Histogram
	var counts, errs, busy, conflicts [numOps]uint64
	report := Report{Elapsed: elapsed, ClientDigests: make([]uint64, p.Clients)}
	trace := fnv.New64a()
	var buf [8]byte
	for c, r := range results {
		for kind := 0; kind < numOps; kind++ {
			merged[kind].Merge(&r.hists[kind])
			counts[kind] += r.counts[kind]
			errs[kind] += r.errs[kind]
			busy[kind] += r.busy[kind]
			conflicts[kind] += r.conflicts[kind]
		}
		report.ClientDigests[c] = r.digest
		binary.LittleEndian.PutUint64(buf[:], r.digest)
		trace.Write(buf[:])
	}
	report.TraceDigest = trace.Sum64()
	for kind := 0; kind < numOps; kind++ {
		if counts[kind] == 0 {
			continue
		}
		h := &merged[kind]
		report.Ops = append(report.Ops, OpResult{
			Op:        opNames[kind],
			Count:     counts[kind],
			Errors:    errs[kind],
			Busy:      busy[kind],
			Conflicts: conflicts[kind],
			P50:       h.Quantile(0.50),
			P99:       h.Quantile(0.99),
			P999:      h.Quantile(0.999),
			Mean:      h.Mean(),
			Max:       h.Max(),
		})
		report.TotalOps += counts[kind]
	}
	if fx.clock != nil {
		report.ChaosTicks = fx.clock.Ticks() - ticksBefore
		report.Injected = fx.injected()
		report.ChaosDesc = fx.desc
	}

	// Final sweep: every registered version must still read back
	// byte-identically through a fresh client; bounded retries absorb a
	// chaos window that has not yet expired.
	verifier := secclient.Dial(fx.addr, secclient.WithTimeout(timeout), secclient.WithID("loadgen-verify"))
	defer verifier.Close()
	for arch := 0; arch < p.Archives; arch++ {
		name := archiveName(arch)
		for _, version := range reg.versionsOf(arch) {
			want, _ := reg.lookup(arch, version)
			var got secclient.Version
			var verr error
			for attempt := 0; attempt < verifyAttempts; attempt++ {
				got, verr = verifier.Retrieve(ctx, name, version)
				if verr == nil {
					break
				}
				if ctx.Err() != nil {
					return report, context.Cause(ctx)
				}
				time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
			}
			if verr != nil {
				reg.diverge("final sweep: %s v%d unretrievable: %v", name, version, verr)
				continue
			}
			if hash64(got.Data) != want {
				reg.diverge("final sweep: %s v%d bytes diverged", name, version)
			}
			report.VerifiedVersions++
		}
	}
	report.Divergences = reg.divergences()
	if err := ctx.Err(); err != nil {
		return report, context.Cause(ctx)
	}
	return report, nil
}
