package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/secclient"
)

// object is the generator's own copy of one archive's newest version. Each
// commit edits it in place from the archive's edit stream; only hashes of
// older versions are kept.
type object struct {
	rng       *rand.Rand
	blockSize int
	tip       []byte
}

func newObject(w *workload, seed int64, index int) *object {
	return &object{rng: newRNG(seed, streamEdit, index), blockSize: w.spec.BlockSize}
}

// next produces the next version — fresh random bytes for gamma 0, else an
// edit changing exactly gamma blocks — and returns its hash.
func (o *object) next(gamma int) uint64 {
	if gamma == 0 {
		o.tip = make([]byte, codeK*o.blockSize)
		o.rng.Read(o.tip)
	} else {
		sparseEdit(o.rng, o.tip, o.blockSize, gamma)
	}
	return hash64(o.tip)
}

// archive is the generator's ledger of one archive: the hash and gamma of
// every version, kept by the benchmark itself so that nothing the program
// reports is needed to check what it returns. The single writer appends a
// version's hash before committing it, so whatever version the gateway
// serves already has its hash here; published trails the commit and bounds
// what concurrent readers ask for.
type archive struct {
	archivePlan
	obj       *object
	mu        sync.Mutex
	hashes    []uint64
	gammas    []int
	published atomic.Int32
}

func (a *archive) expect(version int) (hash uint64, gammas []int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if version < 1 || version > len(a.hashes) {
		return 0, nil, false
	}
	return a.hashes[version-1], a.gammas[:version], true
}

// counters is what one client counted besides latencies.
type counters struct {
	attempted, failed                 int
	retrieves, nodeReads              int // single-version retrieves only
	sparse, full, compressed, hits    int // objects read by decode style, cache-served reads
	reads                             int // retrieves, retrieve-alls and latests
	commits, shardWrites, compactions int
	bytesCommitted, bytesReturned     int64
	lat                               [numKinds][]float64 // ms, in issue order
}

func (c *counters) merge(o *counters) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.retrieves += o.retrieves
	c.nodeReads += o.nodeReads
	c.sparse += o.sparse
	c.full += o.full
	c.compressed += o.compressed
	c.hits += o.hits
	c.reads += o.reads
	c.commits += o.commits
	c.shardWrites += o.shardWrites
	c.compactions += o.compactions
	c.bytesCommitted += o.bytesCommitted
	c.bytesReturned += o.bytesReturned
	for k := range c.lat {
		c.lat[k] = append(c.lat[k], o.lat[k]...)
	}
}

// run is one workload on one fixture.
type run struct {
	w        *workload
	p        *plan
	fx       *fixture
	tr       *tracer
	archives []*archive
	clients  []*client
	opSeq    atomic.Int64

	failMu   sync.Mutex
	failures int
}

type client struct {
	id  int
	r   *run
	sdk *secclient.Client
	n   counters
}

var errMismatch = errors.New("result differs from the generator's ledger")

// fail counts one failed op and reports the first few.
func (r *run) fail(format string, args ...any) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.failures++
	if r.failures <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// execMode says what an op's outcome feeds.
type execMode uint8

const (
	modeSetup  execMode = iota // preload and warm-up: nothing kept, a failure ends the run
	modeTimed                  // latencies and counters kept
	modeVerify                 // reopen read-back: only attempted and failed kept
)

// exec issues one op, times the SDK call alone, and checks the reply against
// the ledger. An op that errors, is refused, or returns anything unexpected
// counts as failed and contributes no latency.
func (cl *client) exec(ctx context.Context, o op, mode execMode) {
	record := mode == modeTimed
	r := cl.r
	a := r.archives[o.arch]
	n := &cl.n
	var (
		err  error
		took time.Duration
	)
	timed := func(call func() error) {
		if r.tr != nil {
			r.tr.op.Store(r.opSeq.Add(1))
		}
		stamp := r.tr.begin()
		start := time.Now()
		err = call()
		took = time.Since(start)
		r.tr.end(seamClient, kindNames[o.kind], -1, stamp)
	}
	checkBytes := func(version int, data []byte) ([]int, error) {
		want, gammas, ok := a.expect(version)
		if !ok {
			return nil, fmt.Errorf("%s served version %d, which was never committed: %w", a.name, version, errMismatch)
		}
		if hash64(data) != want {
			return nil, fmt.Errorf("%s version %d bytes diverged: %w", a.name, version, errMismatch)
		}
		return gammas, nil
	}
	switch o.kind {
	case opCommit:
		gamma := int(o.arg)
		if gamma == 0 {
			if _, err = cl.sdk.Create(ctx, a.name, r.w.spec); err != nil {
				break
			}
		}
		hash := a.obj.next(gamma)
		a.mu.Lock()
		a.hashes = append(a.hashes, hash)
		a.gammas = append(a.gammas, gamma)
		version := len(a.hashes)
		a.mu.Unlock()
		var info secclient.CommitInfo
		timed(func() error {
			info, err = cl.sdk.Commit(ctx, a.name, a.obj.tip)
			return err
		})
		if err == nil && (info.Version != version || info.Gamma != gamma) {
			err = fmt.Errorf("%s commit stored version %d gamma %d, generator made version %d gamma %d: %w", a.name, info.Version, info.Gamma, version, gamma, errMismatch)
		}
		if err == nil {
			a.published.Store(int32(version))
			if record {
				n.commits++
				n.shardWrites += info.ShardWrites
				n.bytesCommitted += int64(len(a.obj.tip))
				if info.Compaction != nil {
					n.compactions++
				}
			}
		}
	case opRetrieve, opLatest:
		version := int(o.arg)
		if o.mod {
			version = 1 + int(o.arg)%int(a.published.Load())
		}
		if o.kind == opLatest {
			version = 0
		}
		var got secclient.Version
		timed(func() error {
			got, err = cl.sdk.Retrieve(ctx, a.name, version)
			return err
		})
		if err != nil {
			break
		}
		if version != 0 && got.Version != version {
			err = fmt.Errorf("%s asked for version %d, got %d: %w", a.name, version, got.Version, errMismatch)
			break
		}
		var gammas []int
		if gammas, err = checkBytes(got.Version, got.Data); err != nil {
			break
		}
		if r.w.formula && mode != modeVerify {
			if want := formulaReads(gammas, got.Version, codeK); got.Stats.NodeReads != want {
				err = fmt.Errorf("%s version %d cost %d shard reads, formula (3) says %d: %w", a.name, got.Version, got.Stats.NodeReads, want, errMismatch)
				break
			}
		}
		if record {
			n.countRead(got.Stats, len(got.Data))
			if o.kind == opRetrieve {
				n.retrieves++
				n.nodeReads += got.Stats.NodeReads
			}
		}
	case opRetrieveAll:
		upto := min(int(o.arg), int(a.published.Load()))
		var versions [][]byte
		var stats secclient.RetrievalStats
		timed(func() error {
			versions, stats, err = cl.sdk.RetrieveAll(ctx, a.name, upto)
			return err
		})
		if err != nil {
			break
		}
		if len(versions) != upto {
			err = fmt.Errorf("%s retrieve-all to %d returned %d versions: %w", a.name, upto, len(versions), errMismatch)
			break
		}
		bytes := 0
		var gammas []int
		for i, data := range versions {
			if gammas, err = checkBytes(i+1, data); err != nil {
				break
			}
			bytes += len(data)
		}
		if err != nil {
			break
		}
		if r.w.formula {
			if want := formulaReads(gammas, upto, codeK); stats.NodeReads != want {
				err = fmt.Errorf("%s retrieve-all to %d cost %d shard reads, formula (4) says %d: %w", a.name, upto, stats.NodeReads, want, errMismatch)
				break
			}
		}
		if record {
			n.countRead(stats, bytes)
		}
	case opLog:
		var entries []secclient.LogEntry
		floor := int(a.published.Load()) // read first: the writer may publish more while the call runs
		timed(func() error {
			entries, err = cl.sdk.Log(ctx, a.name)
			return err
		})
		if err == nil && len(entries) < floor {
			err = fmt.Errorf("%s log has %d entries, %d versions were published before it was asked: %w", a.name, len(entries), floor, errMismatch)
		}
	case opCompact:
		var report secclient.CompactReport
		timed(func() error {
			report, err = cl.sdk.Compact(ctx, a.name, int(o.arg))
			return err
		})
		if err == nil && record && report.Info.Changed() {
			n.compactions++
		}
	}
	if mode == modeSetup {
		if err != nil {
			r.fail("set-up %s on %s: %v", kindNames[o.kind], a.name, err)
		}
		return
	}
	n.attempted++
	if err != nil {
		n.failed++
		refused := errors.Is(err, store.ErrBusy) || errors.Is(err, store.ErrConflict)
		r.fail("client %d %s on %s (refused=%v): %v", cl.id, kindNames[o.kind], a.name, refused, err)
		return
	}
	if record {
		n.lat[o.kind] = append(n.lat[o.kind], float64(took)/float64(time.Millisecond))
	}
}

func (n *counters) countRead(s secclient.RetrievalStats, bytes int) {
	n.reads++
	n.sparse += s.SparseReads
	n.full += s.FullReads
	n.compressed += s.CompressedReads
	n.hits += s.CacheHits
	n.bytesReturned += int64(bytes)
}

// phaseResult is what running one phase took.
type phaseResult struct {
	elapsed time.Duration
	issued  int
	cpu     time.Duration // process user+sys CPU
}

// phase runs each client's ops closed-loop — the next request leaves when
// the previous reply is checked — until the ops or the deadline run out.
func (r *run) phase(ctx context.Context, ops [][]op, mode execMode, deadline time.Time) phaseResult {
	var wg sync.WaitGroup
	issued := make([]int, len(r.clients))
	start, cpu0 := time.Now(), cpuTime()
	for i, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops[i] {
				if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				cl.exec(ctx, o, mode)
				issued[i]++
			}
		}()
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, n := range issued {
		res.issued += n
	}
	return res
}

// startRun is set-up: a fresh fixture, every archive preloaded by its
// owner, the warm-up pass done. It returns the run ready for its first
// timed op and how long getting there took.
func startRun(ctx context.Context, w *workload, p *plan, scratch string, tr *tracer) (*run, time.Duration, error) {
	start := time.Now()
	fx, err := startFixture(w, scratch, tr)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, p: p, fx: fx, tr: tr}
	for i, ap := range p.archives {
		r.archives = append(r.archives, &archive{archivePlan: ap, obj: newObject(w, p.seed, i)})
	}
	preload := make([][]op, len(p.warm))
	for i, ap := range p.archives {
		for _, g := range ap.preload {
			preload[ap.owner] = append(preload[ap.owner], op{kind: opCommit, arch: int32(i), arg: int32(g)})
		}
	}
	r.dialClients()
	r.phase(ctx, preload, modeSetup, time.Time{})
	r.phase(ctx, p.warm, modeSetup, time.Time{})
	if r.failures > 0 {
		r.close()
		return nil, 0, fmt.Errorf("%s: %d ops failed during set-up", w.name, r.failures)
	}
	return r, time.Since(start), nil
}

func (r *run) dialClients() {
	if r.clients == nil {
		r.clients = make([]*client, len(r.p.warm))
		for i := range r.clients {
			r.clients[i] = &client{id: i, r: r}
		}
	}
	for i, cl := range r.clients {
		cl.sdk = r.fx.dial(i)
	}
}

func (r *run) closeClients() {
	for _, cl := range r.clients {
		if cl.sdk != nil {
			_ = cl.sdk.Close() // nothing is in flight; a close error changes no result
			cl.sdk = nil
		}
	}
}

func (r *run) close() {
	r.closeClients()
	r.fx.close()
}

// totals merges the clients' counters.
func (r *run) totals() *counters {
	var t counters
	for _, cl := range r.clients {
		t.merge(&cl.n)
	}
	return &t
}

// userBytesStored is every byte the generator has committed since the
// fixture came up, preload and warm-up included: the denominator of space.
func (r *run) userBytesStored() int64 {
	var total int64
	for _, a := range r.archives {
		total += int64(a.published.Load()) * int64(codeK*r.w.spec.BlockSize)
	}
	return total
}

// reopen restarts the program side and reads a fixed sample of versions back
// — the first, middle and newest of up to 32 archives — checking every byte.
// It returns close-start to last verified byte.
func (r *run) reopen(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	r.closeClients()
	if err := r.fx.restart(ctx); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	r.dialClients()
	cl := r.clients[0]
	before := cl.n.failed
	for i, a := range r.archives[:min(32, len(r.archives))] {
		latest := int(a.published.Load())
		if latest == 0 {
			continue
		}
		for _, v := range dedupe(1, (latest+1)/2, latest) {
			cl.exec(ctx, op{kind: opRetrieve, arch: int32(i), arg: int32(v)}, modeVerify)
		}
	}
	if cl.n.failed != before {
		return 0, fmt.Errorf("reopen: %d versions unreadable after restart", cl.n.failed-before)
	}
	return time.Since(start), nil
}

func dedupe(vs ...int) []int {
	var out []int
	for _, v := range vs {
		dup := false
		for _, o := range out {
			dup = dup || o == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}
