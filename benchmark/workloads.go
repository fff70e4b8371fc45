package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/secarchive/sec/secclient"
)

// Code shape shared by every workload: (n,k) = (12,10), non-systematic
// Cauchy, colocated placement — the paper's running example.
const (
	codeN = 12
	codeK = 10
)

// A run is split into replicates: each brings up a fresh fixture, runs the
// same plan and yields every metric, and the run reports the median over
// them. One long phase on one fixture measured whatever the shared host did
// during it (ten-second bursts of stolen CPU, a slow stretch while the heap
// first grows into untouched memory); a burst now spoils a replicate or two
// and the median does not see it.
const replicates = 5

// refSeconds is the run length the op counts below were tuned for. Each
// replicate's timed phase may take refSeconds/replicates; at the commit that
// added the benchmark it takes half to two thirds of that on 2 cores. Counts
// scale linearly with -seconds, and a timed phase also stops at its share of
// -seconds, so a slower program measures fewer ops, not a longer run.
const refSeconds = 25

type opKind uint8

const (
	opCommit opKind = iota
	opRetrieve
	opRetrieveAll
	opLatest
	opLog
	opCompact
	numKinds
)

var kindNames = [numKinds]string{"commit", "retrieve", "retrieve_all", "latest", "log", "compact"}

// op is one planned request. arg is the gamma of a commit (0 = the
// archive's first version, which also creates it), the version of a
// retrieve, the last version of a retrieve-all (fewer if the archive is
// shorter), or the chain bound of a compact. A retrieve with mod set targets 1 + arg mod (versions published
// so far) instead: its archive is written concurrently, so only the draw is
// planned and the bound is read when the op runs.
type op struct {
	kind opKind
	mod  bool
	arch int32
	arg  int32
}

// archivePlan is what the generator fixes about one archive before the run:
// who writes it and the gammas of the versions set-up preloads.
type archivePlan struct {
	name    string
	owner   int   // the one client that commits to it
	preload []int // gamma per preloaded version; preload[0] = 0
}

// plan is the whole load of one replicate, split per client.
type plan struct {
	seed     int64
	archives []archivePlan
	warm     [][]op // untimed, first on the fixture after preload
	main     [][]op // the timed phase
	probe    [][]op // after the timed phase: op kinds main does not issue
}

// workload is one fixture and traffic shape. Op counts are per client and
// replicate at refSeconds; build scales them.
type workload struct {
	name  string
	why   string
	spec  secclient.Spec
	build func(seed int64, clients int, scale float64, allKinds bool) *plan
	// formula says every read of this workload must cost exactly the
	// benchmark's own formula (3) count.
	formula bool
}

func baseSpec(scheme string, blockSize int) secclient.Spec {
	return secclient.Spec{
		Scheme:    scheme,
		Code:      "non-systematic-cauchy",
		N:         codeN,
		K:         codeK,
		BlockSize: blockSize,
		Placement: "colocated",
	}
}

func workloads() []*workload {
	hot := baseSpec("basic-sec", 4096)
	hot.CompressDeltas = true
	hot.ReadCacheBytes = 1 << 20
	hot.MaxChainLength = 8
	return []*workload{
		{
			name:    "sparse_read",
			why:     "paper regime: exponential-gamma chains read back over MemNodes, cache and compression off; planning, batch RPCs and sparse decode do the work",
			spec:    baseSpec("basic-sec", 4096),
			build:   buildSparseRead,
			formula: true,
		},
		{
			name:  "commit_chain",
			why:   "two sparse-edit chains grown to 1 000 versions; the per-commit manifest rewrite and its replication to every node, linear in chain length, do the work",
			spec:  baseSpec("basic-sec", 4096),
			build: buildCommitChain,
		},
		{
			name:  "large_object",
			why:   "2 MB objects under optimized-sec over MemNodes; gf and erasure kernels, copies, allocation and large frames dominate, RPC count is small",
			spec:  baseSpec("optimized-sec", 204800),
			build: buildLargeObject,
		},
		{
			name:  "hot_mixed",
			why:   "zipf mix of commit, retrieve, latest, log and compact on cached, compressed, auto-compacted archives; locks, cache and the writer slot decide it",
			spec:  hot,
			build: buildHotMixed,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns base*scale rounded, at least floor.
func scaled(base int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(base)*scale)))
}

// gammaPMF is the sparsity model of every sampled workload.
func gammaPMF() []float64 { return truncExpPMF(0.6, codeK) }

// stratifiedChains deals gammas to count chains of the given length so that
// the multiset at every chain position is the same for every seed: the PMF
// quantized to count draws, shuffled over the chains. Summed over chains,
// the cost of reading any given version number then does not depend on the
// seed, which is what lets read counts repeat across seeds.
func stratifiedChains(rng *rand.Rand, count, length int) [][]int {
	chains := make([][]int, count)
	for i := range chains {
		chains[i] = make([]int, length)
	}
	for pos := 1; pos < length; pos++ {
		draws := quantize(gammaPMF(), count)
		rng.Shuffle(len(draws), func(a, b int) { draws[a], draws[b] = draws[b], draws[a] })
		for i := range chains {
			chains[i][pos] = draws[i]
		}
	}
	return chains
}

// warmOps is the untimed warm-up pass per client: 200 ops over the clients,
// fewer only in quick runs.
func warmOps(clients int, scale float64) int {
	return scaled(200/clients, min(1, scale), 4)
}

// extraKinds appends the probes that feed only per-layer rows: latest, log
// and a compaction pass over the first archives.
func extraKinds(p *plan, client int, archives int, scale float64) {
	for i := 0; i < scaled(32, min(1, 2*scale), 4); i++ {
		a := int32(i % archives)
		p.probe[client] = append(p.probe[client], op{kind: opLatest, arch: a}, op{kind: opLog, arch: a})
	}
	for i := 0; i < min(4, archives); i++ {
		p.probe[client] = append(p.probe[client], op{kind: opCompact, arch: int32(i), arg: 8})
	}
}

func newPlan(seed int64, clients int) *plan {
	return &plan{seed: seed, warm: make([][]op, clients), main: make([][]op, clients), probe: make([][]op, clients)}
}

// sparse_read: 32 archives x 20 versions; per client one cycle, that is one
// retrieve of every (archive, version) pair and one retrieve-all of every
// archive, shuffled: 640 retrieves and 32 retrieve-alls. The probe commits
// 16 more 20-version archives for the commit rows, all from client 0 while
// client 1 idles: two clients committing in step land on either side of the
// median depending on how their requests happen to overlap, and the median of
// 320 such commits moved by 15 % between replicates.
const (
	sparseArchives = 32
	sparseVersions = 20
	sparseCycles   = 1
	sparseProbeArc = 16
)

func buildSparseRead(seed int64, clients int, scale float64, allKinds bool) *plan {
	p := newPlan(seed, clients)
	layout := newRNG(seed, streamLayout, 0)
	for i, g := range stratifiedChains(layout, sparseArchives, sparseVersions) {
		p.archives = append(p.archives, archivePlan{name: fmt.Sprintf("arch-%03d", i), owner: i % clients, preload: g})
	}
	probeChains := stratifiedChains(layout, scaled(sparseProbeArc, scale, 1), sparseVersions)
	cycles := scaled(sparseCycles, scale, 1)
	keep := 1.0 // share of each cycle kept: below one only in quick runs shorter than a cycle
	if exact := sparseCycles * scale; exact < 1 {
		keep = max(exact, 0.05)
	}
	for c := 0; c < clients; c++ {
		rng := newRNG(seed, streamPlan, c)
		for i := 0; i < warmOps(clients, scale); i++ {
			p.warm[c] = append(p.warm[c], op{kind: opRetrieve, arch: int32(rng.Intn(sparseArchives)), arg: int32(1 + rng.Intn(sparseVersions))})
		}
		for cyc := 0; cyc < cycles; cyc++ {
			cycle := make([]op, 0, sparseArchives*(sparseVersions+1))
			for a := 0; a < sparseArchives; a++ {
				for v := 1; v <= sparseVersions; v++ {
					cycle = append(cycle, op{kind: opRetrieve, arch: int32(a), arg: int32(v)})
				}
				cycle = append(cycle, op{kind: opRetrieveAll, arch: int32(a), arg: sparseVersions})
			}
			rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
			p.main[c] = append(p.main[c], cycle[:int(keep*float64(len(cycle)))]...)
		}
		if allKinds {
			extraKinds(p, c, sparseArchives, scale)
		}
	}
	for i, chain := range probeChains {
		idx := len(p.archives)
		p.archives = append(p.archives, archivePlan{name: fmt.Sprintf("probe-%03d", i), owner: 0})
		for _, g := range chain {
			p.probe[0] = append(p.probe[0], op{kind: opCommit, arch: int32(idx), arg: int32(g)})
		}
	}
	return p
}

// commit_chain: one archive per client, v1 then edits with gamma cycling
// 1,1,2,1,3: 100 in the warm-up, 899 timed, so the chains end at version
// 1 000. The probe reads the chains' first 20 versions back, each version
// equally often.
const (
	chainCommits   = 899
	chainProbeGets = 160
	chainProbeAlls = 40
	chainProbeSpan = 20
)

var chainGammas = []int32{1, 1, 2, 1, 3}

func buildCommitChain(seed int64, clients int, scale float64, allKinds bool) *plan {
	p := newPlan(seed, clients)
	for c := 0; c < clients; c++ {
		p.archives = append(p.archives, archivePlan{name: fmt.Sprintf("chain-%d", c), owner: c, preload: []int{0}})
	}
	for c := 0; c < clients; c++ {
		rng := newRNG(seed, streamPlan, c)
		edit := 0
		commits := func(n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{kind: opCommit, arch: int32(c), arg: chainGammas[edit%len(chainGammas)]}
				edit++
			}
			return ops
		}
		p.warm[c] = commits(warmOps(clients, scale))
		p.main[c] = commits(scaled(chainCommits, scale, 25))
		for i := 0; i < scaled(chainProbeGets, scale, chainProbeSpan); i++ {
			p.probe[c] = append(p.probe[c], op{kind: opRetrieve, arch: int32(rng.Intn(clients)), arg: int32(1 + i%chainProbeSpan)})
		}
		for i := 0; i < scaled(chainProbeAlls, scale, 2); i++ {
			p.probe[c] = append(p.probe[c], op{kind: opRetrieveAll, arch: int32(rng.Intn(clients)), arg: chainProbeSpan})
		}
		rng.Shuffle(len(p.probe[c]), func(a, b int) { p.probe[c][a], p.probe[c][b] = p.probe[c][b], p.probe[c][a] })
		if allKinds {
			extraKinds(p, c, clients, scale)
		}
	}
	return p
}

// large_object: one archive per client; rounds of one commit (gamma cycling
// 1,1,10: two sparse deltas, then a dense rewrite stored in full) followed
// by retrieves of one of the last 3 versions.
const (
	largeRounds    = 40
	largeReads     = 5
	largeProbeAlls = 12
)

var largeGammas = []int32{1, 1, 10}

func buildLargeObject(seed int64, clients int, scale float64, allKinds bool) *plan {
	p := newPlan(seed, clients)
	for c := 0; c < clients; c++ {
		p.archives = append(p.archives, archivePlan{name: fmt.Sprintf("large-%d", c), owner: c, preload: []int{0}})
	}
	for c := 0; c < clients; c++ {
		rng := newRNG(seed, streamPlan, c)
		version, edit := 1, 0
		rounds := func(n int) []op {
			var ops []op
			for i := 0; i < n; i++ {
				ops = append(ops, op{kind: opCommit, arch: int32(c), arg: largeGammas[edit%len(largeGammas)]})
				edit++
				version++
				for r := 0; r < largeReads; r++ {
					ops = append(ops, op{kind: opRetrieve, arch: int32(c), arg: int32(version - rng.Intn(min(3, version)))})
				}
			}
			return ops
		}
		p.warm[c] = rounds(3)
		p.main[c] = rounds(scaled(largeRounds, scale, 3))
		for i := 0; i < scaled(largeProbeAlls, scale, 2); i++ {
			p.probe[c] = append(p.probe[c], op{kind: opRetrieveAll, arch: int32(rng.Intn(clients)), arg: 3})
		}
		if allKinds {
			extraKinds(p, c, clients, scale)
		}
	}
	return p
}

// hot_mixed: 64 archives preloaded with 4 versions; zipf(1.2) archive
// choice; mix commit 20 / retrieve 50 / latest 20 / log 8 / compact 2. The
// archive of popularity rank r is written only by client r mod clients, so
// the hot archives are shared out evenly whatever the seed. The plan is
// stratified: each client gets the mix, the zipf shares per op kind and the
// gamma shares as exact counts, and the seed only orders them — otherwise
// how long the hottest chain grows, and with it every cost that is linear
// in chain length, would differ from seed to seed.
const (
	hotArchives  = 64
	hotPreload   = 4
	hotOps       = 2000
	hotProbeAlls = 100
	hotCompactTo = 4 // explicit compactions ask for less than the auto bound of 8, so they do work
)

var hotMix = [numKinds]float64{opCommit: 0.20, opRetrieve: 0.50, opLatest: 0.20, opLog: 0.08, opCompact: 0.02}

func buildHotMixed(seed int64, clients int, scale float64, allKinds bool) *plan {
	p := newPlan(seed, clients)
	layout := newRNG(seed, streamLayout, 0)
	rankToArchive := layout.Perm(hotArchives)
	owner := make([]int, hotArchives)
	for rank, arch := range rankToArchive {
		owner[arch] = rank % clients
	}
	for i, g := range stratifiedChains(layout, hotArchives, hotPreload) {
		p.archives = append(p.archives, archivePlan{name: fmt.Sprintf("hot-%03d", i), owner: owner[i], preload: g})
	}
	zipf := zipfPMF(hotArchives, 1.2)
	for c := 0; c < clients; c++ {
		rng := newRNG(seed, streamPlan, c)
		// A client commits only to the ranks it owns: the zipf shares of
		// those ranks, renormalized.
		owned := make([]float64, hotArchives)
		total := 0.0
		for rank := c; rank < hotArchives; rank += clients {
			owned[rank] = zipf[rank]
			total += zipf[rank]
		}
		for rank := range owned {
			owned[rank] /= total
		}
		draw := func(n int) []op {
			ops := make([]op, 0, n)
			kinds := quantize(hotMix[:], n)
			for at := 0; at < len(kinds); {
				kind := opKind(kinds[at] - 1)
				count := 0
				for at+count < len(kinds) && kinds[at+count] == kinds[at] {
					count++
				}
				at += count
				popularity := zipf
				if kind == opCommit {
					popularity = owned
				}
				gammas := quantize(gammaPMF(), count)
				rng.Shuffle(count, func(a, b int) { gammas[a], gammas[b] = gammas[b], gammas[a] })
				for i, rank := range quantize(popularity, count) {
					o := op{kind: kind, arch: int32(rankToArchive[rank-1])}
					switch kind {
					case opCommit:
						o.arg = int32(gammas[i])
					case opRetrieve:
						o.mod, o.arg = true, rng.Int31()
					case opCompact:
						o.arg = hotCompactTo
					}
					ops = append(ops, o)
				}
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			return ops
		}
		p.warm[c] = draw(warmOps(clients, scale))
		p.main[c] = draw(scaled(hotOps, scale, 150))
		for _, rank := range quantize(zipf, scaled(hotProbeAlls, scale, 2)) {
			p.probe[c] = append(p.probe[c], op{kind: opRetrieveAll, arch: int32(rankToArchive[rank-1]), arg: hotPreload})
		}
	}
	return p
}

// planDigest folds every planned op and the hash of every payload the plan
// commits (preload included) into one number, by replaying the plan against
// local buffers only. Two runs with equal digests put identical bytes and
// identical requests to the program.
func planDigest(w *workload, p *plan) uint64 {
	d := newDigest()
	objects := make([]*object, len(p.archives))
	for i, a := range p.archives {
		objects[i] = newObject(w, p.seed, i)
		for _, g := range a.preload {
			d.add(objects[i].next(g))
		}
	}
	for _, phase := range [][][]op{p.warm, p.main, p.probe} {
		for c := range phase {
			for _, o := range phase[c] {
				d.add(uint64(o.kind) | uint64(o.arch)<<8 | uint64(uint32(o.arg))<<32)
				if o.mod {
					d.add(1)
				}
				if o.kind == opCommit {
					d.add(objects[o.arch].next(int(o.arg)))
				}
			}
		}
	}
	return uint64(d)
}
