package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

// Spec is an archive's settings in the string forms a manifest persists:
// the head of every Manifest, the payload of a create request and what a
// repository saves for the archives it creates. Config is the typed form;
// Config.Spec and Open convert between the two. Zero-valued policy fields
// keep their defaults.
type Spec struct {
	Scheme         string `json:"scheme"`
	Code           string `json:"code"`
	Field          string `json:"field,omitempty"`
	N              int    `json:"n"`
	K              int    `json:"k"`
	BlockSize      int    `json:"block_size"`
	PunctureDeltas int    `json:"puncture_deltas,omitempty"`
	Placement      string `json:"placement,omitempty"`
	// MaxChainLength, CheckpointEvery, and CompactGammaLimit persist the
	// chain-lifecycle policy so an archive reopened from its manifest keeps
	// compacting the way it was created to.
	MaxChainLength    int `json:"max_chain_length,omitempty"`
	CheckpointEvery   int `json:"checkpoint_every,omitempty"`
	CompactGammaLimit int `json:"compact_gamma_limit,omitempty"`
	// CompressDeltas, CompressGammaMax, and ReadCacheBytes persist the CDEC
	// compression policy and the decoded-version cache budget so a reopened
	// archive keeps storing and serving the way it was created to. All
	// three are absent from pre-compression manifests, which unmarshal to
	// the defaults (both features off).
	CompressDeltas   bool `json:"compress_deltas,omitempty"`
	CompressGammaMax int  `json:"compress_gamma_max,omitempty"`
	ReadCacheBytes   int  `json:"read_cache_bytes,omitempty"`
}

// Spec renders the settings in the string forms a manifest persists, with
// the defaults applied. Name is not in it: the name heads the manifest.
func (c Config) Spec() Spec {
	c = c.withDefaults()
	return Spec{
		Scheme:            c.Scheme.String(),
		Code:              c.Code.String(),
		Field:             c.Field.String(),
		N:                 c.N,
		K:                 c.K,
		BlockSize:         c.BlockSize,
		PunctureDeltas:    c.PunctureDeltas,
		Placement:         c.Placement.Name(),
		MaxChainLength:    c.MaxChainLength,
		CheckpointEvery:   c.CheckpointEvery,
		CompactGammaLimit: c.CompactGammaLimit,
		CompressDeltas:    c.CompressDeltas,
		CompressGammaMax:  c.CompressGammaMax,
		ReadCacheBytes:    c.ReadCacheBytes,
	}
}

// config parses the spec back into the typed settings of the named archive:
// the inverse of Config.Spec, and what Open builds the archive from.
func (s Spec) config(name string) (Config, error) {
	scheme, err := ParseScheme(s.Scheme)
	if err != nil {
		return Config{}, err
	}
	kind, err := erasure.ParseKind(s.Code)
	if err != nil {
		return Config{}, err
	}
	field, err := ParseField(s.Field)
	if err != nil {
		return Config{}, err
	}
	placement, err := parsePlacement(s.Placement, s.N)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name:              name,
		Scheme:            scheme,
		Code:              kind,
		Field:             field,
		N:                 s.N,
		K:                 s.K,
		BlockSize:         s.BlockSize,
		Placement:         placement,
		PunctureDeltas:    s.PunctureDeltas,
		MaxChainLength:    s.MaxChainLength,
		CheckpointEvery:   s.CheckpointEvery,
		CompactGammaLimit: s.CompactGammaLimit,
		CompressDeltas:    s.CompressDeltas,
		CompressGammaMax:  s.CompressGammaMax,
		ReadCacheBytes:    s.ReadCacheBytes,
	}, nil
}

// Manifest expands the spec into an entry-less manifest for the given
// archive name, the form Open accepts to create a fresh archive. An empty
// scheme or code takes the paper's defaults (basic-sec over a
// non-systematic Cauchy code), as an empty field or placement does. A
// manifest read back names both, so Open itself refuses an empty scheme.
func (s Spec) Manifest(name string) Manifest {
	if s.Scheme == "" {
		s.Scheme = BasicSEC.String()
	}
	if s.Code == "" {
		s.Code = erasure.NonSystematicCauchy.String()
	}
	return Manifest{Name: name, Spec: s}
}

// Manifest is the serializable description of an archive: everything needed
// to reopen it against the same cluster. The manifest is the client-side
// metadata the paper assumes (version count and per-delta sparsity levels
// gamma_j, which retrieval needs to size its sparse reads).
type Manifest struct {
	Name string `json:"name"`
	// Generation counts the publishes behind this state: of two copies the
	// larger is the later. Absent from older manifests, which load as 0.
	Generation uint64 `json:"generation,omitempty"`
	Spec
	Entries []ManifestEntry `json:"entries"`
}

// ManifestEntry describes one version's stored objects.
type ManifestEntry struct {
	Version int  `json:"version"`
	Full    bool `json:"full"`
	Delta   bool `json:"delta"`
	Gamma   int  `json:"gamma"`
	Length  int  `json:"length"`
	// Base is the version the delta applies to; 0 means the chain
	// predecessor (version-1). Compaction rebases deltas onto anchors and
	// records the anchor here.
	Base int `json:"base,omitempty"`
	// Checkpoint marks a lifecycle-placed full codeword that Reversed SEC
	// must not delete when the chain tip moves on.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Compressed marks a delta stored in CDEC-compacted form: the
	// codeword encodes only the Gamma non-zero blocks with a
	// (Gamma+N-K, Gamma) code. Support lists those blocks' indices
	// (strictly increasing), the client-side metadata retrieval needs to
	// expand the decoded vector. Both fields are absent for uncompressed
	// entries, so manifests written before compression existed reopen
	// unchanged.
	Compressed bool  `json:"compressed,omitempty"`
	Support    []int `json:"support,omitempty"`
	// Window is the delta's byte window: its codeword encodes only those
	// bytes of each block, outside which every block the delta changed is
	// zero. It is absent when the window is the whole block, so manifests
	// written before windows existed reopen unchanged.
	Window *Window `json:"window,omitempty"`
	// CRC32C is the CRC32C (Castagnoli) of the version's Length bytes, in
	// eight hex digits, fixed by its commit: every copy of the version a
	// read hands out is checked against it. It is absent from manifests
	// written before digests existed and from entries an older build wrote
	// back, whose versions read unverified.
	CRC32C string `json:"crc32c,omitempty"`
}

// Window is the byte range [Off, Off+Width) of each block that a delta
// codeword encodes, and so the length of each of its shards.
type Window struct {
	Off   int `json:"off"`
	Width int `json:"width"`
}

// Manifest captures the archive's current state. Its Generation is that of
// the last publish; changes committed since are in Entries already.
func (a *Archive) Manifest() Manifest {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.manifestLocked()
}

func (a *Archive) manifestLocked() Manifest {
	m := Manifest{
		Name:       a.cfg.Name,
		Generation: a.generation,
		Spec:       a.cfg.Spec(),
		Entries:    make([]ManifestEntry, len(a.entries)),
	}
	for i := range a.entries {
		m.Entries[i] = a.entries[i].manifestEntry(i+1, a.cfg.BlockSize)
	}
	return m
}

// encode renders the indented JSON that exports, snapshots and replicas share.
func (m Manifest) encode() []byte {
	data, _ := json.MarshalIndent(m, "", "  ") // strings, numbers and bools: cannot fail
	return append(data, '\n')
}

// Save writes the manifest as JSON.
func (a *Archive) Save(w io.Writer) error {
	_, err := w.Write(a.Manifest().encode())
	return err
}

var (
	// ErrGenerationGap rejects a manifest record that is not the successor
	// of the state it is applied to: a record in between is missing.
	ErrGenerationGap = errors.New("core: manifest record skips a generation")
	// ErrImmutable rejects a manifest record that drops a version or gives
	// a committed one another length or digest: how it is stored may
	// change, not what.
	ErrImmutable = errors.New("core: manifest record rewrites a committed version")
)

// manifestRecord is one publish of an archive's metadata: the generation it
// produces, the version count it leaves, and only the entries that changed
// since the publish before - one for a Basic or Optimized SEC commit, two
// when Reversed SEC rewrites the previous tip, a compaction's rebased set.
type manifestRecord struct {
	Generation uint64          `json:"generation"`
	Versions   int             `json:"versions"`
	Entries    []ManifestEntry `json:"entries"`
}

// nextRecordLocked closes the current generation: if the chain changed
// since the last publish it bumps the generation by one and returns what
// changed. Caller holds the write lock.
func (a *Archive) nextRecordLocked() (rec manifestRecord, ok bool) {
	if len(a.changed) == 0 {
		return manifestRecord{}, false
	}
	slices.Sort(a.changed)
	a.generation++
	rec = manifestRecord{Generation: a.generation, Versions: len(a.entries)}
	for _, v := range slices.Compact(a.changed) {
		rec.Entries = append(rec.Entries, a.entries[v-1].manifestEntry(v, a.cfg.BlockSize))
	}
	a.changed = a.changed[:0]
	return rec, true
}

// recordID names a record, inside its frame and as a replicated object.
func recordID(name string, gen uint64) string {
	return fmt.Sprintf("%s/manifest/%d", name, gen)
}

// frame encodes the record once, as the nodes store it: compact JSON in a
// store.EncodeFrame frame keyed by recordID.
func (r manifestRecord) frame(name string) []byte {
	payload, _ := json.Marshal(r) // ints, bools and slices of them: cannot fail
	return store.EncodeFrame(recordID(name, r.Generation), payload)
}

// decodeRecord parses the frame at the start of raw and returns its size.
func decodeRecord(name string, raw []byte) (manifestRecord, int, error) {
	key, payload, n, err := store.DecodeFrame(raw)
	if err != nil {
		return manifestRecord{}, 0, err
	}
	var rec manifestRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return manifestRecord{}, 0, fmt.Errorf("%w: manifest record: %v", store.ErrCorrupt, err)
	}
	if key != recordID(name, rec.Generation) {
		return manifestRecord{}, 0, fmt.Errorf("%w: frame %q holds generation %d of %q", store.ErrCorrupt, key, rec.Generation, name)
	}
	return rec, n, nil
}

// apply advances the manifest by one record. One at or below the manifest's
// generation was applied already and is skipped; one beyond the successor is
// ErrGenerationGap; one that rewrites history ErrImmutable; one that does
// not describe exactly the versions it appends is damage (store.ErrCorrupt).
// A rejected record leaves the manifest untouched.
func (m *Manifest) apply(rec manifestRecord) error {
	if rec.Generation <= m.Generation {
		return nil
	}
	if rec.Generation != m.Generation+1 {
		return fmt.Errorf("%w: record %d applied at generation %d", ErrGenerationGap, rec.Generation, m.Generation)
	}
	held := len(m.Entries)
	if rec.Versions < held {
		return fmt.Errorf("%w: record %d leaves %d versions of %d", ErrImmutable, rec.Generation, rec.Versions, held)
	}
	prev, next := 0, held+1
	for _, e := range rec.Entries {
		switch {
		case e.Version <= prev || e.Version > held && e.Version != next:
			return fmt.Errorf("%w: manifest record %d lists version %d after %d, appending from %d", store.ErrCorrupt, rec.Generation, e.Version, prev, next)
		case e.Version > held:
			next++
		case e.Length != m.Entries[e.Version-1].Length:
			return fmt.Errorf("%w: record %d gives version %d length %d", ErrImmutable, rec.Generation, e.Version, e.Length)
		case e.CRC32C != "" && m.Entries[e.Version-1].CRC32C != "" && e.CRC32C != m.Entries[e.Version-1].CRC32C:
			return fmt.Errorf("%w: record %d gives version %d CRC32C %s", ErrImmutable, rec.Generation, e.Version, e.CRC32C)
		}
		prev = e.Version
	}
	if next != rec.Versions+1 {
		return fmt.Errorf("%w: manifest record %d leaves %d versions but describes them through %d", store.ErrCorrupt, rec.Generation, rec.Versions, next-1)
	}
	for _, e := range rec.Entries {
		if e.Version <= held {
			// A record an older build wrote omits the digest, which still holds.
			e.CRC32C = cmp.Or(e.CRC32C, m.Entries[e.Version-1].CRC32C)
			m.Entries[e.Version-1] = e
		} else {
			m.Entries = append(m.Entries, e)
		}
	}
	m.Generation = rec.Generation
	return nil
}

// Open reconstructs an archive from its manifest against a cluster holding
// its shards. The latest-version cache is restored lazily on the next
// Commit. What the nodes hold of it is unknown (OpenContext knows), so the
// first record it publishes comes with a fold.
func Open(m Manifest, cluster *store.Cluster) (*Archive, error) {
	cfg, err := m.config(m.Name)
	if err != nil {
		return nil, err
	}
	a, err := New(cfg, cluster)
	if err != nil {
		return nil, err
	}
	a.generation, a.pub.folded = m.Generation, m.Generation
	a.entries = make([]entry, len(m.Entries))
	for i, me := range m.Entries {
		if me.Version != i+1 {
			return nil, fmt.Errorf("core: manifest entry %d has version %d", i, me.Version)
		}
		if me.Gamma < 0 || me.Gamma > m.K {
			return nil, fmt.Errorf("core: manifest version %d has invalid gamma %d", me.Version, me.Gamma)
		}
		if me.Length < 0 || me.Length > m.K*m.BlockSize {
			return nil, fmt.Errorf("core: manifest version %d has invalid length %d", me.Version, me.Length)
		}
		if me.Base != 0 {
			if !me.Delta {
				return nil, fmt.Errorf("core: manifest version %d has a delta base but no delta", me.Version)
			}
			if me.Base < 1 || me.Base > len(m.Entries) || me.Base == me.Version {
				return nil, fmt.Errorf("core: manifest version %d has invalid delta base %d", me.Version, me.Base)
			}
		}
		if a.entries[i], err = entryOf(me, m.K, m.BlockSize); err != nil {
			return nil, err
		}
	}
	// A version may store neither a full nor its own delta (Reversed SEC
	// reaches version 1 through version 2's delta), but every version must
	// be reachable from some full codeword along the delta graph.
	if len(a.entries) > 0 {
		if _, _, _, err := chainDepthsOf(a.entries); err != nil {
			return nil, fmt.Errorf("core: manifest describes an unretrievable chain: %w", err)
		}
	}
	if err := cluster.EnsureSize(cfg.Placement.NodesRequired(max(len(m.Entries), 1), m.N)); err != nil {
		return nil, err
	}
	return a, nil
}

// Load reads a JSON manifest and opens the archive.
func Load(r io.Reader, cluster *store.Cluster) (*Archive, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding manifest: %w", err)
	}
	return Open(m, cluster)
}

// manifestID names the snapshot replicated on the nodes; the records that
// extend it are <name>/manifest/<generation> (recordID).
func manifestID(name string) string { return name + "/manifest" }

// onEveryNode addresses the objects on every node, object by object.
func onEveryNode(cluster *store.Cluster, objects ...string) []store.ShardRef {
	refs := make([]store.ShardRef, 0, len(objects)*cluster.Size())
	for _, object := range objects {
		for node := 0; node < cluster.Size(); node++ {
			refs = append(refs, store.ShardRef{Node: node, ID: store.ShardID{Object: object}})
		}
	}
	return refs
}

// recordIDs names the records of generations first..last.
func recordIDs(name string, first, last uint64) []string {
	var ids []string
	for gen := first; gen <= last; gen++ {
		ids = append(ids, recordID(name, gen))
	}
	return ids
}

// replicaRing lists every node of a size-node cluster in the order
// replicate tries them for object: a ring that starts at the FNV-1a hash of
// the name, so the manifest objects of many archives and generations spread
// over the fleet.
func replicaRing(object string, size int) []int {
	h := uint32(2166136261)
	for i := 0; i < len(object); i++ {
		h = (h ^ uint32(object[i])) * 16777619
	}
	ring := make([]int, size)
	for i := range ring {
		ring[i] = (int(h%uint32(size)) + i) % size
	}
	return ring
}

// ManifestRing lists every cluster node in the order a publish tries them
// for the record of generation gen, or for the snapshot when gen is 0. The
// first n-k+1 hold it when every put succeeds; a failed put moves its copy
// on along the ring.
func (a *Archive) ManifestRing(gen uint64) []int {
	object := manifestID(a.cfg.Name)
	if gen > 0 {
		object = recordID(a.cfg.Name, gen)
	}
	return replicaRing(object, a.cluster.Size())
}

// replicate stores data under one object name on n-k+1 distinct nodes: the
// first of its ring (replicaRing), one PutBatch round, and for every put
// that fails the next node along, until n-k+1 have accepted or every node
// was tried. Metadata is small, so plain replication (not erasure coding)
// keeps it; n-k+1 copies survive what the data does. It fails, with the
// last node error, when fewer than n-k+1 nodes accepted.
func (a *Archive) replicate(ctx context.Context, object string, data []byte) error {
	defer obs.Start(ctx, "replicate").End()
	need := a.cfg.N - a.cfg.K + 1
	ring, owed := replicaRing(object, a.cluster.Size()), need
	var last error
	for owed > 0 && len(ring) > 0 && ctx.Err() == nil {
		refs := make([]store.ShardRef, min(owed, len(ring)))
		payloads := make([][]byte, len(refs))
		for i := range refs {
			refs[i], payloads[i] = store.ShardRef{Node: ring[i], ID: store.ShardID{Object: object}}, data
		}
		ring = ring[len(refs):]
		for _, err := range a.cluster.PutBatch(ctx, refs, payloads) {
			if err == nil {
				owed--
			} else {
				last = err
			}
		}
	}
	switch {
	case owed == 0:
		return nil
	case ctx.Err() != nil:
		return fmt.Errorf("core: replicating %s: %w", object, ctx.Err())
	default:
		return fmt.Errorf("core: %s reached %d of the %d nodes it needs: %w", object, need-owed, need, last)
	}
}

// manifestFromCluster rebuilds the named archive's manifest from what its
// publishes replicated: one GetBatch round fetches every node's snapshot,
// the largest generation (snapshot) wins - never the most entries, which a
// compaction leaves unchanged - and catchUp replays from there, which
// refuses when more than n-k nodes could not be asked: the holders of a
// newer snapshot, or of the records after it, may all be among them.
// With no snapshot in hand, the error says why: the context's error when it
// ended the search, the last node failure when some node could not be asked
// (it may hold a replica), and store.ErrNotFound only when every node
// answered and none holds one.
func manifestFromCluster(ctx context.Context, name string, cluster *store.Cluster) (m Manifest, snapshot uint64, err error) {
	var best *Manifest
	var unasked error
	for _, res := range cluster.GetBatch(ctx, onEveryNode(cluster, manifestID(name))) {
		if res.Err != nil {
			if !errors.Is(res.Err, store.ErrNotFound) {
				unasked = res.Err
			}
			continue
		}
		var m Manifest
		err := json.Unmarshal(res.Data, &m)
		release(res) // m is memory of its own
		if err != nil || m.Name != name {
			continue // damaged replica
		}
		if best == nil || m.Generation > best.Generation {
			best = &m
		}
	}
	switch {
	case best != nil:
		snapshot = best.Generation
		err = catchUp(ctx, best, cluster) // before *best is read
		return *best, snapshot, err
	case ctx.Err() != nil:
		return m, 0, fmt.Errorf("core: loading manifest for %q: %w", name, ctx.Err())
	case unasked != nil:
		return m, 0, fmt.Errorf("core: loading manifest for %q: %w", name, unasked)
	default:
		return m, 0, fmt.Errorf("core: no manifest replica for %q on %d nodes: %w", name, cluster.Size(), store.ErrNotFound)
	}
}

// catchUp advances m through the records the nodes hold beyond its
// generation. Each round asks every node for the next recordWindow
// generations in one GetBatch and applies them in order, each from any node
// whose copy is intact, so a node that missed a publish delays nothing. The
// replay ends at the first generation no node has, or with Apply's error.
// It fails, with a node error, at a generation no node has while more than
// n-k nodes could not be asked: every record is on n-k+1 nodes, which may
// all be among them.
func catchUp(ctx context.Context, m *Manifest, cluster *store.Cluster) error {
	const recordWindow = 64
	nodes := cluster.Size()
	for {
		results := cluster.GetBatch(ctx, onEveryNode(cluster, recordIDs(m.Name, m.Generation+1, m.Generation+recordWindow)...))
		done, err := applyRecords(ctx, m, results, nodes)
		releaseAll(results) // an applied record is memory of its own
		if done {
			return err
		}
	}
}

// applyRecords applies one catchUp round: results holds, for each
// generation in turn, what every node answered. done reports that the replay
// ended, with err its outcome.
func applyRecords(ctx context.Context, m *Manifest, results []store.ShardResult, nodes int) (done bool, err error) {
	for ; len(results) > 0; results = results[nodes:] {
		before := m.Generation
		var unasked int
		var lastErr error
		for _, res := range results[:nodes] {
			if res.Err != nil && !errors.Is(res.Err, store.ErrNotFound) {
				unasked, lastErr = unasked+1, res.Err
			}
			rec, _, err := decodeRecord(m.Name, res.Data)
			if res.Err != nil || err != nil {
				continue // absent or damaged here: another node's copy may be whole
			}
			if err := m.apply(rec); err != nil {
				return true, fmt.Errorf("core: replaying manifest records of %q: %w", m.Name, err)
			}
			break
		}
		switch {
		case m.Generation != before:
		case unasked > m.N-m.K:
			return true, fmt.Errorf("core: replaying manifest records of %q: %d nodes unreachable, more than n-k = %d: %w", m.Name, unasked, m.N-m.K, lastErr)
		default:
			return true, ctx.Err() // no node has the next generation
		}
	}
	return false, nil
}

func parsePlacement(name string, n int) (store.Placement, error) {
	switch name {
	case "", store.ColocatedPlacement{}.Name():
		return store.ColocatedPlacement{}, nil
	case (store.DispersedPlacement{}).Name():
		return store.DispersedPlacement{N: n}, nil
	default:
		return nil, fmt.Errorf("core: unknown placement %q", name)
	}
}
