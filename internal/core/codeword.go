package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/wide"
)

// This file is the one place that knows the kinds of stored codeword: a full
// version x_j under the archive's (N, K) code, a plain delta z_j under the
// delta code (the same code, less Config.PunctureDeltas trailing rows), and a
// CDEC-compacted delta, whose gamma non-zero blocks alone are encoded with a
// (gamma+N-K, gamma) code and whose support rides in the manifest. Everything
// else in the package handles a codeword value and asks it the five things
// that depend on the kind: which code, how many rows are stored (code.N()),
// which rows a reader fetches first (readPlan), how decoded blocks become the
// delta the walk applies (expand, decodeSparse), and what the planner charges
// (cost). The shape of the chain - which versions hold a full codeword, which
// a delta, against which base - is the planner's and compaction's business and
// stays with them. TestKindVocabularyConfined keeps it so.

// codec is the erasure-code surface the archive needs; both the GF(2^8)
// backend (erasure.Code, all four constructions) and the GF(2^16) wide
// backend (wide.Code, non-systematic Cauchy with n+k > 256) satisfy it.
// The Into variants encode/decode into caller-provided buffers; the archive
// hot paths pair them with the erasure package's buffer pool so steady-state
// commits, repairs, and scrubs do not allocate shard buffers.
type codec interface {
	N() int
	K() int
	Systematic() bool
	MaxSparseGamma() int
	Encode(blocks [][]byte) ([][]byte, error)
	EncodeInto(blocks, dst [][]byte) error
	EncodeSparseInto(support []int, blocks, dst [][]byte) error
	DecodeFullInto(rows []int, shards, dst [][]byte) error
	DecodeSparseSupport(rows []int, shards [][]byte, gamma int) (support []int, values [][]byte, err error)
	SparseReadRows(live []int, gamma int) []int
}

// codecs are the codes an archive's codewords are written with.
type codecs struct {
	code      codec // full codewords
	deltaCode codec // plain deltas
	// ccMu guards ccache, the lazily built CDEC codecs keyed by gamma
	// (k' = gamma, n' = gamma + N - K). Retrievals run concurrently under
	// the archive read lock, so codec construction has its own mutex.
	ccMu   sync.Mutex
	ccache map[int]codec
}

// newCodec builds the (n, k) code of the configured construction over the
// configured field, less its last punctured rows: the one switch on the field.
func (c Config) newCodec(n, k, punctured int) (codec, error) {
	if c.Field == GF16 {
		code, err := wide.NewCauchy(n, k)
		if err != nil || punctured == 0 {
			return code, err
		}
		return code.Punctured(punctured)
	}
	code, err := erasure.New(c.Code, n, k)
	if err != nil || punctured == 0 {
		return code, err
	}
	return code.Punctured(punctured)
}

// buildCodecs constructs the full-object and delta codecs for the config.
func (a *Archive) buildCodecs() (err error) {
	if a.code, err = a.cfg.newCodec(a.cfg.N, a.cfg.K, 0); err != nil {
		return err
	}
	a.deltaCode = a.code
	if a.cfg.PunctureDeltas > 0 {
		a.deltaCode, err = a.cfg.newCodec(a.cfg.N, a.cfg.K, a.cfg.PunctureDeltas)
	}
	return err
}

// compressEligible reports whether a delta of the given sparsity should be
// stored in CDEC-compacted form: Config.CompressGammaMax defaults to K-1.
func (a *Archive) compressEligible(gamma int) bool {
	limit := a.cfg.K - 1
	if a.cfg.CompressGammaMax > 0 {
		limit = a.cfg.CompressGammaMax
	}
	return a.cfg.CompressDeltas && gamma >= 1 && gamma <= limit
}

// compressedCode returns the (gamma+N-K, gamma) codec for CDEC-compacted
// deltas of the given sparsity, building and caching it on first use. The
// parity count matches the archive's code, so compressed codewords tolerate
// the same N-K node failures.
func (a *Archive) compressedCode(gamma int) (codec, error) {
	if gamma < 1 || gamma > a.cfg.K-1 {
		return nil, fmt.Errorf("core: no compressed code for gamma %d (k=%d)", gamma, a.cfg.K)
	}
	a.ccMu.Lock()
	defer a.ccMu.Unlock()
	if c, ok := a.ccache[gamma]; ok {
		return c, nil
	}
	n := gamma + a.cfg.N - a.cfg.K
	c, err := a.cfg.newCodec(n, gamma, 0)
	if err != nil {
		return nil, fmt.Errorf("core: building compressed (%d,%d) code: %w", n, gamma, err)
	}
	if a.ccache == nil {
		a.ccache = make(map[int]codec)
	}
	a.ccache[gamma] = c
	return c, nil
}

// promotionLimit is the sparsity above which compaction stores a merged
// delta as a full checkpoint instead: Config.CompactGammaLimit, defaulting to
// the densest delta a sparse read can still serve.
func (a *Archive) promotionLimit() int {
	if a.cfg.CompactGammaLimit > 0 {
		return a.cfg.CompactGammaLimit
	}
	return a.deltaCode.MaxSparseGamma()
}

// entry records what the archive stores for one version.
type entry struct {
	hasFull  bool
	hasDelta bool
	gamma    int // block sparsity of the delta, valid when hasDelta
	length   int // original object length in bytes
	// base is the version the delta is computed against: x_version =
	// x_base + z_version. Zero means the implicit chain predecessor
	// (version-1); compaction rebases deltas onto nearer anchors, recording
	// the anchor here. Valid when hasDelta.
	base int
	// checkpoint marks a full codeword placed (or retained) by the chain
	// lifecycle - an auto-checkpoint commit, a CheckpointEvery retention,
	// or a compaction promotion - rather than by the storage scheme.
	// Reversed SEC never deletes a checkpointed full when the chain tip
	// moves on.
	checkpoint bool
	// compressed marks a delta stored in CDEC-compacted form: the
	// codeword encodes only the gamma non-zero blocks with a
	// (gamma+N-K, gamma) code, and support records which blocks those are
	// (strictly increasing). Valid when hasDelta.
	compressed bool
	support    []int
}

// setDelta records cw, just written, as the entry's delta against base.
func (e *entry) setDelta(cw codeword, base int) {
	e.hasDelta, e.base = true, base
	e.gamma, e.compressed, e.support = cw.gamma, cw.cdec(), cw.support
}

// dropDelta records that the version no longer stores a delta.
func (e *entry) dropDelta() {
	e.hasDelta, e.base = false, 0
	e.gamma, e.compressed, e.support = 0, false, nil
}

// manifestEntry renders the entry of the given version.
func (e entry) manifestEntry(version int) ManifestEntry {
	base := 0
	if e.hasDelta && e.base != 0 && e.base != version-1 {
		base = e.base // only non-default bases persist
	}
	return ManifestEntry{
		Version:    version,
		Full:       e.hasFull,
		Delta:      e.hasDelta,
		Gamma:      e.gamma,
		Length:     e.length,
		Base:       base,
		Checkpoint: e.checkpoint,
		Compressed: e.compressed,
		Support:    append([]int(nil), e.support...),
	}
}

// entryOf is the inverse of manifestEntry for an archive of dimension k. It
// checks what depends on the kind of the delta; Open checks the rest.
func entryOf(me ManifestEntry, k int) (entry, error) {
	if me.Compressed {
		if !me.Delta {
			return entry{}, fmt.Errorf("core: manifest version %d is compressed but stores no delta", me.Version)
		}
		if me.Gamma < 1 || me.Gamma > k-1 {
			return entry{}, fmt.Errorf("core: manifest version %d compressed with invalid gamma %d", me.Version, me.Gamma)
		}
		if len(me.Support) != me.Gamma {
			return entry{}, fmt.Errorf("core: manifest version %d has %d support indices for gamma %d", me.Version, len(me.Support), me.Gamma)
		}
		prev := -1
		for _, s := range me.Support {
			if s < 0 || s >= k || s <= prev {
				return entry{}, fmt.Errorf("core: manifest version %d has invalid support %v", me.Version, me.Support)
			}
			prev = s
		}
	} else if len(me.Support) != 0 {
		return entry{}, fmt.Errorf("core: manifest version %d has a support list but is not compressed", me.Version)
	}
	return entry{
		hasFull:    me.Full,
		hasDelta:   me.Delta,
		gamma:      me.Gamma,
		length:     me.Length,
		base:       me.Base,
		checkpoint: me.Checkpoint,
		compressed: me.Compressed,
		support:    append([]int(nil), me.Support...),
	}, nil
}

// codeword describes one stored object: what it is called, where its rows
// lie and how it was encoded. It is a plain value; the superseded queue keeps
// the codewords commits and compaction replaced exactly as they were written.
type codeword struct {
	id      string // object name on the nodes
	version int    // the version it belongs to, which places its rows
	code    codec  // rows 0..code.N()-1 are stored, any code.K() of them decode
	delta   bool   // a delta z_version, not the full x_version
	gamma   int    // block sparsity of a delta; 0 for a full codeword
	support []int  // CDEC only: which blocks the gamma encoded blocks are
}

// fullCodeword describes the full codeword of version v.
func (a *Archive) fullCodeword(v int) codeword {
	return codeword{id: fullID(a.cfg.Name, v), version: v, code: a.code}
}

// deltaKind describes the stored delta of an entry without naming it, which
// is all the planner needs to price one (it prices the whole chain per read).
func (a *Archive) deltaKind(e entry) (codeword, error) {
	cw := codeword{code: a.deltaCode, delta: true, gamma: e.gamma}
	if !e.compressed {
		return cw, nil
	}
	var err error
	cw.support = e.support
	cw.code, err = a.compressedCode(e.gamma)
	return cw, err
}

// deltaCodeword describes the stored delta of version v.
func (a *Archive) deltaCodeword(v int) (codeword, error) {
	cw, err := a.deltaKind(a.entries[v-1])
	cw.id, cw.version = a.deltaObjectID(v), v
	return cw, err
}

// stepCodeword describes the codeword a step of a walk reads.
func (a *Archive) stepCodeword(s step) (codeword, error) {
	if s.via == 0 {
		return a.fullCodeword(s.to), nil
	}
	return a.deltaCodeword(s.via)
}

// stored lists the codewords the chain holds for version v: none (Reversed
// SEC reaches an old version through its successor's delta), its full
// codeword, its delta, or both, full first.
func (a *Archive) stored(v int) ([]codeword, error) {
	var cws []codeword
	if a.entries[v-1].hasFull {
		cws = append(cws, a.fullCodeword(v))
	}
	if a.entries[v-1].hasDelta {
		cw, err := a.deltaCodeword(v)
		if err != nil {
			return nil, err
		}
		cws = append(cws, cw)
	}
	return cws, nil
}

// eachStored calls do for every codeword the chain lists, in version order,
// until one fails or the context is done: the loop of a maintenance pass.
func (a *Archive) eachStored(ctx context.Context, pass string, do func(codeword) error) error {
	for v := 1; v <= len(a.entries); v++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s aborted at version %d: %w", pass, v, err)
		}
		cws, err := a.stored(v)
		if err != nil {
			return fmt.Errorf("core: %s of version %d: %w", pass, v, err)
		}
		for _, cw := range cws {
			if err := do(cw); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeDelta writes the delta d under id in the form the archive's policy
// picks, and returns the codeword it now is. Either form encodes only the
// gamma non-zero blocks: CDEC-compacted when gamma is eligible, with the
// (gamma+N-K, gamma) code and the support in the manifest entry; plain
// otherwise, with the gamma columns of the delta code the support names. The
// object name does not say which, so a commit and every later rebase of the
// version choose afresh and a compressed chain stays compressed through
// compaction.
func (a *Archive) storeDelta(ctx context.Context, id string, version int, d delta.CompactDelta, writes *int) (codeword, error) {
	cw := codeword{id: id, version: version, code: a.deltaCode, delta: true, gamma: d.Gamma()}
	if !a.compressEligible(cw.gamma) {
		return cw, a.putEncoded(ctx, cw, d.BlockSize, writes, func(dst [][]byte) error {
			return cw.code.EncodeSparseInto(d.Support, d.Blocks, dst)
		})
	}
	var err error
	if cw.code, err = a.compressedCode(cw.gamma); err != nil {
		return cw, err
	}
	cw.support = d.Support
	return cw, a.writeObject(ctx, cw, d.Blocks, writes)
}

// cdec reports whether the codeword is a CDEC-compacted delta.
func (cw codeword) cdec() bool { return cw.support != nil }

// empty reports whether the codeword is a delta that changed nothing: it is
// stored like any other, but no reader ever fetches it.
func (cw codeword) empty() bool { return cw.delta && cw.gamma == 0 }

// sparseReadable reports whether a sparse read plan can serve the codeword:
// a plain delta the code can recover from 2*gamma rows. Not a full codeword,
// not a delta too dense, and not a CDEC-compacted one, for which gamma rows of
// its own code are already the floor.
func (cw codeword) sparseReadable() bool {
	return cw.delta && !cw.cdec() && cw.gamma >= 1 && cw.gamma <= cw.code.MaxSparseGamma()
}

// readPlan is the one answer to "which rows does a reader of this codeword
// fetch first". candidates are the rows it may read, ascending (so a
// systematic code's identity rows, which decode by plain copy, come first);
// trySparse says the reader is still after a sparse decode; need is how many
// more rows a full decode lacks. The answer is the code's sparse read plan
// when the reader wants one and the candidates hold one (sparse true), else
// the first need candidates, else nil: too few rows are live. The chain
// prefetcher and the per-object reader both ask here, which is what keeps
// prefetching a pure wire optimization.
func (cw codeword) readPlan(candidates []int, trySparse bool, need int) (rows []int, sparse bool) {
	if trySparse && cw.sparseReadable() {
		if rows := cw.code.SparseReadRows(candidates, cw.gamma); rows != nil {
			return rows, true
		}
	}
	if len(candidates) < need {
		return nil, false
	}
	return candidates[:need], false
}

// cost is what the planner charges for reading the codeword with every node
// live (formulas (3) and (4)): k rows of a full codeword, the paper's eta for
// a plain delta - min(2*gamma, k) where a sparse read serves it, k where none
// does, nothing for an empty one - and gamma rows of a CDEC-compacted one. It
// delegates to the delta package's cost model, which the lifecycle planners
// share, so the two cannot drift apart.
func (cw codeword) cost() int {
	switch {
	case !cw.delta:
		return cw.code.K()
	case cw.cdec():
		return delta.CompressedReadCost(cw.gamma)
	default:
		return delta.ReadCost(cw.gamma, cw.code.K(), cw.code.MaxSparseGamma())
	}
}

// decodeSparse recovers a plain delta from the rows of a sparse read plan,
// finding its support blind.
func (a *Archive) decodeSparse(cw codeword, rows []int, shards [][]byte) (delta.CompactDelta, error) {
	support, blocks, err := cw.code.DecodeSparseSupport(rows, shards, cw.gamma)
	return delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Support: support, Blocks: blocks}, err
}

// expand turns the code.K() blocks a full decode of the codeword recovered
// into the delta the walk applies, never expanded: a full codeword is every
// block of its version (the delta from nothing), a CDEC-compacted delta is
// the blocks its recorded support names, and a plain delta is whichever of
// its k blocks are not zero.
func (a *Archive) expand(cw codeword, blocks [][]byte) (delta.CompactDelta, error) {
	d := delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Blocks: blocks}
	switch {
	case !cw.delta:
		d.Support = allRows(a.cfg.K)
	case cw.cdec():
		d.Support = cw.support
	default:
		return delta.View(blocks)
	}
	return d, nil
}
