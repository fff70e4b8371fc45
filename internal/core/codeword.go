package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// This file is the one place that knows the kinds of stored codeword: a full
// version x_j and a plain delta z_j under the archive's (N, K) code, and a
// CDEC-compacted delta, whose gamma non-zero blocks alone are encoded with a
// (gamma+N-K, gamma) code. A delta of either kind is stored at its byte
// windows: each block it changed is zero outside a window of its own (one
// window for all of them, for CDEC), and its rows encode only those
// windows, moved to offset 0. Its support and the windows' offsets ride in
// the manifest. Everything else in the package handles a codeword value and
// asks it the things that depend on the kind: which code, how wide a row is,
// how many rows are stored (code.N()), which rows a reader fetches first
// (readPlan), how decoded blocks become the delta the walk applies (expand,
// decodeSparse), and what the planner charges for an entry's delta
// (deltaCost). The shape of the chain - which versions hold a full codeword,
// which a delta, against which base - is the planner's and compaction's
// business and stays with them. TestKindVocabularyConfined keeps it so.

// codecs are the codes an archive's codewords are written with.
type codecs struct {
	code *erasure.Code // full codewords and plain deltas
	// ccMu guards ccache, the lazily built CDEC codes keyed by gamma
	// (k' = gamma, n' = gamma + N - K). Retrievals run concurrently under
	// the archive read lock, so code construction has its own mutex.
	ccMu   sync.Mutex
	ccache map[int]*erasure.Code
}

// compressEligible reports whether a delta of the given sparsity should be
// stored in CDEC-compacted form: every delta that is sparse at all.
func (a *Archive) compressEligible(gamma int) bool {
	return a.cfg.CompressDeltas && gamma >= 1 && gamma <= a.cfg.K-1
}

// promotionLimit is the sparsity above which compaction stores a merged
// delta as a full checkpoint instead: the densest delta a sparse read can
// still serve, as a denser one costs a full codeword's k reads.
func (a *Archive) promotionLimit() int {
	return a.code.MaxSparseGamma()
}

// compressedCode returns the (gamma+N-K, gamma) code for CDEC-compacted
// deltas of the given sparsity, building and caching it on first use. The
// parity count matches the archive's code, so compressed codewords tolerate
// the same N-K node failures.
func (a *Archive) compressedCode(gamma int) (*erasure.Code, error) {
	if gamma < 1 || gamma > a.cfg.K-1 {
		return nil, fmt.Errorf("core: no compressed code for gamma %d (k=%d)", gamma, a.cfg.K)
	}
	a.ccMu.Lock()
	defer a.ccMu.Unlock()
	if c, ok := a.ccache[gamma]; ok {
		return c, nil
	}
	n := gamma + a.cfg.N - a.cfg.K
	c, err := erasure.New(a.cfg.Code, n, gamma)
	if err != nil {
		return nil, fmt.Errorf("core: building compressed (%d,%d) code: %w", n, gamma, err)
	}
	if a.ccache == nil {
		a.ccache = make(map[int]*erasure.Code)
	}
	a.ccache[gamma] = c
	return c, nil
}

// entry records what the archive stores for one version: the codewords the
// nodes hold for it, nil where it stores none, and the facts of the version
// itself. A codeword is set whole where it is written (a commit, a
// compaction's rebase or promotion) or loaded (entryOf), dropped where it is
// superseded, and never edited in place, so a copy of the chain -
// compaction's working one - shares them safely.
type entry struct {
	full  *codeword // x_version
	delta *codeword // z_version, against base
	// measured is the block sparsity the version's commit measured against
	// its predecessor, which the manifest shows as its gamma where it stores
	// no delta (Optimized SEC stores a dense version whole); a promotion
	// sets it to 0. Where a delta is stored, the manifest shows the delta's.
	measured int
	length   int // original object length in bytes
	// base is the version the delta is computed against: x_version =
	// x_base + z_version. Zero means the implicit chain predecessor
	// (version-1); compaction rebases deltas onto nearer anchors, recording
	// the anchor here. Valid when delta is set.
	base int
	// checkpoint marks a full codeword placed (or retained) by the chain
	// lifecycle - an auto-checkpoint commit, a CheckpointEvery retention,
	// or a compaction promotion - rather than by the storage scheme.
	// Reversed SEC never deletes a checkpointed full when the chain tip
	// moves on.
	checkpoint bool
	// crc is the CRC32C of the version's length bytes, taken by its commit
	// and checked by verify; nil when the build that committed it recorded
	// none, and the version then reads unverified. Nothing else sets it: compaction and
	// the Reversed SEC supersede change how a version is stored, not what
	// it is.
	crc *uint32
}

// manifestEntry renders the entry of the given version of an archive of
// the given block size: the JSON view. appendEntry is the node one.
func (e entry) manifestEntry(version, blockSize int) ManifestEntry {
	me := ManifestEntry{
		Version:    version,
		Full:       e.full != nil,
		Gamma:      e.measured,
		Length:     e.length,
		Checkpoint: e.checkpoint,
	}
	if d := e.delta; d != nil {
		base, window, offs := e.shown(version, blockSize)
		me.Delta, me.Gamma, me.Compressed, me.Support, me.Base, me.Offsets = true, d.gamma, d.compressed, append([]int(nil), d.support...), base, slices.Clone(offs)
		if window {
			me.Window = &Window{Off: d.off, Width: d.width}
		}
	}
	if e.crc != nil {
		me.CRC32C = fmt.Sprintf("%08x", *e.crc)
	}
	return me
}

// appendEntry appends the entry e of version v, coded against version
// prev, of an archive of the given k and block size (nodeformat.go).
func appendEntry(b []byte, e *entry, v, prev, k, blockSize int) []byte {
	flags := boolByte(e.full != nil)*flagFull | boolByte(e.checkpoint)*flagCheckpoint | boolByte(e.crc != nil)*flagCRC
	gamma, base, window, offs, d := e.measured, 0, false, []int(nil), e.delta
	if d != nil {
		gamma = d.gamma
		base, window, offs = e.shown(v, blockSize)
		flags |= flagDelta | boolByte(d.compressed)*flagCompressed | boolByte(window)*flagWindow |
			boolByte(len(d.support) > 0)*flagSupport | boolByte(offs != nil)*flagOffsets
	}
	b = append(binary.AppendVarint(b, int64(v-prev)), flags)
	for _, x := range []int{gamma, e.length, base} {
		b = binary.AppendUvarint(b, uint64(x))
	}
	if flags&flagSupport != 0 {
		bitmap := len(b)
		for range (k + 7) / 8 { // append(b, make(...)...) allocates under -race
			b = append(b, 0)
		}
		for _, s := range d.support {
			b[bitmap+s/8] |= 1 << (s % 8)
		}
	}
	if window {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(d.off)), uint64(d.width))
	}
	for _, off := range offs {
		b = binary.AppendUvarint(b, uint64(off))
	}
	if e.crc != nil {
		b = binary.BigEndian.AppendUint32(b, *e.crc)
	}
	return append(b, 0)
}

// shown is what both renderings show of the entry's delta beside its
// support: a base only where it is not the chain predecessor; a window only
// where it is narrower than the block, so a chain of full-width deltas
// renders as it did before windows existed; and the blocks' offsets only
// where they differ.
func (e *entry) shown(version, blockSize int) (base int, window bool, offs []int) {
	d := e.delta
	if e.base != version-1 {
		base = e.base
	}
	if window = d.width != blockSize; window && slices.ContainsFunc(d.offs, func(off int) bool { return off != d.off }) {
		offs = d.offs
	}
	return base, window, offs
}

// entryOf is the inverse of manifestEntry: the entry of a manifest's
// version, with the codewords it names, each CDEC code fetched here once. It
// checks what depends on the kind of the delta, its support and its windows;
// Open checks the rest.
func (a *Archive) entryOf(me ManifestEntry) (entry, error) {
	k, blockSize := a.cfg.K, a.cfg.BlockSize
	switch {
	case me.Compressed && !me.Delta:
		return entry{}, fmt.Errorf("core: manifest version %d is compressed but stores no delta", me.Version)
	case me.Compressed && (me.Gamma < 1 || me.Gamma > k-1):
		return entry{}, fmt.Errorf("core: manifest version %d compressed with invalid gamma %d", me.Version, me.Gamma)
	case len(me.Support) > 0 && !me.Delta:
		return entry{}, fmt.Errorf("core: manifest version %d has a support list but stores no delta", me.Version)
	case len(me.Offsets) > 0 && (me.Compressed || len(me.Support) == 0):
		return entry{}, fmt.Errorf("core: manifest version %d has per-block offsets but no plain delta's support", me.Version)
	}
	if me.Compressed || len(me.Support) > 0 {
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
	}
	window := Window{Width: blockSize}
	if w := me.Window; w != nil {
		switch {
		case !me.Delta:
			return entry{}, fmt.Errorf("core: manifest version %d has a window but stores no delta", me.Version)
		case w.Width <= 0:
			return entry{}, fmt.Errorf("core: manifest version %d has a window of width %d", me.Version, w.Width)
		case w.Off < 0 || w.Off+w.Width > blockSize:
			return entry{}, fmt.Errorf("core: manifest version %d has window [%d,%d) outside its %d-byte blocks", me.Version, w.Off, w.Off+w.Width, blockSize)
		}
		window = *w
	}
	if len(me.Offsets) > 0 {
		if len(me.Offsets) != me.Gamma || me.Window == nil || me.Offsets[0] != window.Off {
			return entry{}, fmt.Errorf("core: manifest version %d has offsets %v for gamma %d and window %v", me.Version, me.Offsets, me.Gamma, me.Window)
		}
		for _, off := range me.Offsets {
			if off < 0 || off+window.Width > blockSize {
				return entry{}, fmt.Errorf("core: manifest version %d has a block window [%d,%d) outside its %d-byte blocks", me.Version, off, off+window.Width, blockSize)
			}
		}
	}
	var crc *uint32
	if me.CRC32C != "" {
		d, err := strconv.ParseUint(me.CRC32C, 16, 32)
		if err != nil || len(me.CRC32C) != 8 {
			return entry{}, fmt.Errorf("core: manifest version %d has invalid CRC32C %q", me.Version, me.CRC32C)
		}
		crc = new(uint32)
		*crc = uint32(d)
	}
	e := entry{measured: me.Gamma, length: me.Length, base: me.Base, checkpoint: me.Checkpoint, crc: crc}
	if me.Full {
		full := a.fullCodeword(me.Version)
		e.full = &full
	}
	if me.Delta {
		id := rebasedDeltaID(a.cfg.Name, me.Version, cmp.Or(me.Base, me.Version-1))
		d := codeword{id: id, version: me.Version, code: a.code, delta: true, gamma: me.Gamma, compressed: me.Compressed, support: append([]int(nil), me.Support...), off: window.Off, width: window.Width, offs: append([]int(nil), me.Offsets...)}
		if d.compressed {
			var err error
			if d.code, err = a.compressedCode(d.gamma); err != nil {
				return entry{}, err
			}
		}
		e.delta = &d
	}
	return e, nil
}

// codeword describes one stored object: what it is called, where its rows
// lie and how it was encoded. It is a plain value; the superseded queue keeps
// the codewords commits and compaction replaced exactly as they were written.
type codeword struct {
	id      string        // object name on the nodes
	version int           // the version it belongs to, which places its rows
	code    *erasure.Code // rows 0..code.N()-1 are stored, any code.K() of them decode
	delta   bool          // a delta z_version, not the full x_version
	gamma   int           // block sparsity of a delta; 0 for a full codeword
	// compressed marks a CDEC-compacted delta, whose code encodes the
	// blocks support names; a plain delta's support, when its entry records
	// one, is the blocks its decode must find. support is nil for a delta
	// that changed nothing and for a plain delta whose manifest recorded none
	// (a build from before supports wrote it), which reads blind.
	compressed bool
	support    []int
	// width, off and offs are a delta's byte windows: every row is width
	// bytes, and block support[i] is zero outside bytes [offs[i],
	// offs[i]+width), which it encodes moved to offset 0. off is the first
	// block's offset, and every block's where offs is nil: a CDEC delta's,
	// one whose blocks share it, and a plain one without a support, whatever
	// blocks its decode finds. A full codeword is BlockSize wide, at offset 0.
	off, width int
	offs       []int
}

// fullCodeword describes the full codeword of version v.
func (a *Archive) fullCodeword(v int) codeword {
	return codeword{id: fullID(a.cfg.Name, v), version: v, code: a.code, width: a.cfg.BlockSize}
}

// stored lists the codewords the chain holds for version v: none (Reversed
// SEC reaches an old version through its successor's delta), its full
// codeword, its delta, or both, full first.
func (a *Archive) stored(v int) []codeword {
	e := &a.entries[v-1]
	var cws []codeword
	if e.full != nil {
		cws = append(cws, *e.full)
	}
	if e.delta != nil {
		cws = append(cws, *e.delta)
	}
	return cws
}

// eachStored calls do for every codeword the chain lists, in version order,
// until one fails or the context is done: the loop of a maintenance pass.
func (a *Archive) eachStored(ctx context.Context, pass string, do func(codeword) error) error {
	for v := 1; v <= len(a.entries); v++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s aborted at version %d: %w", pass, v, err)
		}
		for _, cw := range a.stored(v) {
			if err := do(cw); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeDelta writes the delta d under id in the form the archive's policy
// picks, and returns the codeword it now is. Either form encodes only the
// gamma non-zero blocks, and only their windows, and records the support:
// CDEC-compacted when gamma is eligible, with the (gamma+N-K, gamma) code
// and one window for every block (delta.CompactDelta.Shared), since a build
// from before per-block windows reads a CDEC entry as it is; plain
// otherwise, with the gamma columns of the delta code the support names and
// each block at its own window, as delta.Diff and Blocking.Diff return it.
// The object name says neither, so a commit and every later rebase of the
// version choose afresh and a compressed chain stays compressed through
// compaction.
func (a *Archive) storeDelta(ctx context.Context, id string, version int, d delta.CompactDelta, writes *int) (codeword, error) {
	compressed := a.compressEligible(d.Gamma())
	if compressed {
		d = d.Shared()
	}
	cw := codeword{id: id, version: version, code: a.code, delta: true, gamma: d.Gamma(), compressed: compressed, support: d.Support, width: d.Width(), offs: d.Offs}
	if cw.gamma > 0 {
		cw.off = d.Off(0)
	}
	if !compressed {
		return cw, a.putEncoded(ctx, cw, cw.width, writes, func(dst [][]byte) error {
			return cw.code.EncodeSparseInto(d.Support, d.Blocks, dst)
		})
	}
	var err error
	if cw.code, err = a.compressedCode(cw.gamma); err != nil {
		return cw, err
	}
	return cw, a.writeObject(ctx, cw, d.Blocks, writes)
}

// cdec reports whether the codeword is a CDEC-compacted delta.
func (cw codeword) cdec() bool { return cw.compressed }

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
// fetch first". candidates are the rows it may read, in the order it would
// rather read them: ascending (so a systematic code's identity rows, which
// decode by plain copy, come first), but for rows on slow nodes, which come
// last (rowsOnLiveNodes); trySparse says the reader is still after a sparse
// decode; need is how many more rows a full decode lacks. The answer is the
// code's sparse read plan when the reader wants one and the candidates hold
// one (sparse true), else the first need candidates, else nil: too few rows
// are live. The chain prefetcher and the per-object reader both ask here,
// which is what keeps prefetching a pure wire optimization.
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

// deltaCost is what the planner charges for reading the stored delta cw
// with every node live (formulas (3) and (4)): the paper's eta for a plain
// delta - min(2*gamma, k) where a sparse read serves it, k where none does,
// nothing for an empty one - and gamma rows of a CDEC-compacted one. It reads
// the delta's sparsity and kind alone, so a codeword that is only priced
// needs no code, and it delegates to the delta package's cost model, so the
// two cannot drift apart.
func (a *Archive) deltaCost(cw codeword) int {
	if cw.compressed {
		return delta.CompressedReadCost(cw.gamma)
	}
	return delta.ReadCost(cw.gamma, a.cfg.K, a.promotionLimit())
}

// mergedCost is what deltaCost charges for a delta of the given sparsity
// written now: storeDelta picks its kind.
func (a *Archive) mergedCost(gamma int) int {
	return a.deltaCost(codeword{gamma: gamma, compressed: a.compressEligible(gamma)})
}

// decodeSparse recovers a plain delta from the rows of a sparse read plan,
// finding its support blind; placed checks it against the recorded one.
func (a *Archive) decodeSparse(cw codeword, rows []int, shards [][]byte) (delta.CompactDelta, error) {
	support, blocks, err := cw.code.DecodeSparseSupport(rows, shards, cw.gamma)
	if err != nil {
		return delta.CompactDelta{}, err
	}
	return a.placed(cw, support, blocks)
}

// expand turns the code.K() blocks a full decode of the codeword recovered
// into the delta the walk applies, never expanded: a full codeword is every
// block of its version (the delta from nothing), a CDEC-compacted delta is
// the blocks its recorded support names, and a plain delta is whichever of
// its k blocks are not zero. A delta's blocks are its windows (placed).
func (a *Archive) expand(cw codeword, blocks [][]byte) (delta.CompactDelta, error) {
	switch {
	case !cw.delta:
		return delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Support: allRows(a.cfg.K), Blocks: blocks}, nil
	case cw.cdec():
		return a.placed(cw, cw.support, blocks)
	default:
		view, err := delta.View(blocks)
		if err != nil {
			return delta.CompactDelta{}, err
		}
		return a.placed(cw, view.Support, view.Blocks)
	}
}

// placed returns the blocks of support that a decode of the delta cw
// recovered, each at its window's offset. A delta whose entry records its
// support must decode to exactly those blocks: one that finds others is
// damage, refused with store.ErrCorrupt naming the codeword, and its bytes
// are never applied.
func (a *Archive) placed(cw codeword, support []int, blocks [][]byte) (delta.CompactDelta, error) {
	if cw.support != nil && !slices.Equal(support, cw.support) {
		return delta.CompactDelta{}, fmt.Errorf("core: delta %s decoded to blocks %v, its entry records %v: %w", cw.id, support, cw.support, store.ErrCorrupt)
	}
	d := delta.CompactDelta{K: a.cfg.K, BlockSize: a.cfg.BlockSize, Offs: cw.offs, Support: support, Blocks: blocks}
	if cw.offs == nil && cw.off != 0 {
		d.Offs = make([]int, len(support))
		for i := range d.Offs {
			d.Offs[i] = cw.off
		}
	}
	return d, nil
}
