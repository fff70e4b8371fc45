// Package wide implements (n,k) Cauchy MDS erasure codes over GF(2^16) for
// configurations the GF(2^8) backend cannot express: the Cauchy
// construction needs n+k distinct field points, so codes with n+k > 256
// (very wide archives, large clusters) require the larger field.
//
// The package mirrors the erasure package's model - block-striped objects,
// full decoding from any k shards, sparse decoding of gamma-sparse deltas
// from 2*gamma shards (the SEC primitive) - with symbols of 16 bits:
// blocks must have even byte length and are interpreted as little-endian
// uint16 sequences.
package wide

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/lru"
	"github.com/secarchive/sec/internal/sparse"
)

// Code is an (n,k) non-systematic Cauchy MDS code over GF(2^16). It is
// safe for concurrent use after construction.
type Code struct {
	n, k   int
	gen    [][]uint16             // n x k generator, row-major
	checks *lru.Cache[[][]uint16] // Locate's parity checks per row set
}

// maxCachedChecks bounds the parity-check cache: scrub sees few row sets,
// all rows present or one or two nodes down.
const maxCachedChecks = 64

// NewCauchy constructs the code from the canonical point sets h_i = i,
// f_j = n+j over GF(2^16); n+k must not exceed 65536.
func NewCauchy(n, k int) (*Code, error) {
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("wide: need n > k > 0, got (n,k)=(%d,%d)", n, k)
	}
	if n+k > gf.Order16 {
		return nil, fmt.Errorf("wide: Cauchy needs n+k <= %d field points, got %d", gf.Order16, n+k)
	}
	gen := make([][]uint16, n)
	for i := 0; i < n; i++ {
		row := make([]uint16, k)
		for j := 0; j < k; j++ {
			row[j] = gf.Inv16(uint16(i) ^ uint16(n+j))
		}
		gen[i] = row
	}
	return &Code{n: n, k: k, gen: gen, checks: lru.New[[][]uint16](maxCachedChecks)}, nil
}

// N returns the codeword length.
func (c *Code) N() int { return c.n }

// K returns the data dimension.
func (c *Code) K() int { return c.k }

// Systematic reports whether data blocks are stored verbatim; the wide
// backend provides only the non-systematic Cauchy construction.
func (c *Code) Systematic() bool { return false }

// MaxSparseGamma returns the largest sparsity recoverable with 2*gamma
// reads: floor((k-1)/2), as for the narrow non-systematic construction.
func (c *Code) MaxSparseGamma() int { return (c.k - 1) / 2 }

// SparseReadRows selects 2*gamma distinct rows from the live set for a
// sparse read, or nil when gamma is not exploitable or too few shards are
// live. Every square submatrix of a Cauchy matrix is invertible, so any
// rows qualify.
func (c *Code) SparseReadRows(live []int, gamma int) []int {
	need := 2 * gamma
	if gamma <= 0 || need >= c.k {
		return nil
	}
	seen := make(map[int]bool, need)
	rows := make([]int, 0, need)
	for _, r := range live {
		if r < 0 || r >= c.n || seen[r] {
			continue
		}
		seen[r] = true
		rows = append(rows, r)
		if len(rows) == need {
			return rows
		}
	}
	return nil
}

// Encode maps k equally sized even-length byte blocks to n coded shards.
func (c *Code) Encode(blocks [][]byte) ([][]byte, error) {
	shards := make([][]byte, c.n)
	if len(blocks) == c.k && len(blocks) > 0 {
		for i := range shards {
			shards[i] = make([]byte, len(blocks[0]))
		}
	}
	if err := c.EncodeInto(blocks, shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// EncodeInto writes the n coded shards into the caller-provided dst blocks,
// which must all have the input block length. Unlike the GF(2^8) backend
// the wide backend still allocates internal word buffers (symbols are
// 16-bit, so blocks are converted to uint16 sequences first); Into saves
// only the shard allocations.
func (c *Code) EncodeInto(blocks, dst [][]byte) error {
	if len(blocks) != c.k {
		return fmt.Errorf("wide: got %d blocks, want %d", len(blocks), c.k)
	}
	cols := make([]int, c.k)
	for j := range cols {
		cols[j] = j
	}
	return c.EncodeSparseInto(cols, blocks, dst)
}

// EncodeSparseInto is EncodeInto of a vector that is zero outside support,
// without expanding it: blocks[j] is block support[j] of the vector, support
// strictly increasing in [0,k), and shard i is sum_j G[i][support[j]] *
// blocks[j]. Every dst block is overwritten, with zeros throughout when
// support is empty.
func (c *Code) EncodeSparseInto(support []int, blocks, dst [][]byte) error {
	if len(support) != len(blocks) {
		return fmt.Errorf("wide: %d support indices for %d blocks", len(support), len(blocks))
	}
	prev := -1
	for _, s := range support {
		if s <= prev || s >= c.k {
			return fmt.Errorf("wide: support %v is not strictly increasing in [0,%d)", support, c.k)
		}
		prev = s
	}
	if len(blocks) == 0 {
		blockLen := 0
		if len(dst) > 0 {
			blockLen = len(dst[0])
		}
		if err := checkDst(dst, c.n, blockLen); err != nil {
			return err
		}
		for _, d := range dst {
			clear(d) // the zero vector's codeword; pooled dst holds stale bytes
		}
		return nil
	}
	words, wordLen, err := toWords(blocks, len(blocks))
	if err != nil {
		return err
	}
	if err := checkDst(dst, c.n, wordLen*2); err != nil {
		return err
	}
	acc := make([]uint16, wordLen)
	for i := 0; i < c.n; i++ {
		clear(acc)
		for j, col := range support {
			gf.MulAddSlice16(c.gen[i][col], acc, words[j])
		}
		fromWordsInto(acc, dst[i])
	}
	return nil
}

// DecodeFull reconstructs the k data blocks from any k distinct shards;
// rows[i] is the generator row of shards[i].
func (c *Code) DecodeFull(rows []int, shards [][]byte) ([][]byte, error) {
	out := make([][]byte, c.k)
	if len(shards) > 0 {
		for i := range out {
			out[i] = make([]byte, len(shards[0]))
		}
	}
	if err := c.DecodeFullInto(rows, shards, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeFullInto writes the k data blocks into the caller-provided dst
// blocks, which must all have the shard block length.
func (c *Code) DecodeFullInto(rows []int, shards, dst [][]byte) error {
	if len(rows) != len(shards) {
		return fmt.Errorf("wide: %d rows but %d shards", len(rows), len(shards))
	}
	pickRows, pickShards := dedupeFirstK(rows, shards, c.k)
	if len(pickRows) < c.k {
		return fmt.Errorf("wide: need %d distinct shards, got %d", c.k, len(pickRows))
	}
	for _, r := range pickRows {
		if r < 0 || r >= c.n {
			return fmt.Errorf("wide: shard row %d out of range [0,%d)", r, c.n)
		}
	}
	words, wordLen, err := toWords(pickShards, c.k)
	if err != nil {
		return err
	}
	if err := checkDst(dst, c.k, wordLen*2); err != nil {
		return err
	}
	sub := make([][]uint16, c.k)
	for i, r := range pickRows {
		sub[i] = append([]uint16(nil), c.gen[r]...)
	}
	inv, ok := invert16(sub)
	if !ok {
		return fmt.Errorf("wide: shard rows %v do not form an invertible submatrix", pickRows)
	}
	acc := make([]uint16, wordLen)
	for i := 0; i < c.k; i++ {
		clear(acc)
		for j, coeff := range inv[i] {
			gf.MulAddSlice16(coeff, acc, words[j])
		}
		fromWordsInto(acc, dst[i])
	}
	return nil
}

// DecodeSparse recovers a block vector with at most gamma non-zero blocks
// from at least 2*gamma shards, by support enumeration. Every square
// submatrix of a Cauchy matrix is invertible, so any 2*gamma rows satisfy
// Criterion 2.
func (c *Code) DecodeSparse(rows []int, shards [][]byte, gamma int) ([][]byte, error) {
	if len(rows) != len(shards) {
		return nil, fmt.Errorf("wide: %d rows but %d shards", len(rows), len(shards))
	}
	if gamma < 0 || 2*gamma > len(rows) {
		return nil, fmt.Errorf("wide: sparsity %d not decodable from %d shards", gamma, len(rows))
	}
	for _, r := range rows {
		if r < 0 || r >= c.n {
			return nil, fmt.Errorf("wide: shard row %d out of range [0,%d)", r, c.n)
		}
	}
	obs, wordLen, err := toWords(shards, len(shards))
	if err != nil {
		return nil, err
	}
	phi := make([][]uint16, len(rows))
	for i, r := range rows {
		phi[i] = c.gen[r]
	}
	unbounded := math.MaxInt
	for s := 0; s <= gamma; s++ {
		if support, vals := trySupports16(phi, obs, wordLen, c.k, s, &unbounded); support != nil {
			out := make([][]byte, c.k)
			for j := range out {
				out[j] = make([]byte, 2*wordLen)
			}
			for i, col := range support {
				out[col] = fromWords(vals[i])
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("wide: no %d-sparse solution consistent with observations", gamma)
}

// DecodeSparseSupport is DecodeSparse as the indices of the non-zero blocks,
// ascending, and those blocks.
func (c *Code) DecodeSparseSupport(rows []int, shards [][]byte, gamma int) (support []int, values [][]byte, err error) {
	z, err := c.DecodeSparse(rows, shards, gamma)
	if err != nil {
		return nil, nil, err
	}
	support, values = sparse.Support(z)
	return support, values, nil
}

// trySupports16 enumerates the size-s supports among k columns in
// lexicographic order and returns the first consistent one with its values,
// or nil. A support is solved first on the probe (probe16) and only at full
// width when it passes there, so the answer is that of solving every support
// at full width. Each solve is charged to budget at what it costs, in symbol
// products; once budget is below zero the search stops.
func trySupports16(phi [][]uint16, obs [][]uint16, wordLen, k, s int, budget *int) ([]int, [][]uint16) {
	probe, width := probe16(obs, wordLen)
	support := make([]int, s)
	for i := range support {
		support[i] = i
	}
	for {
		if *budget -= len(phi) * (s + width) * (s + 1); *budget < 0 {
			return nil, nil
		}
		if _, ok := solveSupport16(phi, probe, width, support); ok {
			if *budget -= len(phi) * (s + wordLen) * (s + 1); *budget < 0 {
				return nil, nil
			}
			if vals, ok := solveSupport16(phi, obs, wordLen, support); ok {
				return support, vals
			}
		}
		// Next combination.
		i := s - 1
		for i >= 0 && support[i] == k-s+i {
			i--
		}
		if i < 0 {
			return nil, nil
		}
		support[i]++
		for j := i + 1; j < s; j++ {
			support[j] = support[j-1] + 1
		}
	}
}

// Locate returns the rows whose shards differ from the one codeword lying
// within maxErrors of them, in the order given: none when the shards are a
// codeword. It is erasure.Code.Locate over GF(2^16), whose Cauchy code is
// MDS: rows distinct, maxErrors at most (m-k)/2, the parity check
// H = [G_R * G_W^-1 | I] of the first k rows W and the rest R cached per row
// set, an error in R its own syndrome, and otherwise the error support of a
// non-zero syndrome found by trySupports16. No codeword within maxErrors, or
// a search that would cost more than m-k+1 full decodes
// (sparse.LocateBudget), is sparse.ErrUnrecoverable. The shards' words and
// the syndrome live in pooled memory, so a healthy codeword allocates
// nothing.
func (c *Code) Locate(rows []int, shards [][]byte, maxErrors int) ([]int, error) {
	m := len(rows)
	if m <= c.k || maxErrors < 0 || 2*maxErrors > m-c.k {
		return nil, fmt.Errorf("wide: %d shards of a k=%d code cannot locate %d errors", m, c.k, maxErrors)
	}
	sc := wordScratchPool.Get().(*wordScratch)
	defer wordScratchPool.Put(sc)
	h, err := c.parityCheck(rows, sc)
	if err != nil {
		return nil, err
	}
	wordLen, err := wordLenOf(shards, m)
	if err != nil {
		return nil, err
	}
	words := sc.take(2*m-c.k, wordLen)
	obs, syndrome := words[:m], words[m:]
	for i, b := range shards {
		toWordsInto(b, obs[i])
	}
	var located []int
	for i, row := range h {
		for j, coeff := range row {
			gf.MulAddSlice16(coeff, syndrome[i], obs[j])
		}
		if slices.ContainsFunc(syndrome[i], func(w uint16) bool { return w != 0 }) {
			located = append(located, rows[c.k+i])
		}
	}
	if len(located) <= maxErrors {
		return located, nil
	}
	budget := sparse.LocateBudget(c.n, c.k, m, wordLen)
	for s := 1; s <= maxErrors && budget >= 0; s++ {
		if support, _ := trySupports16(h, syndrome, wordLen, m, s, &budget); support != nil {
			located := make([]int, s)
			for i, at := range support {
				located[i] = rows[at]
			}
			return located, nil
		}
	}
	if budget < 0 {
		return nil, fmt.Errorf("%w: the search outgrew its budget", sparse.ErrUnrecoverable)
	}
	return nil, sparse.ErrUnrecoverable
}

// parityCheck returns Locate's H = [G_R * G_W^-1 | I] for the given rows, W
// the first k and R the rest, cached per row set. The key is built in the
// scratch, so a cached row set costs no allocation.
func (c *Code) parityCheck(rows []int, sc *wordScratch) ([][]uint16, error) {
	sc.key = sc.key[:0]
	for _, r := range rows {
		sc.key = strconv.AppendInt(append(sc.key, ','), int64(r), 10)
	}
	if h, ok := c.checks.Get(sc.key); ok {
		return h, nil
	}
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= c.n || seen[r] {
			return nil, fmt.Errorf("wide: shard row %d out of range [0,%d) or given twice", r, c.n)
		}
		seen[r] = true
	}
	sub := make([][]uint16, c.k)
	for i, r := range rows[:c.k] {
		sub[i] = append([]uint16(nil), c.gen[r]...)
	}
	inv, ok := invert16(sub)
	if !ok {
		return nil, fmt.Errorf("wide: shard rows %v do not form an invertible submatrix", rows[:c.k])
	}
	h := make([][]uint16, len(rows)-c.k)
	for i, r := range rows[c.k:] {
		h[i] = make([]uint16, len(rows))
		for j, coeff := range c.gen[r] {
			gf.MulAddSlice16(coeff, h[i][:c.k], inv[j])
		}
		h[i][c.k+i] = 1
	}
	c.checks.Put(string(sc.key), h)
	return h, nil
}

// wordScratch is Locate's pooled memory: the shards as words, the syndrome
// and the row-set key.
type wordScratch struct {
	words  []uint16
	blocks [][]uint16
	key    []byte
}

var wordScratchPool = sync.Pool{New: func() any { return new(wordScratch) }}

// take returns count zeroed blocks of wordLen words from the scratch.
func (s *wordScratch) take(count, wordLen int) [][]uint16 {
	s.words = slices.Grow(s.words[:0], count*wordLen)[:count*wordLen]
	clear(s.words)
	s.blocks = s.blocks[:0]
	for i := range count {
		s.blocks = append(s.blocks, s.words[i*wordLen:(i+1)*wordLen:(i+1)*wordLen])
	}
	return s.blocks
}

// probe16 returns the observations at the first word positions, at most as
// many as there are observations, at which some observation is non-zero, and
// how many positions that is. A support consistent with every word is
// consistent with these.
func probe16(obs [][]uint16, wordLen int) ([][]uint16, int) {
	var at []int
	for j := 0; j < wordLen && len(at) < len(obs); j++ {
		if slices.ContainsFunc(obs, func(o []uint16) bool { return o[j] != 0 }) {
			at = append(at, j)
		}
	}
	probe := make([][]uint16, len(obs))
	for i, o := range obs {
		probe[i] = make([]uint16, len(at))
		for x, j := range at {
			probe[i][x] = o[j]
		}
	}
	return probe, len(at)
}

// solveSupport16 solves phi restricted to the support with block RHS, by
// Gauss-Jordan elimination; ok only if all residual rows vanish.
func solveSupport16(phi [][]uint16, obs [][]uint16, wordLen int, support []int) ([][]uint16, bool) {
	m, s := len(phi), len(support)
	a := make([][]uint16, m)
	r := make([][]uint16, m)
	flat := make([]uint16, m*(s+wordLen))
	for i := 0; i < m; i++ {
		a[i], flat = flat[:s:s], flat[s:]
		for j, col := range support {
			a[i][j] = phi[i][col]
		}
		r[i], flat = flat[:wordLen:wordLen], flat[wordLen:]
		copy(r[i], obs[i])
	}
	rank := 0
	for col := 0; col < s; col++ {
		pivot := -1
		for row := rank; row < m; row++ {
			if a[row][col] != 0 {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		a[pivot], a[rank] = a[rank], a[pivot]
		r[pivot], r[rank] = r[rank], r[pivot]
		if p := a[rank][col]; p != 1 {
			inv := gf.Inv16(p)
			gf.MulSlice16(inv, a[rank], a[rank])
			gf.MulSlice16(inv, r[rank], r[rank])
		}
		for row := 0; row < m; row++ {
			if row == rank {
				continue
			}
			if f := a[row][col]; f != 0 {
				gf.MulAddSlice16(f, a[row], a[rank])
				gf.MulAddSlice16(f, r[row], r[rank])
			}
		}
		rank++
	}
	for row := rank; row < m; row++ {
		for _, v := range r[row] {
			if v != 0 {
				return nil, false
			}
		}
	}
	return r[:s], true
}

// invert16 inverts a square GF(2^16) matrix in place via Gauss-Jordan.
func invert16(m [][]uint16) ([][]uint16, bool) {
	n := len(m)
	inv := make([][]uint16, n)
	for i := range inv {
		inv[i] = make([]uint16, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for row := col; row < n; row++ {
			if m[row][col] != 0 {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		m[pivot], m[col] = m[col], m[pivot]
		inv[pivot], inv[col] = inv[col], inv[pivot]
		if p := m[col][col]; p != 1 {
			s := gf.Inv16(p)
			gf.MulSlice16(s, m[col], m[col])
			gf.MulSlice16(s, inv[col], inv[col])
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			if f := m[row][col]; f != 0 {
				gf.MulAddSlice16(f, m[row], m[col])
				gf.MulAddSlice16(f, inv[row], inv[col])
			}
		}
	}
	return inv, true
}

// toWords validates count and even uniform length, and reinterprets byte
// blocks as little-endian uint16 blocks.
func toWords(blocks [][]byte, want int) ([][]uint16, int, error) {
	wordLen, err := wordLenOf(blocks, want)
	if err != nil || len(blocks) == 0 {
		return nil, 0, err
	}
	words := make([][]uint16, len(blocks))
	for i, b := range blocks {
		words[i] = make([]uint16, wordLen)
		toWordsInto(b, words[i])
	}
	return words, wordLen, nil
}

// wordLenOf checks that there are want blocks of one even length and
// returns that length in words.
func wordLenOf(blocks [][]byte, want int) (int, error) {
	if len(blocks) != want {
		return 0, fmt.Errorf("wide: got %d blocks, want %d", len(blocks), want)
	}
	if len(blocks) == 0 {
		return 0, nil
	}
	byteLen := len(blocks[0])
	if byteLen%2 != 0 {
		return 0, fmt.Errorf("wide: block length %d is not even", byteLen)
	}
	for i, b := range blocks {
		if len(b) != byteLen {
			return 0, fmt.Errorf("wide: block %d has %d bytes, want %d", i, len(b), byteLen)
		}
	}
	return byteLen / 2, nil
}

func toWordsInto(b []byte, w []uint16) {
	for j := range w {
		w[j] = uint16(b[2*j]) | uint16(b[2*j+1])<<8
	}
}

func fromWords(w []uint16) []byte {
	b := make([]byte, 2*len(w))
	fromWordsInto(w, b)
	return b
}

func fromWordsInto(w []uint16, b []byte) {
	for j, v := range w {
		b[2*j] = byte(v)
		b[2*j+1] = byte(v >> 8)
	}
}

// checkDst validates an Into-destination: count blocks of blockLen bytes.
func checkDst(dst [][]byte, count, blockLen int) error {
	if len(dst) != count {
		return fmt.Errorf("wide: got %d destination blocks, want %d", len(dst), count)
	}
	for i, d := range dst {
		if len(d) != blockLen {
			return fmt.Errorf("wide: destination block %d has %d bytes, want %d", i, len(d), blockLen)
		}
	}
	return nil
}

func dedupeFirstK(rows []int, shards [][]byte, k int) ([]int, [][]byte) {
	seen := make(map[int]bool, k)
	outRows := make([]int, 0, k)
	outShards := make([][]byte, 0, k)
	for i, r := range rows {
		if seen[r] {
			continue
		}
		seen[r] = true
		outRows = append(outRows, r)
		outShards = append(outShards, shards[i])
		if len(outRows) == k {
			break
		}
	}
	return outRows, outShards
}
