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

	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/sparse"
)

// Code is an (n,k) non-systematic Cauchy MDS code over GF(2^16). It is
// safe for concurrent use after construction.
type Code struct {
	n, k int
	gen  [][]uint16 // n x k generator, row-major
}

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
	return &Code{n: n, k: k, gen: gen}, nil
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

// Punctured returns the code restricted to the first n-t shards. n-t must
// remain at least k+1.
func (c *Code) Punctured(t int) (*Code, error) {
	if t < 0 || c.n-t <= c.k {
		return nil, fmt.Errorf("wide: cannot puncture %d of %d shards with k=%d", t, c.n, c.k)
	}
	return &Code{n: c.n - t, k: c.k, gen: c.gen[:c.n-t]}, nil
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
	for s := 0; s <= gamma; s++ {
		z := trySupports16(phi, obs, wordLen, c.k, s)
		if z != nil {
			out := make([][]byte, c.k)
			for j := range z {
				out[j] = fromWords(z[j])
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

// trySupports16 enumerates size-s supports and returns the first consistent
// solution as word blocks, or nil.
func trySupports16(phi [][]uint16, obs [][]uint16, wordLen, k, s int) [][]uint16 {
	support := make([]int, s)
	for i := range support {
		support[i] = i
	}
	for {
		if vals, ok := solveSupport16(phi, obs, wordLen, support); ok {
			z := make([][]uint16, k)
			for j := range z {
				z[j] = make([]uint16, wordLen)
			}
			for i, col := range support {
				copy(z[col], vals[i])
			}
			return z
		}
		// Next combination.
		i := s - 1
		for i >= 0 && support[i] == k-s+i {
			i--
		}
		if i < 0 {
			return nil
		}
		support[i]++
		for j := i + 1; j < s; j++ {
			support[j] = support[j-1] + 1
		}
	}
}

// solveSupport16 solves phi restricted to the support with block RHS, by
// Gauss-Jordan elimination; ok only if all residual rows vanish.
func solveSupport16(phi [][]uint16, obs [][]uint16, wordLen int, support []int) ([][]uint16, bool) {
	m, s := len(phi), len(support)
	a := make([][]uint16, m)
	r := make([][]uint16, m)
	for i := 0; i < m; i++ {
		a[i] = make([]uint16, s)
		for j, col := range support {
			a[i][j] = phi[i][col]
		}
		r[i] = append([]uint16(nil), obs[i]...)
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
	if len(blocks) != want {
		return nil, 0, fmt.Errorf("wide: got %d blocks, want %d", len(blocks), want)
	}
	if len(blocks) == 0 {
		return nil, 0, nil
	}
	byteLen := len(blocks[0])
	if byteLen%2 != 0 {
		return nil, 0, fmt.Errorf("wide: block length %d is not even", byteLen)
	}
	words := make([][]uint16, len(blocks))
	for i, b := range blocks {
		if len(b) != byteLen {
			return nil, 0, fmt.Errorf("wide: block %d has %d bytes, want %d", i, len(b), byteLen)
		}
		w := make([]uint16, byteLen/2)
		for j := range w {
			w[j] = uint16(b[2*j]) | uint16(b[2*j+1])<<8
		}
		words[i] = w
	}
	return words, byteLen / 2, nil
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
