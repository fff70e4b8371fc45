// Package sparse recovers gamma-sparse vectors over GF(2^8) from
// underdetermined linear observations, the decoding primitive behind SEC's
// reduced-I/O delta retrieval (Proposition 1 of the paper, following
// Zhang & Pfister's compressed-sensing/coding connection).
//
// Given y = Phi*z where Phi is an m x k matrix whose every m columns are
// linearly independent (the paper's Criterion 2) and z has at most
// gamma <= m/2 non-zero blocks, z is uniquely determined by y. Two decoders
// are provided:
//
//   - RecoverEnum works for any Criterion-2 matrix (Cauchy submatrices in
//     particular) by enumerating candidate supports; the search grows as
//     C(k, gamma) but runs on a few byte columns of the observations, so
//     the full block width is solved once.
//
//   - SyndromeDecoder exploits Vandermonde structure to find the support
//     with Berlekamp-Massey + Chien search in O(gamma^2 + k*gamma) per byte
//     position - the extension discussed in DESIGN.md.
//
// Observations and results are block vectors: element j of z is a byte
// block, and every byte position forms an independent GF(2^8) codeword
// sharing the block-level support.
package sparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/matrix"
)

// ErrUnrecoverable is returned when no vector with the requested sparsity is
// consistent with the observations. Callers typically fall back to a full
// k-symbol read.
var ErrUnrecoverable = errors.New("sparse: no solution with requested sparsity is consistent with observations")

// RecoverEnum recovers a block vector z of k = phi.Cols() blocks with at
// most gamma non-zero blocks from the observation blocks y, where
// y[i] = sum_j phi[i][j]*z[j] byte-wise. All observation blocks must have
// equal length. It tries candidate supports of size 0..gamma, each size in
// lexicographic order, and returns the solution through the first support
// consistent with every byte of every observation; that solution is the
// unique one when phi satisfies Criterion 2 for gamma (i.e. phi has
// >= 2*gamma rows with every such column subset independent).
//
// The support is a property of the block vector, shared by every byte
// position, so the search does not run at block width. A support is
// consistent when its columns of phi are independent and span every byte
// column of y; both survive taking a basis of a sample of those byte columns
// (the probe). Candidates are eliminated against the probe alone, and only a
// survivor pays for block width, as two block products: its values from s
// observations on which its columns are independent, and the check that the
// other m-s observations are what those values predict. A survivor that fails
// the check was consistent with the probe but not with the block: the first
// byte column that exposed it joins the probe - it is independent of the
// columns already there, so this happens fewer times than there are
// observations - and the enumeration goes on from where it stopped. The
// answer, and the error, are those of trying every support at full width.
func RecoverEnum(phi matrix.Matrix, y [][]byte, gamma int) ([][]byte, error) {
	support, values, _, err := recoverEnum(phi, y, gamma, math.MaxInt)
	if err != nil {
		return nil, err
	}
	blockLen, _ := uniformBlockLen(y)
	return Expand(phi.Cols(), blockLen, support, values), nil
}

// RecoverSupport is RecoverEnum for a caller that applies the vector rather
// than looks at it: the support it found, ascending, and the value of each
// block in it, without the k - gamma zero blocks around them. The values are
// the caller's own memory.
func RecoverSupport(phi matrix.Matrix, y [][]byte, gamma int) (support []int, values [][]byte, err error) {
	support, values, _, err = recoverEnum(phi, y, gamma, math.MaxInt)
	return support, values, err
}

// RecoverSupportWithin is RecoverSupport for a caller that must not wait on
// the search, whose cost grows as C(k, gamma): once the eliminations, probe
// checks and solves it has run come to more than budget symbol products,
// it stops and answers ErrUnrecoverable.
func RecoverSupportWithin(phi matrix.Matrix, y [][]byte, gamma, budget int) (support []int, values [][]byte, err error) {
	support, values, _, err = recoverEnum(phi, y, gamma, budget)
	return support, values, err
}

// LocateBudget is what a search for the errors in m shards of an (n, k)
// code, blockLen symbols each, may spend, in symbol products: m-k+1 full
// decodes, as many as there are windows of k consecutive shards among m. A
// full decode here is what checking one window costs: the inversion of its
// k rows (k^3), the product of the inverse with k shards, the re-encode of
// n rows and the comparison of m.
func LocateBudget(n, k, m, blockLen int) int {
	return (m - k + 1) * (k*k*k + ((k+n)*k+m)*blockLen)
}

// Expand returns the vector of k blocks of blockLen bytes whose blocks at
// support are values and whose other blocks are zero, as fresh memory.
func Expand(k, blockLen int, support []int, values [][]byte) [][]byte {
	z := blocks(k, blockLen)
	for i, col := range support {
		copy(z[col], values[i])
	}
	return z
}

// Support is the inverse of Expand for a vector already in hand: the indices
// of its non-zero blocks and those blocks themselves, shared, not copied.
func Support(z [][]byte) (support []int, values [][]byte) {
	for j, blk := range z {
		if !isZero(blk) {
			support = append(support, j)
			values = append(values, blk)
		}
	}
	return support, values
}

// recoverEnum is RecoverSupportWithin, also reporting how many supports
// passed the probe and then failed at full width.
func recoverEnum(phi matrix.Matrix, y [][]byte, gamma, budget int) (support []int, values [][]byte, falsePositives int, err error) {
	m, k := phi.Rows(), phi.Cols()
	if len(y) != m {
		return nil, nil, 0, fmt.Errorf("sparse: got %d observation blocks for a %d-row matrix", len(y), m)
	}
	if gamma < 0 {
		return nil, nil, 0, fmt.Errorf("sparse: negative sparsity %d", gamma)
	}
	blockLen, err := uniformBlockLen(y)
	if err != nil {
		return nil, nil, 0, err
	}
	// No support larger than the row or column count has independent columns.
	gamma = min(gamma, m, k)
	if allZero(y) {
		// The empty support is consistent, and costs nothing to find.
		return nil, nil, 0, nil
	}
	e := newEnumerator(phi, y, blockLen, gamma)
	e.budget = budget
	for s := 1; s <= gamma; s++ {
		if e.search(0, 0, s) {
			return e.support[:s], e.values, e.falsePositives, nil
		}
	}
	if e.budget < 0 {
		return nil, nil, e.falsePositives, fmt.Errorf("%w: the search outgrew its budget", ErrUnrecoverable)
	}
	return nil, nil, e.falsePositives, ErrUnrecoverable
}

// probeSegments is how many stretches of the block the probe samples a byte
// column from. The sample has to be spread out: a small edit to a large
// object changes a short run of bytes at a different offset in each changed
// block, so neighbouring byte columns all see the same single block.
const probeSegments = 16

// enumerator is the state of one RecoverEnum call. The probe is at most m
// linearly independent byte columns of the observations. levels holds one
// m x width matrix per support size: level d is [phi | probe] after forward
// elimination of the first d columns of the support being tried (only rows
// d.. and the columns that can still be chosen are kept current), so supports
// that share a prefix share its elimination. values holds the block values
// of the last support solve accepted. budget is what the search may still
// spend, in symbol products; once it is below zero every step refuses.
type enumerator struct {
	phi            matrix.Matrix
	y              [][]byte
	m, k, blockLen int
	width          int // k + m: room in a level's rows for phi and a full basis
	p              int // probe columns in use
	levels         []byte
	support        []int
	echelon        []byte // reduced probe columns, m bytes each, leading entry 1
	lead           []int  // position of each reduced column's leading entry
	values         [][]byte
	falsePositives int
	budget         int
}

func newEnumerator(phi matrix.Matrix, y [][]byte, blockLen, gamma int) *enumerator {
	m, k := phi.Rows(), phi.Cols()
	e := &enumerator{phi: phi, y: y, m: m, k: k, blockLen: blockLen, width: k + m}
	ints := make([]int, gamma+m)
	e.support, e.lead = ints[:gamma], ints[gamma:gamma]
	levels := max(gamma, 1) * m * e.width
	flat := make([]byte, levels+m*m)
	e.levels, e.echelon = flat[:levels], flat[levels:]
	for r := 0; r < m; r++ {
		copy(e.level(0)[r*e.width:], phi.Row(r))
	}
	// One byte column from each stretch of the block at which some
	// observation is non-zero, kept if it is independent of those before it.
	seg := (blockLen + probeSegments - 1) / probeSegments
	for lo := 0; lo < blockLen && e.p < m; lo += seg {
		hi := min(lo+seg, blockLen)
		for _, obs := range y {
			if at := firstNonZero(obs[lo:hi]); at >= 0 {
				e.addColumn(lo+at, 0)
				break
			}
		}
	}
	return e
}

func (e *enumerator) level(d int) []byte {
	size := e.m * e.width
	return e.levels[d*size : (d+1)*size]
}

// addColumn puts byte column at of the observations into the probe, unless
// it is a combination of the columns already there, and brings the levels of
// the current support's first depth columns up to date with it.
func (e *enumerator) addColumn(at, depth int) {
	if e.p == e.m {
		return
	}
	// Reduce the column by the echelon of the earlier ones; what is left
	// is zero exactly when it depends on them.
	v := e.echelon[e.p*e.m : (e.p+1)*e.m]
	for r := range v {
		v[r] = e.y[r][at]
	}
	for i, lead := range e.lead {
		if f := v[lead]; f != 0 {
			for r, c := range e.echelon[i*e.m : (i+1)*e.m] {
				v[r] ^= gf.Mul(f, c)
			}
		}
	}
	lead := firstNonZero(v)
	if lead < 0 {
		return
	}
	gf.MulSlice(gf.Inv(v[lead]), v, v)
	e.lead = append(e.lead, lead)
	for r := 0; r < e.m; r++ {
		e.level(0)[r*e.width+e.k+e.p] = e.y[r][at]
	}
	e.p++
	for d := 0; d < depth; d++ {
		e.eliminate(d, e.support[d])
	}
}

// search visits, in lexicographic order, the supports of size s that extend
// support[:d] with columns from `from` on, and stops with true at the first
// that is consistent with the observations; support[:s] is then that support
// and r[:s] its block values. Level d must be current.
func (e *enumerator) search(d, from, s int) bool {
	if d == s-1 {
		for c := from; c < e.k; c++ {
			if !e.spend((e.m - d) * e.p) {
				return false
			}
			e.support[d] = c
			if e.probeConsistent(d, c) && e.solve(s) {
				return true
			}
		}
		return false
	}
	for c := from; c <= e.k-(s-d); c++ {
		if !e.spend((e.m - d) * (e.k + e.p - c)) {
			return false
		}
		// A column with no pivot depends on support[:d]: no support with
		// this prefix is consistent.
		e.support[d] = c
		if e.eliminate(d, c) && e.search(d+1, c+1, s) {
			return true
		}
	}
	return false
}

// spend charges cost symbol products to the budget, reporting whether any
// of it is left.
func (e *enumerator) spend(cost int) bool {
	e.budget -= cost
	return e.budget >= 0
}

// pivotRow returns the first row from d on at which column c of a level is
// non-zero, or m when there is none.
func (e *enumerator) pivotRow(lvl []byte, d, c int) int {
	for d < e.m && lvl[d*e.width+c] == 0 {
		d++
	}
	return d
}

// eliminate derives level d+1 from level d by pivoting on column c among
// rows d.., reporting false when the column has no pivot there.
func (e *enumerator) eliminate(d, c int) bool {
	src, dst, w := e.level(d), e.level(d+1), e.width
	pivot := e.pivotRow(src, d, c)
	if pivot == e.m {
		return false
	}
	lo, hi := c+1, e.k+e.p // the columns a longer support can still take, then the probe
	prow := src[pivot*w+lo : pivot*w+hi]
	inv := gf.Inv(src[pivot*w+c])
	out := d + 1
	for r := d; r < e.m; r++ {
		if r == pivot {
			continue
		}
		f := gf.Mul(src[r*w+c], inv)
		orow := dst[out*w+lo : out*w+hi]
		for x, v := range src[r*w+lo : r*w+hi] {
			orow[x] = v ^ gf.Mul(f, prow[x])
		}
		out++
	}
	return true
}

// probeConsistent reports whether the support that extends the d eliminated
// columns with column c passes the probe: below row d, c has a non-zero
// entry and every probe column is a multiple of it.
func (e *enumerator) probeConsistent(d, c int) bool {
	lvl, w := e.level(d), e.width
	pivot := e.pivotRow(lvl, d, c)
	if pivot == e.m {
		return false
	}
	inv := gf.Inv(lvl[pivot*w+c])
	for t := e.k; t < e.k+e.p; t++ {
		f := gf.Mul(lvl[pivot*w+t], inv)
		for r := d; r < e.m; r++ {
			if lvl[r*w+t] != gf.Mul(f, lvl[r*w+c]) {
				return false
			}
		}
	}
	return true
}

// solve computes the block values through support[:s] and reports true when
// every byte of every observation is consistent with them, leaving them in
// values. The work at block width is two products: the values, from s
// observations on which the support's columns of phi are independent, and
// the other m-s observations less what the values predict, which must be
// zero throughout. Otherwise the support got through the probe but not the
// block: the first byte column that shows it joins the probe.
func (e *enumerator) solve(s int) bool {
	if !e.spend((e.m*(e.m-s)+s*s)*e.blockLen + e.m*s*s) {
		return false
	}
	cols := e.phi.SelectCols(e.support[:s])
	rows, others := cols.IndependentRows()
	if len(rows) < s {
		// Dependent support columns: cannot determine a unique
		// solution through this support.
		return false
	}
	inv, err := cols.SelectRows(rows).Inverse()
	if err != nil {
		return false
	}
	if at := e.inconsistentColumn(cols, inv, rows, others); at >= 0 {
		e.falsePositives++
		e.addColumn(at, s-1)
		return false
	}
	obs := make([][]byte, s)
	for i, r := range rows {
		obs[i] = e.y[r]
	}
	e.values = blocks(s, e.blockLen)
	inv.MulBlocksInto(obs, e.values)
	return true
}

// inconsistentColumn returns the first byte column at which an observation
// outside rows differs from what the observations in rows predict through
// the support's columns cols of phi, whose rows part inverts to inv; -1
// when there is none. Row t of the check is observation others[t] plus its
// prediction cols[others[t]] * inv * y[rows], one product into pooled
// scratch.
func (e *enumerator) inconsistentColumn(cols, inv matrix.Matrix, rows, others []int) int {
	if len(others) == 0 {
		return -1
	}
	predict := cols.SelectRows(others).Mul(inv)
	check := matrix.New(len(others), e.m)
	for t, o := range others {
		check.Set(t, o, 1)
		for i, r := range rows {
			check.Set(t, r, predict.At(t, i))
		}
	}
	residual := getResidual(len(others), e.blockLen)
	defer residualPool.Put(residual)
	check.MulBlocksInto(e.y, residual.blocks)
	at := -1
	for _, b := range residual.blocks {
		if x := firstNonZero(b); x >= 0 && (at < 0 || x < at) {
			at = x
		}
	}
	return at
}

// blocks returns count zeroed blocks of blockLen bytes in one allocation.
func blocks(count, blockLen int) [][]byte {
	out := make([][]byte, count)
	flat := make([]byte, count*blockLen)
	for i := range out {
		out[i] = flat[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
	}
	return out
}

// residualScratch is the pooled memory of solve's consistency check.
type residualScratch struct {
	flat   []byte
	blocks [][]byte
}

var residualPool = sync.Pool{New: func() any { return new(residualScratch) }}

// getResidual returns scratch of count blocks of blockLen bytes, holding
// stale bytes; the caller puts it back into residualPool.
func getResidual(count, blockLen int) *residualScratch {
	r := residualPool.Get().(*residualScratch)
	if cap(r.flat) < count*blockLen {
		r.flat = make([]byte, count*blockLen)
	}
	r.blocks = r.blocks[:0]
	for i := 0; i < count; i++ {
		r.blocks = append(r.blocks, r.flat[i*blockLen:(i+1)*blockLen:(i+1)*blockLen])
	}
	return r
}

func uniformBlockLen(y [][]byte) (int, error) {
	if len(y) == 0 {
		return 0, nil
	}
	blockLen := len(y[0])
	for i, b := range y {
		if len(b) != blockLen {
			return 0, fmt.Errorf("sparse: observation block %d has length %d, want %d", i, len(b), blockLen)
		}
	}
	return blockLen, nil
}

// firstNonZero returns the position of the first non-zero byte of b, or -1.
func firstNonZero(b []byte) int {
	i := 0
	for ; i+32 <= len(b); i += 32 {
		w := b[i : i+32 : i+32]
		if binary.LittleEndian.Uint64(w)|binary.LittleEndian.Uint64(w[8:])|
			binary.LittleEndian.Uint64(w[16:])|binary.LittleEndian.Uint64(w[24:]) != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return i
		}
	}
	return -1
}

func isZero(b []byte) bool { return firstNonZero(b) < 0 }

func allZero(y [][]byte) bool {
	for _, b := range y {
		if !isZero(b) {
			return false
		}
	}
	return true
}
