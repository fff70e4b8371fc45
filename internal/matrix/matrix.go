// Package matrix implements dense matrix algebra over GF(2^8) as needed by
// the SEC erasure codes: multiplication, Gauss-Jordan inversion, rank,
// sub-matrix selection, and the Cauchy construction whose square-submatrix
// properties give the paper's design Criteria 1 and 2.
package matrix

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/secarchive/sec/internal/gf"
)

// ErrSingular is returned when an operation requires an invertible matrix
// but the input has no inverse.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense rows x cols matrix over GF(2^8), stored row-major.
// The zero value is an empty 0x0 matrix.
type Matrix struct {
	rows, cols int
	data       []byte
}

// New returns a zero-filled rows x cols matrix. It panics if either
// dimension is negative.
func New(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
// The data is copied.
func FromRows(rows [][]byte) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return Matrix{}, fmt.Errorf("matrix: ragged rows: row 0 has %d columns, row %d has %d", cols, i, len(r))
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Cauchy returns the n x k Cauchy matrix with entries 1/(h_i - f_j) built
// from the canonical point sets h_i = i (0 <= i < n) and f_j = n+j
// (0 <= j < k). Every square submatrix of a Cauchy matrix is invertible
// (Lacan & Fimes), which is exactly what SEC's Criteria 1 and 2 require.
// It fails if n+k exceeds the field order.
func Cauchy(n, k int) (Matrix, error) {
	if n <= 0 || k <= 0 {
		return Matrix{}, fmt.Errorf("matrix: Cauchy dimensions must be positive, got %dx%d", n, k)
	}
	if n+k > gf.Order {
		return Matrix{}, fmt.Errorf("matrix: Cauchy needs n+k <= %d distinct field points, got n=%d k=%d", gf.Order, n, k)
	}
	hs := make([]byte, n)
	fs := make([]byte, k)
	for i := range hs {
		hs[i] = byte(i)
	}
	for j := range fs {
		fs[j] = byte(n + j)
	}
	return CauchyWith(hs, fs)
}

// CauchyWith returns the Cauchy matrix for explicit point sets: entry (i,j)
// is 1/(hs[i] + fs[j]) (addition is subtraction in characteristic 2). The
// points must be pairwise distinct across the union of hs and fs.
func CauchyWith(hs, fs []byte) (Matrix, error) {
	seen := make(map[byte]bool, len(hs)+len(fs))
	for _, p := range hs {
		if seen[p] {
			return Matrix{}, fmt.Errorf("matrix: duplicate Cauchy point %d", p)
		}
		seen[p] = true
	}
	for _, p := range fs {
		if seen[p] {
			return Matrix{}, fmt.Errorf("matrix: duplicate Cauchy point %d", p)
		}
		seen[p] = true
	}
	m := New(len(hs), len(fs))
	for i, h := range hs {
		row := m.Row(i)
		for j, f := range fs {
			row[j] = gf.Inv(h ^ f)
		}
	}
	return m, nil
}

// Rows returns the number of rows.
func (m Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m Matrix) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m Matrix) At(i, j int) byte {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m Matrix) Set(i, j int, v byte) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// slice mutates the matrix.
func (m Matrix) Row(i int) []byte {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	c := Matrix{rows: m.rows, cols: m.cols, data: make([]byte, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and o have the same shape and entries.
func (m Matrix) Equal(o Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// String renders the matrix in a compact bracketed form for debugging.
func (m Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Mul returns the matrix product m * o. The inner dimensions must agree.
func (m Matrix) Mul(o Matrix) Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		prow := p.Row(i)
		for l := 0; l < m.cols; l++ {
			if mrow[l] == 0 {
				continue
			}
			gf.MulAddSlice(mrow[l], prow, o.Row(l))
		}
	}
	return p
}

// MulVec returns the matrix-vector product m * x. len(x) must equal the
// column count.
func (m Matrix) MulVec(x []byte) []byte {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: vector length %d does not match %d columns", len(x), m.cols))
	}
	y := make([]byte, m.rows)
	for i := 0; i < m.rows; i++ {
		y[i] = gf.DotSlice(m.Row(i), x)
	}
	return y
}

// Parallel block-multiply tuning: MulBlocksInto stays sequential below
// mulBlocksParallelMin bytes of output (goroutine fan-out costs more than it
// saves on small codewords) and above it splits the block byte range into
// chunks handed to at most GOMAXPROCS workers. Chunks shrink below
// mulBlocksChunk when needed to give every worker a share of the byte range
// (but never below mulBlocksMinChunk, so tiny chunks don't drown the work
// in coordination); the cap bounds the working set per pass (all rows of
// one chunk touch (rows+cols)*chunk bytes), keeping the streamed operands
// cache-resident.
const (
	mulBlocksParallelMin = 256 << 10
	mulBlocksChunk       = 64 << 10
	mulBlocksMinChunk    = 4 << 10
)

// mulBlocksJob carries one MulBlocksInto call's state to its workers.
// Jobs are pooled so steady-state encoding does not allocate.
type mulBlocksJob struct {
	m        Matrix
	blocks   [][]byte
	dst      [][]byte
	blockLen int
	chunk    int
	chunks   int64
	next     atomic.Int64
	wg       sync.WaitGroup
}

var mulBlocksJobs = sync.Pool{New: func() any { return new(mulBlocksJob) }}

// mulBlocksHandoff carries jobs to the helper goroutines mulBlocksInto
// starts, one send per start. A go statement with arguments allocates a
// closure for them; a helper that takes its job from here starts without
// one, so a parallel product does not allocate.
var mulBlocksHandoff = make(chan *mulBlocksJob, 64)

// MulBlocks applies m to a block vector: blocks[j] is the j-th symbol as a
// byte block, and the result's i-th block is sum_j m[i][j]*blocks[j]
// computed byte-wise. All blocks must have equal length. This is the
// striped-object encoding primitive.
func (m Matrix) MulBlocks(blocks [][]byte) [][]byte {
	blockLen := m.checkBlocks(blocks)
	out := make([][]byte, m.rows)
	flat := make([]byte, m.rows*blockLen)
	for i := range out {
		out[i] = flat[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
	}
	m.mulBlocksInto(blocks, out, blockLen)
	return out
}

// MulBlocksInto is MulBlocks without the result allocation: it overwrites
// dst, which must hold m.Rows() blocks of the input block length. dst must
// not alias blocks. Large block lengths are processed in cache-friendly
// chunks by up to GOMAXPROCS goroutines; the call does not allocate in
// steady state.
func (m Matrix) MulBlocksInto(blocks, dst [][]byte) {
	blockLen := m.checkBlocks(blocks)
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: destination block count %d does not match %d rows", len(dst), m.rows))
	}
	for i, d := range dst {
		if len(d) != blockLen {
			panic(fmt.Sprintf("matrix: destination block %d has length %d, want %d", i, len(d), blockLen))
		}
	}
	m.mulBlocksInto(blocks, dst, blockLen)
}

func (m Matrix) mulBlocksInto(blocks, dst [][]byte, blockLen int) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || m.rows*blockLen < mulBlocksParallelMin {
		gf.MulBlocks(m.data, blocks, dst, 0, blockLen)
		return
	}
	// Size chunks so every worker gets a share of the byte range, within
	// the [mulBlocksMinChunk, mulBlocksChunk] bounds, rounded to whole
	// cache lines so workers do not share dirty lines at chunk seams.
	chunk := (blockLen + workers - 1) / workers
	if chunk > mulBlocksChunk {
		chunk = mulBlocksChunk
	}
	if chunk < mulBlocksMinChunk {
		chunk = mulBlocksMinChunk
	}
	chunk = (chunk + 63) &^ 63
	chunks := (blockLen + chunk - 1) / chunk
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		gf.MulBlocks(m.data, blocks, dst, 0, blockLen)
		return
	}
	job := mulBlocksJobs.Get().(*mulBlocksJob)
	job.m, job.blocks, job.dst = m, blocks, dst
	job.blockLen = blockLen
	job.chunk = chunk
	job.chunks = int64(chunks)
	job.next.Store(0)
	job.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go mulBlocksWorker()
		mulBlocksHandoff <- job
	}
	job.runChunks()
	job.wg.Wait()
	job.m, job.blocks, job.dst = Matrix{}, nil, nil
	mulBlocksJobs.Put(job)
}

func mulBlocksWorker() {
	job := <-mulBlocksHandoff
	defer job.wg.Done()
	job.runChunks()
}

// runChunks claims chunks off the shared counter until none remain.
func (job *mulBlocksJob) runChunks() {
	for {
		c := job.next.Add(1) - 1
		if c >= job.chunks {
			return
		}
		lo := int(c) * job.chunk
		hi := lo + job.chunk
		if hi > job.blockLen {
			hi = job.blockLen
		}
		gf.MulBlocks(job.m.data, job.blocks, job.dst, lo, hi)
	}
}

// checkBlocks validates a block vector argument against the column count
// and returns the uniform block length.
func (m Matrix) checkBlocks(blocks [][]byte) int {
	if len(blocks) != m.cols {
		panic(fmt.Sprintf("matrix: block count %d does not match %d columns", len(blocks), m.cols))
	}
	blockLen := 0
	if len(blocks) > 0 {
		blockLen = len(blocks[0])
	}
	for j, b := range blocks {
		if len(b) != blockLen {
			panic(fmt.Sprintf("matrix: block %d has length %d, want %d", j, len(b), blockLen))
		}
	}
	return blockLen
}

// SelectRows returns a new matrix formed by the given rows of m, in order.
// Row indices may repeat.
func (m Matrix) SelectRows(idx []int) Matrix {
	s := New(len(idx), m.cols)
	for i, r := range idx {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// SelectCols returns a new matrix formed by the given columns of m, in
// order. Column indices may repeat.
func (m Matrix) SelectCols(idx []int) Matrix {
	s := New(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := s.Row(i)
		for j, c := range idx {
			if c < 0 || c >= m.cols {
				panic(fmt.Sprintf("matrix: column %d out of range for %dx%d matrix", c, m.rows, m.cols))
			}
			dst[j] = src[c]
		}
	}
	return s
}

// Stack returns the vertical concatenation [m; o]. Column counts must
// agree.
func (m Matrix) Stack(o Matrix) Matrix {
	if m.cols != o.cols {
		panic(fmt.Sprintf("matrix: cannot stack %dx%d on %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	s := New(m.rows+o.rows, m.cols)
	copy(s.data, m.data)
	copy(s.data[m.rows*m.cols:], o.data)
	return s
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ErrSingular if none exists.
func (m Matrix) Inverse() (Matrix, error) {
	if m.rows != m.cols {
		return Matrix{}, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		if p := a.At(col, col); p != 1 {
			scale := gf.Inv(p)
			gf.MulSlice(scale, a.Row(col), a.Row(col))
			gf.MulSlice(scale, inv.Row(col), inv.Row(col))
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := a.At(r, col); f != 0 {
				gf.MulAddSlice(f, a.Row(r), a.Row(col))
				gf.MulAddSlice(f, inv.Row(r), inv.Row(col))
			}
		}
	}
	return inv, nil
}

// Rank returns the rank of m.
func (m Matrix) Rank() int {
	a := m.Clone()
	rank := 0
	for col := 0; col < a.cols && rank < a.rows; col++ {
		pivot := -1
		for r := rank; r < a.rows; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != rank {
			swapRows(a, pivot, rank)
		}
		scale := gf.Inv(a.At(rank, col))
		gf.MulSlice(scale, a.Row(rank), a.Row(rank))
		for r := 0; r < a.rows; r++ {
			if r == rank {
				continue
			}
			if f := a.At(r, col); f != 0 {
				gf.MulAddSlice(f, a.Row(r), a.Row(rank))
			}
		}
		rank++
	}
	return rank
}

// IndependentRows splits the rows of m into the first rows, in order, on
// which its columns are independent - as many as its rank - and the others.
func (m Matrix) IndependentRows() (rows, others []int) {
	w := m.cols
	basis := make([]byte, 0, w*w) // reduced chosen rows, leading entry 1
	var lead []int
	v := make([]byte, w)
	for r := 0; r < m.rows; r++ {
		copy(v, m.Row(r))
		for i, l := range lead {
			if f := v[l]; f != 0 {
				gf.MulAddSlice(f, v, basis[i*w:(i+1)*w])
			}
		}
		l := slices.IndexFunc(v, func(b byte) bool { return b != 0 })
		if l < 0 || len(rows) == w {
			others = append(others, r)
			continue
		}
		gf.MulSlice(gf.Inv(v[l]), v, v)
		basis = append(basis, v...)
		lead = append(lead, l)
		rows = append(rows, r)
	}
	return rows, others
}

// Invertible reports whether the square matrix m has an inverse.
func (m Matrix) Invertible() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Rank() == m.rows
}

func swapRows(m Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}
